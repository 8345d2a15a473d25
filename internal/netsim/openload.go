package netsim

import (
	"math"
	"math/rand"
	"sort"

	"htmgil/internal/resilience"
	"htmgil/internal/sched"
	"htmgil/internal/vm"
)

// Open-loop load generation. The closed-loop LoadGen above issues the next
// request only after the previous response arrives, so offered load
// self-throttles to whatever the server sustains and queueing delay never
// accumulates — tails stay flat no matter how overloaded the server is. An
// open-loop generator draws arrival times from a seeded stochastic process
// that does not observe the server at all; when the server falls behind,
// requests pile up and the latency distribution grows the heavy tail that
// real serving systems (and the TM-contention literature) care about.
// Everything is seeded and consumed in schedule order, so runs are
// bit-identical.

// ArrivalKind selects the arrival process shape.
type ArrivalKind string

// Arrival processes.
const (
	// ArrivalPoisson is a homogeneous Poisson process at RatePerSec.
	ArrivalPoisson ArrivalKind = "poisson"
	// ArrivalBursty alternates on/off phases (on = ~3.3x the mean rate for
	// 20% of each period) while keeping the long-run mean at RatePerSec.
	ArrivalBursty ArrivalKind = "bursty"
	// ArrivalDiurnal modulates the rate with a raised sine (trough 25% of
	// peak) whose long-run mean is RatePerSec — a compressed day/night
	// traffic profile.
	ArrivalDiurnal ArrivalKind = "diurnal"
)

// Bursty/diurnal profile shape constants (see the ArrivalKind docs).
const (
	burstOnFrac  = 0.2
	burstOffMult = 0.125
	diurnalLo    = 0.25
)

// ArrivalOpts parameterizes an ArrivalStream.
type ArrivalOpts struct {
	Kind       ArrivalKind
	Seed       int64
	RatePerSec float64 // long-run mean arrivals per virtual second
	Horizon    int64   // arrivals are generated in [0, Horizon) cycles
	// Period is the modulation period in cycles for bursty (on/off cycle)
	// and diurnal (full sine) processes; it defaults to Horizon/8 and
	// Horizon respectively.
	Period int64
	// PulseMult > 1 multiplies the rate by that factor during
	// [PulseStart, PulseEnd) — an overload pulse layered on any base
	// process, the trigger for metastable-failure scenarios.
	PulseStart int64
	PulseEnd   int64
	PulseMult  float64
}

// ArrivalStream generates the arrival times of a (possibly nonhomogeneous)
// Poisson process by thinning: homogeneous candidates at the peak rate are
// accepted with probability rate(t)/peak. Given the same options the
// sequence of times is byte-identical across runs.
type ArrivalStream struct {
	rng     *rand.Rand
	t       float64
	peak    float64 // arrivals per cycle at peak modulation
	horizon float64
	profile func(t float64) float64 // acceptance probability in (0, 1]
}

// NewArrivalStream builds the seeded arrival-time generator.
func NewArrivalStream(o ArrivalOpts) *ArrivalStream {
	rate := o.RatePerSec / float64(vm.CyclesPerSecond)
	s := &ArrivalStream{
		rng:     rand.New(rand.NewSource(o.Seed)),
		horizon: float64(o.Horizon),
	}
	switch o.Kind {
	case ArrivalBursty:
		period := float64(o.Period)
		if period <= 0 {
			period = float64(o.Horizon) / 8
		}
		// Mean multiplier over a period is onFrac + (1-onFrac)*offMult;
		// scale the peak so the long-run mean stays at the requested rate.
		s.peak = rate / (burstOnFrac + (1-burstOnFrac)*burstOffMult)
		s.profile = func(t float64) float64 {
			if math.Mod(t, period) < burstOnFrac*period {
				return 1
			}
			return burstOffMult
		}
	case ArrivalDiurnal:
		period := float64(o.Period)
		if period <= 0 {
			period = float64(o.Horizon)
		}
		s.peak = rate / (diurnalLo + (1-diurnalLo)*0.5)
		s.profile = func(t float64) float64 {
			return diurnalLo + (1-diurnalLo)*0.5*(1-math.Cos(2*math.Pi*t/period))
		}
	default: // ArrivalPoisson
		s.peak = rate
	}
	if o.PulseMult > 1 && o.PulseEnd > o.PulseStart {
		// Layer the overload pulse on top of the base profile: raise the
		// candidate rate to the pulsed peak and thin everything outside the
		// pulse window back down by the same factor.
		mult := o.PulseMult
		start, end := float64(o.PulseStart), float64(o.PulseEnd)
		base := s.profile
		s.peak *= mult
		s.profile = func(t float64) float64 {
			p := 1.0
			if base != nil {
				p = base(t)
			}
			if t >= start && t < end {
				return p
			}
			return p / mult
		}
	}
	return s
}

// Next returns the next arrival time, or false once the horizon is passed.
func (s *ArrivalStream) Next() (int64, bool) {
	for {
		s.t += s.rng.ExpFloat64() / s.peak
		if s.t >= s.horizon {
			return 0, false
		}
		if s.profile == nil || s.rng.Float64() < s.profile(s.t) {
			return int64(s.t), true
		}
	}
}

// ZipfPicker draws route indices with Zipf-distributed popularity: route i
// (0-based) has weight 1/(i+1)^s. Sampling is by inverse CDF over the
// normalized cumulative weights, so it is exact and seeded.
type ZipfPicker struct {
	rng *rand.Rand
	cum []float64
}

// NewZipfPicker builds a picker over n routes with exponent s (s <= 0
// defaults to 1.1, a typical web-traffic skew).
func NewZipfPicker(seed int64, n int, s float64) *ZipfPicker {
	if s <= 0 {
		s = 1.1
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &ZipfPicker{rng: rand.New(rand.NewSource(seed)), cum: cum}
}

// Pick returns the next route index.
func (z *ZipfPicker) Pick() int {
	i := sort.SearchFloat64s(z.cum, z.rng.Float64())
	if i >= len(z.cum) {
		i = len(z.cum) - 1
	}
	return i
}

// mixSeed derives an independent RNG stream seed (splitmix64 finalizer), so
// the generator's channels — arrivals, route choice, session choice — never
// perturb each other: consuming more randomness on one cannot shift another.
func mixSeed(seed int64, lane uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(lane+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// OpenRoute is one route class the generator sweeps: the request it sends
// and the latency SLO its responses are judged against.
type OpenRoute struct {
	Name      string
	Request   string
	SLOCycles int64
	// DeadlineCycles > 0 stamps each request of this route with an absolute
	// deadline of arrival+DeadlineCycles; the server cancels requests past
	// it (see Conn.Deadline) instead of serving them.
	DeadlineCycles int64
	// Priority classifies the route for brownout shedding: higher values are
	// less essential and shed first. Zero (or negative) is never shed by the
	// brownout controller (admission-queue overflow still applies).
	Priority int
}

// Request outcomes reported through OnOutcome. Every generated request
// resolves to exactly one of these.
const (
	OutcomeCompleted = "completed"
	OutcomeShed      = "shed"     // rejected by server-side admission/brownout
	OutcomeGaveUp    = "gave-up"  // retries exhausted (attempt cap or budget)
	OutcomeDeadline  = "deadline" // cancelled past its deadline
)

type openReq struct {
	arrival  int64 // latency is measured from here, queueing included
	route    int
	deadline int64 // absolute cancel-after cycle; 0 = none
	attempts int   // connect attempts made so far
}

// openSession is one logical client. A session issues its requests in
// order: an arrival landing on a busy session queues behind the in-flight
// request (its latency clock already running), which is what ties tail
// latency to per-client head-of-line blocking rather than treating every
// request as an independent connection.
type openSession struct {
	id     int
	busy   bool
	slow   bool
	queue  []*openReq
	budget *resilience.RetryBudget // nil unless OpenLoadGen.Retry is set
}

// OpenLoadGen drives open-loop traffic: arrivals from an ArrivalStream,
// Zipf route selection, session affinity, and slow-client drain stalls.
// Refused and reset connections are retried with the same backoff as
// LoadGen — crucially keeping the original arrival time, so retries pay
// their full latency cost.
type OpenLoadGen struct {
	Net  *Network // cleared, with Eng and OnDone, once the run is done
	Eng  *sched.Engine
	Port int64

	Seed     int64
	Arrivals ArrivalOpts // Seed field is overridden from Seed
	Routes   []OpenRoute
	ZipfS    float64 // route-popularity exponent (<= 0: 1.1)
	Sessions int     // logical clients (<= 0: 1)
	// SlowFraction of the sessions drain slowly: each of their requests is
	// written SlowStall cycles late, pinning a server thread in
	// read_request for the duration (independent of injected slowclient
	// faults, which hit any session).
	SlowFraction float64
	SlowStall    int64

	// Retry, when set, arms per-session retry budgets with seeded
	// exponential backoff and jitter in place of the legacy fixed-interval
	// retries (which stay capped at openRetryCap attempts either way).
	Retry *resilience.RetryConfig

	// OnDone fires when the arrival horizon has passed and every generated
	// request has resolved (completed, shed, gave up, or expired).
	OnDone func()
	// OnComplete, when set, observes every completed request (tests).
	OnComplete func(session, route int, arrival, done int64)
	// OnOutcome, when set, observes every resolution, successful or not
	// (recovery tracking; outcome is one of the Outcome* constants).
	OnOutcome func(session, route int, arrival, done int64, outcome string)

	// Counters and samples (valid once the run finishes).
	Generated        int // requests the arrival process produced
	Completed        int
	Shed             int // rejected by server-side admission control/brownout
	GaveUp           int // abandoned after exhausting retries or budget
	DeadlineExceeded int // cancelled by the server past their deadline
	Refused          int // connect attempts before the server was up
	Resets           int // connects dropped by injected resets (each retried)
	Stalls           int // injected slow-client stalls (fault channel)
	ConnsTotal       int
	ConnsPeak        int
	Samples          [][]int64 // per-route latency samples, completion order
	FailedByRoute    []int     // per-route non-completed requests (shed + gave-up + expired)

	stream      *ArrivalStream
	zipf        *ZipfPicker
	sessRng     *rand.Rand
	retryRng    *rand.Rand
	sessions    []*openSession
	inflight    int
	outstanding int
	drained     bool
	doneFired   bool
	lastDone    int64
}

const (
	openRetryBackoff = 50_000 // cycles; matches LoadGen's refused/reset backoff
	// openRetryCap bounds retries even on the legacy (budget-less) path: a
	// request refused or reset this many times is abandoned as gave-up
	// rather than retried forever.
	openRetryCap = 64
)

// Resolved returns the number of generated requests that reached a terminal
// outcome; a finished run has Resolved() == Generated.
func (g *OpenLoadGen) Resolved() int {
	return g.Completed + g.Shed + g.GaveUp + g.DeadlineExceeded
}

// Start seeds the streams and schedules the first arrival.
func (g *OpenLoadGen) Start() {
	if g.Sessions <= 0 {
		g.Sessions = 1
	}
	a := g.Arrivals
	a.Seed = mixSeed(g.Seed, 1)
	g.stream = NewArrivalStream(a)
	g.zipf = NewZipfPicker(mixSeed(g.Seed, 2), len(g.Routes), g.ZipfS)
	g.sessRng = rand.New(rand.NewSource(mixSeed(g.Seed, 3)))
	g.retryRng = rand.New(rand.NewSource(mixSeed(g.Seed, 4)))
	g.Samples = make([][]int64, len(g.Routes))
	g.FailedByRoute = make([]int, len(g.Routes))
	nslow := int(math.Round(g.SlowFraction * float64(g.Sessions)))
	g.sessions = make([]*openSession, g.Sessions)
	for i := range g.sessions {
		g.sessions[i] = &openSession{id: i, slow: i < nslow}
		if g.Retry != nil {
			g.sessions[i].budget = g.Retry.NewBudget()
		}
	}
	if t, ok := g.stream.Next(); ok {
		g.scheduleArrival(t)
	} else {
		g.drained = true
		g.maybeDone()
	}
}

func (g *OpenLoadGen) scheduleArrival(t int64) {
	g.Eng.At(t, func(now int64) {
		g.Generated++
		g.outstanding++
		req := &openReq{arrival: now, route: g.zipf.Pick()}
		if d := g.Routes[req.route].DeadlineCycles; d > 0 {
			req.deadline = now + d
		}
		s := g.sessions[g.sessRng.Intn(len(g.sessions))]
		if s.busy {
			s.queue = append(s.queue, req)
		} else {
			s.busy = true
			g.startRequest(s, req, now)
		}
		if nt, ok := g.stream.Next(); ok {
			g.scheduleArrival(nt)
		} else {
			g.drained = true
			// The request above can resolve synchronously (e.g. a refused
			// connect on an exhausted retry budget), in which case its
			// maybeDone ran before drained was set — re-check here.
			g.maybeDone()
		}
	})
}

func (g *OpenLoadGen) startRequest(s *openSession, req *openReq, now int64) {
	if req.deadline > 0 && now >= req.deadline {
		// The deadline passed while the request waited (session queue or
		// retry backoff): don't even connect.
		g.finish(s, req, now, OutcomeDeadline)
		return
	}
	req.attempts++
	g.ConnsTotal++
	g.inflight++
	if g.inflight > g.ConnsPeak {
		g.ConnsPeak = g.inflight
	}
	conn, err := g.Net.Connect(now, g.Port, func(done int64, data string) {
		g.inflight--
		g.finish(s, req, done, OutcomeCompleted)
	})
	if err != nil {
		// Connection refused: the server has not bound the port yet.
		g.Refused++
		g.inflight--
		g.retry(s, req, now)
		return
	}
	conn.Deadline = req.deadline
	conn.Priority = g.Routes[req.route].Priority
	conn.OnReset = func(resetAt int64) {
		g.Resets++
		g.inflight--
		g.retry(s, req, resetAt)
	}
	conn.OnShed = func(at int64) {
		g.inflight--
		g.finish(s, req, at, OutcomeShed)
	}
	conn.OnDeadline = func(at int64) {
		g.inflight--
		g.finish(s, req, at, OutcomeDeadline)
	}
	stall := g.Net.Faults.SlowClient(now)
	if stall > 0 {
		g.Stalls++
	}
	if s.slow {
		stall += g.SlowStall
	}
	conn.Send(now+stall, g.Routes[req.route].Request)
}

// retry re-issues a refused or reset request, or abandons it as gave-up when
// the attempt cap (or, with Retry armed, the session's token budget) is
// exhausted. Budgeted retries back off exponentially with seeded jitter;
// legacy retries keep the fixed LoadGen interval.
func (g *OpenLoadGen) retry(s *openSession, req *openReq, now int64) {
	limit := openRetryCap
	if g.Retry != nil {
		limit = g.Retry.AttemptCap()
	}
	if req.attempts >= limit {
		g.finish(s, req, now, OutcomeGaveUp)
		return
	}
	backoff := int64(openRetryBackoff)
	if g.Retry != nil {
		if !s.budget.TryConsume() {
			g.finish(s, req, now, OutcomeGaveUp)
			return
		}
		backoff = g.Retry.Backoff(req.attempts, g.retryRng.Float64())
	}
	g.Eng.At(now+backoff, func(at int64) { g.startRequest(s, req, at) })
}

// finish resolves a request with a terminal outcome and starts the session's
// next queued request, if any.
func (g *OpenLoadGen) finish(s *openSession, req *openReq, done int64, outcome string) {
	g.outstanding--
	switch outcome {
	case OutcomeCompleted:
		g.Completed++
		g.lastDone = done
		g.Samples[req.route] = append(g.Samples[req.route], done-req.arrival)
		if s.budget != nil {
			s.budget.Refund()
		}
		if g.OnComplete != nil {
			g.OnComplete(s.id, req.route, req.arrival, done)
		}
	case OutcomeShed:
		g.Shed++
		g.FailedByRoute[req.route]++
	case OutcomeGaveUp:
		g.GaveUp++
		g.FailedByRoute[req.route]++
	case OutcomeDeadline:
		g.DeadlineExceeded++
		g.FailedByRoute[req.route]++
	}
	if g.OnOutcome != nil {
		g.OnOutcome(s.id, req.route, req.arrival, done, outcome)
	}
	if len(s.queue) > 0 {
		next := s.queue[0]
		s.queue = s.queue[1:]
		g.startRequest(s, next, done)
	} else {
		s.busy = false
	}
	g.maybeDone()
}

func (g *OpenLoadGen) maybeDone() {
	if g.drained && g.outstanding == 0 && !g.doneFired {
		g.doneFired = true
		if g.OnDone != nil {
			g.OnDone()
		}
		// Nothing is left to connect or schedule. The finished generator is
		// kept for its counters and samples; it must not keep the simulated
		// machine alive through its plumbing.
		g.Net, g.Eng, g.OnDone = nil, nil, nil
	}
}

// Throughput returns completed requests per virtual second.
func (g *OpenLoadGen) Throughput() float64 {
	if g.lastDone == 0 {
		return 0
	}
	return float64(g.Completed) / (float64(g.lastDone) / float64(vm.CyclesPerSecond))
}

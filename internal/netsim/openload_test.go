package netsim

import (
	"math"
	"testing"

	"htmgil/internal/fault"
	"htmgil/internal/htm"
	"htmgil/internal/rbregexp"
	"htmgil/internal/trace"
	"htmgil/internal/vm"
)

// ---------------------------------------------------------------------------
// Arrival-process property tests.

func collectArrivals(o ArrivalOpts) []int64 {
	s := NewArrivalStream(o)
	var out []int64
	for {
		t, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

var arrivalKinds = []ArrivalKind{ArrivalPoisson, ArrivalBursty, ArrivalDiurnal}

// TestArrivalStreamByteDeterministic: identical options yield the identical
// arrival sequence, element for element, for every process kind.
func TestArrivalStreamByteDeterministic(t *testing.T) {
	for _, k := range arrivalKinds {
		o := ArrivalOpts{Kind: k, Seed: 99, RatePerSec: 800, Horizon: 100_000_000}
		a, b := collectArrivals(o), collectArrivals(o)
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d arrivals", k, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: arrival %d: %d vs %d", k, i, a[i], b[i])
			}
		}
	}
}

// TestArrivalStreamOrderedWithinHorizon: times are nondecreasing and live in
// [0, Horizon).
func TestArrivalStreamOrderedWithinHorizon(t *testing.T) {
	for _, k := range arrivalKinds {
		o := ArrivalOpts{Kind: k, Seed: 3, RatePerSec: 500, Horizon: 50_000_000}
		ts := collectArrivals(o)
		if len(ts) == 0 {
			t.Fatalf("%s: no arrivals", k)
		}
		prev := int64(0)
		for i, v := range ts {
			if v < prev || v < 0 || v >= o.Horizon {
				t.Fatalf("%s: arrival %d = %d (prev %d, horizon %d)", k, i, v, prev, o.Horizon)
			}
			prev = v
		}
	}
}

// TestArrivalStreamEmpiricalRate: every process keeps its long-run mean at
// RatePerSec. The horizon spans whole modulation periods (8 bursty cycles,
// one diurnal sine), so the expected count is exactly rate*seconds; the
// observed count must land within 4 standard deviations of a Poisson of
// that mean.
func TestArrivalStreamEmpiricalRate(t *testing.T) {
	const (
		rate    = 500.0
		horizon = int64(1_000_000_000) // 200 virtual seconds
	)
	want := rate * float64(horizon) / float64(vm.CyclesPerSecond)
	tol := 4 * math.Sqrt(want)
	for i, k := range arrivalKinds {
		o := ArrivalOpts{Kind: k, Seed: int64(41 + i), RatePerSec: rate, Horizon: horizon}
		got := float64(len(collectArrivals(o)))
		if math.Abs(got-want) > tol {
			t.Fatalf("%s: %v arrivals, want %v +- %v", k, got, want, tol)
		}
	}
}

// TestArrivalBurstyContrast: within each on/off period the on-phase rate
// must far exceed the off-phase rate (the shape is 1 vs 0.125; demand at
// least 4x to leave sampling noise room).
func TestArrivalBurstyContrast(t *testing.T) {
	o := ArrivalOpts{Kind: ArrivalBursty, Seed: 5, RatePerSec: 2000,
		Horizon: 800_000_000, Period: 100_000_000}
	on, off := 0, 0
	for _, v := range collectArrivals(o) {
		if v%o.Period < int64(burstOnFrac*float64(o.Period)) {
			on++
		} else {
			off++
		}
	}
	onRate := float64(on) / burstOnFrac
	offRate := float64(off) / (1 - burstOnFrac)
	if off == 0 || onRate < 4*offRate {
		t.Fatalf("burst contrast too weak: on=%d off=%d (rates %.0f vs %.0f)", on, off, onRate, offRate)
	}
}

// TestArrivalDiurnalRamp: the sine trough (start of the period) must see
// far fewer arrivals than the peak (middle of the period).
func TestArrivalDiurnalRamp(t *testing.T) {
	o := ArrivalOpts{Kind: ArrivalDiurnal, Seed: 6, RatePerSec: 2000, Horizon: 1_000_000_000}
	trough, peak := 0, 0
	tenth := o.Horizon / 10
	for _, v := range collectArrivals(o) {
		if v < tenth {
			trough++
		} else if v >= 45*o.Horizon/100 && v < 45*o.Horizon/100+tenth {
			peak++
		}
	}
	if trough == 0 || float64(peak) < 2*float64(trough) {
		t.Fatalf("diurnal ramp too weak: trough=%d peak=%d", trough, peak)
	}
}

// TestZipfPickerSkewedAndDeterministic: same seed, same picks; empirical
// popularity is ordered by rank and roughly matches the 1/(i+1)^s weights.
func TestZipfPickerSkewedAndDeterministic(t *testing.T) {
	const n, draws = 6, 60_000
	za, zb := NewZipfPicker(77, n, 1.1), NewZipfPicker(77, n, 1.1)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		a, b := za.Pick(), zb.Pick()
		if a != b {
			t.Fatalf("draw %d: %d vs %d", i, a, b)
		}
		counts[a]++
	}
	for i := 1; i < n; i++ {
		if counts[i] >= counts[i-1] {
			t.Fatalf("popularity not rank-ordered: counts=%v", counts)
		}
	}
	// Rank-0 weight is 1/H where H = sum 1/(i+1)^1.1; check within 10%.
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), 1.1)
	}
	want := float64(draws) / total
	if math.Abs(float64(counts[0])-want) > 0.1*want {
		t.Fatalf("rank-0 count %d, want ~%.0f", counts[0], want)
	}
}

// TestMixSeedLaneSeparation: the derived stream seeds are distinct across
// lanes and across base seeds (no lane collapses onto another).
func TestMixSeedLaneSeparation(t *testing.T) {
	seen := map[int64]bool{}
	for _, seed := range []int64{0, 1, 7, -9, 1 << 40} {
		for lane := uint64(0); lane < 8; lane++ {
			v := mixSeed(seed, lane)
			if seen[v] {
				t.Fatalf("collision at seed=%d lane=%d", seed, lane)
			}
			seen[v] = true
		}
	}
}

// ---------------------------------------------------------------------------
// Open-loop generator against a live server: session affinity and fault
// interaction.

// poolEchoServer serves echo with a 4-worker bounded pool, so open-loop
// tests cannot run into the VM's transaction-context cap.
const poolEchoServer = `
def handle(s)
  req = s.read_request
  s.write("ECHO:" + req)
  s.close
end
server = TCPServer.new(9090)
w = 1
while w < 4
  Thread.new do
    while true
      handle(server.accept)
    end
  end
  w += 1
end
while true
  handle(server.accept)
end
`

type openDone struct {
	session, route int
	arrival, done  int64
}

// runOpenEcho drives the pool echo server open-loop under an optional fault
// spec and returns the generator, the completion log, the aggregator and
// the per-kind event tally.
func runOpenEcho(t *testing.T, specText string, g *OpenLoadGen) ([]openDone, *trace.Aggregator, kindCounter) {
	t.Helper()
	agg := trace.NewAggregator()
	kinds := kindCounter{}
	opt := vm.DefaultOptions(htm.XeonE3(), vm.ModeGIL)
	opt.Trace = trace.NewRecorder(agg, kinds)
	if specText != "" {
		spec, err := fault.ParseSpec(specText)
		if err != nil {
			t.Fatal(err)
		}
		opt.Faults = spec
	}
	machine := vm.New(opt)
	net := NewNetwork(machine.Engine)
	net.Tracer = machine.Opt.Trace
	net.Faults = machine.Faults
	Install(machine, net)
	rbregexp.Install(machine)
	iseq, err := machine.CompileSource(poolEchoServer, "echo")
	if err != nil {
		t.Fatal(err)
	}
	var log []openDone
	g.Net, g.Eng, g.Port = net, machine.Engine, 9090
	g.OnDone = machine.Engine.Stop
	g.OnComplete = func(session, route int, arrival, done int64) {
		log = append(log, openDone{session, route, arrival, done})
	}
	g.Start()
	if _, err := machine.Run(iseq); err != nil {
		t.Fatal(err)
	}
	if g.Net != nil || g.Eng != nil || g.OnDone != nil {
		t.Fatal("the finished generator still holds its network plumbing (and through it the machine)")
	}
	return log, agg, kinds
}

func echoRoutes() []OpenRoute {
	return []OpenRoute{
		{Name: "ping", Request: "ping\r\n", SLOCycles: 1_000_000},
		{Name: "pong", Request: "pong\r\n", SLOCycles: 1_000_000},
	}
}

// TestOpenLoadSessionAffinity: each session is a serial client — its
// requests complete in arrival order, with nondecreasing completion times,
// even when arrivals outpace it and queue behind the in-flight request.
func TestOpenLoadSessionAffinity(t *testing.T) {
	g := &OpenLoadGen{
		Seed: 21,
		Arrivals: ArrivalOpts{Kind: ArrivalPoisson,
			RatePerSec: 400, Horizon: 30_000_000},
		Routes:   echoRoutes(),
		Sessions: 5, // few sessions at high rate: per-session queues must form
	}
	log, _, _ := runOpenEcho(t, "", g)
	if g.Completed != g.Generated || g.Completed == 0 {
		t.Fatalf("completed %d of %d", g.Completed, g.Generated)
	}
	if len(log) != g.Completed {
		t.Fatalf("OnComplete saw %d of %d completions", len(log), g.Completed)
	}
	lastArrival := map[int]int64{}
	lastDone := map[int]int64{}
	queued := false
	for _, d := range log {
		if d.session < 0 || d.session >= g.Sessions {
			t.Fatalf("completion on unknown session %d", d.session)
		}
		if d.arrival < lastArrival[d.session] {
			t.Fatalf("session %d completed out of arrival order: %d after %d",
				d.session, d.arrival, lastArrival[d.session])
		}
		if d.done < lastDone[d.session] {
			t.Fatalf("session %d done times regressed: %d after %d",
				d.session, d.done, lastDone[d.session])
		}
		if d.arrival < lastDone[d.session] {
			queued = true // arrived while a prior request was still in flight
		}
		lastArrival[d.session], lastDone[d.session] = d.arrival, d.done
	}
	if !queued {
		t.Fatalf("no request ever queued behind its session: affinity untested at this rate")
	}
}

// TestOpenLoadFaultAccounting: injected connection resets and slow-client
// stalls land on the generator's connections, every request still
// completes (retries keep the original arrival time), and the generator's
// counters agree with the trace stream's fault attribution.
func TestOpenLoadFaultAccounting(t *testing.T) {
	g := &OpenLoadGen{
		Seed: 8,
		Arrivals: ArrivalOpts{Kind: ArrivalPoisson,
			RatePerSec: 150, Horizon: 40_000_000},
		Routes:   echoRoutes(),
		Sessions: 12,
	}
	log, agg, kinds := runOpenEcho(t, "connreset=0.08,slowclient=0.1:30000,seed=4", g)
	if g.Completed != g.Generated || g.Completed == 0 {
		t.Fatalf("completed %d of %d", g.Completed, g.Generated)
	}
	if g.Resets == 0 || g.Stalls == 0 {
		t.Fatalf("faults armed but none injected: resets=%d stalls=%d", g.Resets, g.Stalls)
	}
	if kinds[trace.KindNetReset] != uint64(g.Resets) {
		t.Fatalf("net-reset events = %d, generator counted %d", kinds[trace.KindNetReset], g.Resets)
	}
	if agg.Faults[fault.ChanConnReset] != uint64(g.Resets) {
		t.Fatalf("reset attribution %d, generator counted %d", agg.Faults[fault.ChanConnReset], g.Resets)
	}
	if agg.Faults[fault.ChanSlowClient] != uint64(g.Stalls) {
		t.Fatalf("slow-client attribution %d, generator counted %d", agg.Faults[fault.ChanSlowClient], g.Stalls)
	}
	// A reset retry reconnects: total connections must exceed completions.
	if g.ConnsTotal != g.Completed+g.Resets+g.Refused {
		t.Fatalf("conn accounting: total=%d completed=%d resets=%d refused=%d",
			g.ConnsTotal, g.Completed, g.Resets, g.Refused)
	}
	// Latency is measured from arrival: every sample is positive and the
	// completion log agrees with the sample count.
	n := 0
	for _, s := range g.Samples {
		n += len(s)
	}
	if n != len(log) {
		t.Fatalf("samples %d vs completions %d", n, len(log))
	}
}

// TestOpenLoadDeterministicUnderFaults: the full open-loop + fault stack
// reproduces byte-identical counters and samples across runs.
func TestOpenLoadDeterministicUnderFaults(t *testing.T) {
	run := func() *OpenLoadGen {
		g := &OpenLoadGen{
			Seed: 31,
			Arrivals: ArrivalOpts{Kind: ArrivalBursty,
				RatePerSec: 120, Horizon: 30_000_000},
			Routes:       echoRoutes(),
			Sessions:     8,
			SlowFraction: 0.25,
			SlowStall:    50_000,
		}
		runOpenEcho(t, "connreset=0.05,slowclient=0.08:20000,seed=9", g)
		return g
	}
	a, b := run(), run()
	if a.Generated != b.Generated || a.Completed != b.Completed ||
		a.Resets != b.Resets || a.Stalls != b.Stalls ||
		a.ConnsTotal != b.ConnsTotal || a.ConnsPeak != b.ConnsPeak {
		t.Fatalf("counters diverge: %+v vs %+v", a, b)
	}
	for r := range a.Samples {
		for i := range a.Samples[r] {
			if a.Samples[r][i] != b.Samples[r][i] {
				t.Fatalf("route %d sample %d: %d vs %d", r, i, a.Samples[r][i], b.Samples[r][i])
			}
		}
	}
}

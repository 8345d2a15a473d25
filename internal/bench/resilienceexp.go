package bench

import (
	"fmt"
	"io"

	"htmgil/internal/htm"
	"htmgil/internal/netsim"
	"htmgil/internal/resilience"
	"htmgil/internal/vm"
)

// The resilience experiment stages a metastable failure and measures which
// protection layers let the service climb back out. One scenario, run once
// per protection config: webrick's 16-worker pool on the 128-core server at
// ~75% utilization, hit mid-run by an overload pulse (arrival rate triples
// for a fault window) co-timed with a connection-reset burst. The pulse
// stores energy in every unprotected queue — the listener backlog grows
// past anything the pool can drain, per-session queues stack behind the
// head-of-line request, and reset retries multiply the connect load — so
// when the pulse clears, the post-pulse offered load plus the stored
// backlog still exceeds capacity and the service stays collapsed: the
// classic metastable trap, visible as recover = -1.
//
// The protection ladder, cumulative row over row:
//
//	unprotected  legacy fixed-interval retries, unbounded backlog
//	budgets      client retry budgets + exponential backoff/jitter: reset
//	             storms resolve to gave-up instead of hammering the listener
//	admission    + server queue-depth gate: bounded backlog bounds queueing
//	             delay, overload resolves to fast sheds
//	full         + deadlines (expired requests cancelled, near-deadline
//	             transactions stop speculating) and the brownout controller
//	             (sheds low-priority routes while the queue-delay EWMA is
//	             hot, keeping the essential route inside its SLO)
//
// Recovery is judged at the request level, not from runtime internals: a
// RecoveryTracker buckets every outcome (an SLO-met completion is ok;
// sheds, give-ups, deadline cancels and late completions are not) and
// recover is the cycles from the pulse clearing until attainment stays
// above threshold for the rest of the run.

// resilienceRow is one protection config of the ladder.
type resilienceRow struct {
	name  string
	retry *resilience.RetryConfig // client-side budgets; nil = legacy retries
	res   *resilience.Config      // server-side protections; nil = none
}

// resilienceBudgets is the client retry policy of every protected row:
// few attempts, a small per-session token bucket refilled by successes,
// exponential backoff with heavy jitter to spread retry waves.
func resilienceBudgets() *resilience.RetryConfig {
	return &resilience.RetryConfig{
		MaxAttempts: 4,
		Budget:      8,
		Refill:      0.5,
		BaseBackoff: 100_000,
		MaxBackoff:  3_200_000,
		JitterFrac:  0.5,
	}
}

// resilienceRows returns the protection ladder.
func resilienceRows() []resilienceRow {
	budgets := resilienceBudgets()
	return []resilienceRow{
		{name: "unprotected"},
		{name: "budgets", retry: budgets},
		{name: "admission", retry: budgets, res: &resilience.Config{MaxQueue: 16}},
		{name: "full", retry: budgets, res: &resilience.Config{
			MaxQueue:      16,
			Deadlines:     true,
			DeadlineSlack: 300_000,
			Brownout: &resilience.BrownoutConfig{
				EnterDelay: 1_000_000,
				ShedDelay:  2_500_000,
			},
		}},
	}
}

// resilienceRoutes is the webrick route mix with brownout priorities:
// index is the essential route (priority 0, never shed by the controller),
// missing is degraded only in the shed state, about goes first in
// brownout. Deadline rows give the page routes a cancel-after budget of 6x
// their SLO — above the admission-bounded queue wait plus the saturated
// service time, so the gate only touches genuine stragglers instead of
// downgrading the whole pool to the GIL — and the cheap 404 a tight 2x
// budget: a 404 that has already blown its SLO threefold is pure wasted
// work, so the server cancels it in the backlog instead of serving it.
func resilienceRoutes(deadlines bool) []netsim.OpenRoute {
	routes := []netsim.OpenRoute{
		{Name: "index", Request: servingGet("/index.html"), SLOCycles: 2_000_000, Priority: 0},
		{Name: "about", Request: servingGet("/about"), SLOCycles: 2_000_000, Priority: 2},
		{Name: "missing", Request: servingGet("/missing"), SLOCycles: 1_500_000, Priority: 1},
	}
	if deadlines {
		for i := range routes {
			routes[i].DeadlineCycles = 6 * routes[i].SLOCycles
		}
		routes[2].DeadlineCycles = 2 * routes[2].SLOCycles
	}
	return routes
}

const resilienceHeader = "%-12s%8s%8s%8s%8s%9s%8s%8s%9s%8s%12s\n"

// resilienceRowOut renders one ladder row; recover is in cycles from the
// pulse clearing (-1: the service never climbed back out).
func resilienceRowOut(w io.Writer, name string, r *run) error {
	_, err := fmt.Fprintf(w, "%-12s%8d%8d%8d%8d%9.1f%8.1f%8.1f%8.1f%%%7.1f%%%12s\n",
		name, r.Arrivals, r.Shed, r.GaveUp, r.DeadlineExceeded,
		r.Throughput, ms(r.Latency.P50), ms(r.Latency.P99),
		r.Latency.Attainment*100, r.AbortRatio*100, recoverText(r))
	return err
}

// buildResilience enumerates the metastable-failure ladder: one protection
// config per row under the same scenario — baseRate pulsed by pulseMult over
// [pulseStart, pulseEnd) with a co-timed reset burst, horizon cycles total.
func (s *Session) buildResilience(p *plan) {
	prof := htm.Server(128)
	sessions := 1200
	baseRate := 21.0
	horizon := int64(250_000_000)
	if !s.Quick {
		horizon = 400_000_000
	}
	pulseStart, pulseEnd := int64(80_000_000), int64(160_000_000)
	pulseMult := 3.0

	p.printf("\n# Resilience — metastable failure: webrick on %s, 16 workers, %d sessions, %.0f req/s\n",
		prof.Name, sessions, baseRate)
	p.printf("# pulse %.0fx over [%dM,%dM) cycles + connreset=0.3 burst; recover = cycles from pulse end\n",
		pulseMult, pulseStart/1_000_000, pulseEnd/1_000_000)
	p.printf(resilienceHeader, "config", "gen", "shed", "gaveup", "dlx",
		"tput", "p50ms", "p99ms", "slo", "abort", "recover")
	rows := resilienceRows()
	runs := make([]*run, len(rows))
	for i, row := range rows {
		runs[i] = p.point(pointSpec{
			label: "resilience webrick/" + row.name, exp: "resilience", prof: prof,
			cfg:    Config{Name: row.name, Mode: vm.ModeHTM},
			faults: fmt.Sprintf("connreset=0.3,from=%d,until=%d", pulseStart, pulseEnd), guard: true,
			server: &serverLoad{app: "webrick", open: &openLoad{
				workers: 16, res: row.res, recoverFrom: pulseEnd,
				gen: netsim.OpenLoadGen{
					Seed: 7,
					Arrivals: netsim.ArrivalOpts{
						Kind:       netsim.ArrivalPoisson,
						RatePerSec: baseRate,
						Horizon:    horizon,
						PulseStart: pulseStart,
						PulseEnd:   pulseEnd,
						PulseMult:  pulseMult,
					},
					Routes:       resilienceRoutes(row.res != nil && row.res.Deadlines),
					Sessions:     sessions,
					SlowFraction: 0.05,
					SlowStall:    250_000,
					Retry:        row.retry,
				},
			}},
		})
		p.cell(func(w io.Writer) error { return resilienceRowOut(w, row.name, runs[i]) })
	}

	// Per-route digest: what the brownout priorities buy — the essential
	// index route keeps its SLO through the pulse while the sheddable
	// routes absorb the rejections.
	p.printf("\n# Resilience — per-route attainment across the ladder\n")
	p.printf("%-12s%-10s%8s%8s%8s%8s%8s\n",
		"config", "route", "n", "failed", "p50ms", "p99ms", "slo")
	for i, row := range rows {
		p.cell(func(w io.Writer) error { return resilienceRoutesRow(w, row.name, runs[i]) })
	}
}

// resilienceRoutesRow renders the per-route digest of one ladder row.
func resilienceRoutesRow(w io.Writer, config string, r *run) error {
	for _, rl := range r.RouteLatency {
		if _, err := fmt.Fprintf(w, "%-12s%-10s%8d%8d%8.1f%8.1f%7.1f%%\n",
			config, rl.Route, rl.Count, rl.Failed, ms(rl.P50), ms(rl.P99),
			rl.Attainment*100); err != nil {
			return err
		}
	}
	return nil
}

package bench

import (
	"fmt"
	"io"
	"strconv"

	"htmgil/internal/htm"
	"htmgil/internal/netsim"
	"htmgil/internal/vm"
)

// The serving experiment drives the two paper applications open-loop at
// datacenter shape: a bounded worker pool on a large simulated server
// (htm.Server, 64-256 cores), more than a thousand logical client sessions,
// and arrivals drawn from seeded stochastic processes that do not observe
// the server. Closed-loop Figure 7 measures peak throughput; this measures
// what operators actually watch — tail latency and SLO attainment under
// steady load, overload, burstiness, diurnal ramps, slow-draining clients,
// and injected network/HTM chaos (the latter with the breaker + watchdog
// on and a time-to-recover column, like the chaos experiment). Every point
// is fully deterministic, so the table, the JSON reports, and the CSV are
// byte-identical across runs.

// cyclesPerMs converts virtual cycles to milliseconds for the table.
const cyclesPerMs = float64(vm.CyclesPerSecond) / 1000

// servingScenario is one traffic shape of the sweep.
type servingScenario struct {
	name      string
	kind      netsim.ArrivalKind
	loadMult  float64 // offered rate = loadMult * the app's base rate
	slowFrac  float64 // fraction of sessions that drain slowly
	slowStall int64
	policy    string // contention policy override ("" = HTM-dynamic)
	faults    string // fault spec; arms breaker + watchdog when set
}

// servingApp is one application shape: the pool size it serves with, the
// offered load that saturates roughly 70-80% of that pool (the scenarios
// scale it), and the route classes with their latency SLOs.
type servingApp struct {
	name     string
	workers  int
	baseRate float64 // req per virtual second at loadMult 1.0
	routes   []netsim.OpenRoute
}

func servingGet(path string) string {
	return "GET " + path + " HTTP/1.1\r\nHost: sim.example\r\nUser-Agent: open/1.0\r\nAccept: text/html\r\nConnection: close\r\n\r\n"
}

// servingApps sizes each pool at its measured sweet spot: webrick peaks
// near 16 workers (~28 req/s on htm.Server; beyond that the gil and
// malloc-global conflict regions push the abort ratio past 95% and
// throughput falls), and rails sustains ~51 req/s. Base rates put steady
// load at roughly 75% of that capacity.
func servingApps() []servingApp {
	return []servingApp{
		{
			name:     "webrick",
			workers:  16,
			baseRate: 21,
			routes: []netsim.OpenRoute{
				{Name: "index", Request: servingGet("/index.html"), SLOCycles: 2_000_000},
				{Name: "about", Request: servingGet("/about"), SLOCycles: 2_000_000},
				{Name: "missing", Request: servingGet("/missing"), SLOCycles: 1_500_000},
			},
		},
		{
			name:     "rails",
			workers:  16,
			baseRate: 38,
			routes: []netsim.OpenRoute{
				{Name: "books", Request: servingGet("/books"), SLOCycles: 1_200_000},
				{Name: "book", Request: servingGet("/books/7"), SLOCycles: 1_200_000},
				{Name: "miss", Request: servingGet("/"), SLOCycles: 800_000},
			},
		},
	}
}

// servingScenarios returns the quick sweep; full adds the slower shapes.
func servingScenarios(quick bool, horizon int64) []servingScenario {
	out := []servingScenario{
		{name: "steady", kind: netsim.ArrivalPoisson, loadMult: 1.0},
		{name: "overload", kind: netsim.ArrivalPoisson, loadMult: 1.5},
		{name: "bursty", kind: netsim.ArrivalBursty, loadMult: 1.0},
		{name: "net-chaos", kind: netsim.ArrivalPoisson, loadMult: 0.8,
			faults: fmt.Sprintf("spurious=8000,connreset=0.01,slowclient=0.02,until=%d", horizon/2)},
	}
	if !quick {
		out = append(out,
			servingScenario{name: "diurnal", kind: netsim.ArrivalDiurnal, loadMult: 1.0},
			servingScenario{name: "slow-drain", kind: netsim.ArrivalPoisson, loadMult: 0.9,
				slowFrac: 0.05, slowStall: 250_000},
			servingScenario{name: "lazy-sub", kind: netsim.ArrivalPoisson, loadMult: 1.0,
				policy: "lazy-subscription"},
		)
	}
	return out
}

// servingDigest pools the per-route samples into the aggregate summary
// (attainment judged against each route's own SLO) and the per-route table.
// Requests that never completed — shed by admission control, given up after
// exhausting retries, or cancelled past their deadline — are SLO misses:
// they fold into attainment without contributing latency samples.
func servingDigest(g *netsim.OpenLoadGen) (LatencySummary, []RouteLatency) {
	var all []int64
	met, judged := 0, 0
	per := make([]RouteLatency, 0, len(g.Routes))
	for i, r := range g.Routes {
		rs := Summarize(g.Samples[i], r.SLOCycles).WithFailures(g.FailedByRoute[i])
		per = append(per, RouteLatency{Route: r.Name, LatencySummary: rs})
		all = append(all, g.Samples[i]...)
		if r.SLOCycles > 0 {
			judged += len(g.Samples[i]) + g.FailedByRoute[i]
			met += rs.Met
		}
	}
	agg := Summarize(all, 0).WithFailures(g.Shed + g.GaveUp + g.DeadlineExceeded)
	if judged > 0 {
		agg.Attainment = float64(met) / float64(judged)
	}
	return agg, per
}

// servingPoint is the spec of one point of the serving sweep.
func servingPoint(label string, prof *htm.Profile, app servingApp, sc servingScenario,
	seed int64, sessions int, horizon int64) pointSpec {
	return pointSpec{
		label: label, exp: "serving", prof: prof,
		cfg:    Config{Name: sc.name, Mode: vm.ModeHTM, Policy: sc.policy},
		faults: sc.faults, guard: sc.faults != "",
		server: &serverLoad{app: app.name, open: &openLoad{
			workers: app.workers,
			gen: netsim.OpenLoadGen{
				Seed: seed,
				Arrivals: netsim.ArrivalOpts{
					Kind:       sc.kind,
					RatePerSec: app.baseRate * sc.loadMult,
					Horizon:    horizon,
				},
				Routes:       app.routes,
				Sessions:     sessions,
				SlowFraction: sc.slowFrac,
				SlowStall:    sc.slowStall,
			},
		}},
	}
}

const servingHeader = "%-12s%8s%8s%8s%9s%8s%8s%8s%9s%8s%8s%7s%10s\n"

// ms converts virtual cycles to milliseconds for the tables.
func ms(c int64) float64 { return float64(c) / cyclesPerMs }

// servingRow renders one scenario row; latencies in milliseconds. The gaveup
// column counts requests abandoned after exhausting their retry attempts (a
// distinct outcome from completions — they are SLO misses, not lost rows).
func servingRow(w io.Writer, name string, r *run) error {
	_, err := fmt.Fprintf(w, "%-12s%8.0f%8d%8d%9.1f%8.1f%8.1f%8.1f%9.1f%7.1f%%%7.1f%%%7d%10s\n",
		name, r.RatePerSec, r.Arrivals, r.GaveUp, r.Throughput,
		ms(r.Latency.P50), ms(r.Latency.P99), ms(r.Latency.P999), ms(r.Latency.Max),
		r.Latency.Attainment*100, r.AbortRatio*100, r.ConnsPeak, recoverText(r))
	return err
}

// servingRoutesRow renders the per-route latency digest of one point.
func servingRoutesRow(w io.Writer, app string, r *run) error {
	for _, rl := range r.RouteLatency {
		if _, err := fmt.Fprintf(w, "%-10s%-10s%8d%8.1f%8.1f%8.1f%9.1f%7.1f%%\n",
			app, rl.Route, rl.Count, ms(rl.P50), ms(rl.P99), ms(rl.P999), ms(rl.Max),
			rl.Attainment*100); err != nil {
			return err
		}
	}
	return nil
}

// buildServing enumerates the open-loop serving sweep: every scenario for
// both applications on the 128-core server, a pool-size sweep of the
// steady scenario on the 256-core machine (where elision collapse at large
// pools shows up as an abort-ratio cliff, not more throughput), and the
// per-route latency digest of the steady points.
func (s *Session) buildServing(p *plan) {
	quick := s.Quick
	sessions := 1200
	horizon := int64(250_000_000)
	if !quick {
		horizon = 600_000_000
	}
	scs := servingScenarios(quick, horizon)
	prof := htm.Server(128)

	steady := make(map[string]*run)
	for _, app := range servingApps() {
		p.printf("\n# Serving — %s pool on %s, %d workers, %d sessions, horizon %dM cycles (open-loop)\n",
			app.name, prof.Name, app.workers, sessions, horizon/1_000_000)
		p.printf(servingHeader, "scenario", "rate", "gen", "gaveup", "tput",
			"p50ms", "p99ms", "p999ms", "maxms", "slo", "abort", "peak", "recover")
		for i, sc := range scs {
			r := p.point(servingPoint(fmt.Sprintf("serving %s/%s/%s", app.name, prof.Name, sc.name),
				prof, app, sc, int64(7+i), sessions, horizon))
			if sc.name == "steady" {
				steady[app.name] = r
			}
			p.cell(func(w io.Writer) error { return servingRow(w, sc.name, r) })
		}
	}

	// Pool-size sweep on the largest machine: same steady offered load,
	// growing worker pools. More workers first buy headroom, then the
	// conflict aborts of the shared malloc/GIL lines tip the pool into the
	// fallback regime — latency degrades while the machine sits mostly idle.
	big := htm.Server(256)
	pools := []int{8, 16, 32}
	if !quick {
		pools = []int{4, 8, 16, 32, 48}
	}
	sc := scs[0]
	for _, app := range servingApps() {
		p.printf("\n# Serving — %s steady on %s across pool sizes (%d sessions)\n",
			app.name, big.Name, sessions)
		p.printf(servingHeader, "workers", "rate", "gen", "gaveup", "tput",
			"p50ms", "p99ms", "p999ms", "maxms", "slo", "abort", "peak", "recover")
		for _, workers := range pools {
			a := app
			a.workers = workers
			r := p.point(servingPoint(fmt.Sprintf("serving %s/%s/steady-%dw", app.name, big.Name, workers),
				big, a, sc, 7, sessions, horizon))
			p.cell(func(w io.Writer) error { return servingRow(w, strconv.Itoa(workers), r) })
		}
	}

	// Per-route digest of the steady points: where the SLO budget goes.
	p.printf("\n# Serving — per-route latency, steady scenario, %s\n", prof.Name)
	p.printf("%-10s%-10s%8s%8s%8s%8s%9s%8s\n",
		"app", "route", "n", "p50ms", "p99ms", "p999ms", "maxms", "slo")
	for _, app := range servingApps() {
		name, r := app.name, steady[app.name]
		p.cell(func(w io.Writer) error { return servingRoutesRow(w, name, r) })
	}
}

package bench

import (
	"fmt"
	"io"

	"htmgil/internal/htm"
	"htmgil/internal/vm"
)

// The hybrid experiment evaluates the three-tier elision pipeline: where
// does the software-transaction (OCC) tier between HTM and the GIL pay
// off? It sweeps five runtimes over the NPB kernels and WEBrick:
//
//   GIL            every critical section under the lock (the baseline)
//   paper-dynamic  the paper's two tiers: HTM with a GIL fallback
//   occ-adaptive   three tiers: per-site routing HTM -> OCC -> GIL
//   occ-adpt-sbx   occ-adaptive with sandboxed HTM: hardware transactions
//                  skip the OCC sequence-word subscription and rely on
//                  per-line publication conflicts alone
//   occ-first      the software tier only: OCC with a GIL fallback
//
// Every point attaches a trace aggregator (like the policy experiment),
// and the per-tier attribution tables break commits and aborts down by
// tier — hardware, software, and lock — including OCC validation
// failures. The headline question each summary line answers: at the
// highest thread count, does replacing the GIL fallback with OCC beat
// running the contended sections under the lock?

// hybridConfig pairs a swept runtime with its machine-profile tweak.
type hybridConfig struct {
	name    string
	cfg     Config
	sandbox bool // htm.Profile.OCCSandbox: skip the seq-word subscription
}

func hybridConfigs() []hybridConfig {
	return []hybridConfig{
		{"GIL", Config{Name: "GIL", Mode: vm.ModeGIL}, false},
		{"paper-dynamic", Config{Name: "paper-dynamic", Mode: vm.ModeHTM, Policy: "paper-dynamic"}, false},
		{"occ-adaptive", Config{Name: "occ-adaptive", Mode: vm.ModeHTM, Policy: "occ-adaptive"}, false},
		{"occ-adpt-sbx", Config{Name: "occ-adpt-sbx", Mode: vm.ModeHTM, Policy: "occ-adaptive"}, true},
		{"occ-first", Config{Name: "occ-first", Mode: vm.ModeHTM, Policy: "occ-first"}, false},
	}
}

// hybridProfile builds the per-config machine profile.
func hybridProfile(base func() *htm.Profile, sandbox bool) *htm.Profile {
	p := base()
	p.OCCSandbox = sandbox
	return p
}

// tierAttribution prints the per-tier attribution of the given runs:
// hardware begin/commit/abort, software begin/commit/abort plus commit-time
// validation failures, and sections that ended up under the lock.
func tierAttribution(p *plan, names []string, runs []*run) {
	p.printf("%-16s%10s%10s%10s%10s%10s%10s%10s%10s\n", "policy",
		"htmBegin", "htmCommit", "htmAbort", "occBegin", "occCommit", "occAbort", "valFail", "gilFall")
	for i, name := range names {
		p.cell(func(w io.Writer) error { return tierAttributionLine(w, name, runs[i]) })
	}
}

// named returns the run of the column called name.
func named(names []string, runs []*run, name string) *run {
	for i, n := range names {
		if n == name {
			return runs[i]
		}
	}
	panic("bench: no column " + name)
}

func tierAttributionLine(w io.Writer, name string, r *run) error {
	_, err := fmt.Fprintf(w, "%-16s%10d%10d%10d%10d%10d%10d%10d%10d\n", name,
		r.Begins, r.Commits, r.Aborts, r.OCCBegins, r.OCCCommits, r.OCCAborts, r.OCCValidationFailures, r.Fallbacks)
	return err
}

// buildHybrid enumerates the hybrid-TM experiment: throughput tables
// normalized to 1-thread (1-client) GIL, a per-tier attribution table at
// the highest contention point, and a summary line comparing the
// OCC-using runtimes against the all-GIL baseline at that point.
func (s *Session) buildHybrid(p *plan) {
	quick := s.Quick
	class := classFor(quick)
	cfgs := hybridConfigs()
	names := make([]string, len(cfgs))
	for i, hc := range cfgs {
		names[i] = hc.name
	}
	// vsGIL is the summary line under each attribution table.
	vsGIL := func(top []*run, n int, unit string) {
		gil := named(names, top, "GIL")
		p.cell(func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "# vs all-GIL at %d %s: occ-first %.2fx, occ-adaptive %.2fx, paper-dynamic %.2fx\n", n, unit,
				named(names, top, "occ-first").over(gil), named(names, top, "occ-adaptive").over(gil), named(names, top, "paper-dynamic").over(gil))
			return err
		})
	}
	for _, base := range []func() *htm.Profile{htm.ZEC12, htm.XeonE3} {
		prof := base()
		ths := threadsFor(prof, quick)
		maxTh := ths[len(ths)-1]
		for _, bench := range policyKernels(quick) {
			p.printf("\n# Hybrid TM — %s on %s (throughput, 1 = 1-thread GIL)\n", bench, prof.Name)
			baseRun := p.point(kernel("hybrid", fmt.Sprintf("hybrid baseline %s/%s", prof.Name, bench), prof, cfgs[0].cfg, bench, class, 1))
			rows := p.sweep(sweep{
				xName: "threads", xs: ths, xw: 10,
				cols: names, cw: 16,
				point: func(th, c int) *run {
					return p.point(tracedKernel("hybrid", fmt.Sprintf("hybrid %s/%s/%s/%d", prof.Name, bench, names[c], th),
						hybridProfile(base, cfgs[c].sandbox), cfgs[c].cfg, bench, class, th))
				},
				cell: func(r *run, _ int) string { return f2(r.over(baseRun)) },
			})
			top := rows[len(rows)-1]
			p.printf("\n# Hybrid per-tier attribution — %s on %s, %d threads\n", bench, prof.Name, maxTh)
			tierAttribution(p, names, top)
			vsGIL(top, maxTh, "threads")
		}
	}
	// WEBrick on zEC12 (z/OS malloc shadowing, like the policy sweep).
	requests := 3000
	clientsList := []int{1, 2, 4, 6}
	if quick {
		requests = 800
		clientsList = []int{1, 4}
	}
	maxCl := clientsList[len(clientsList)-1]
	p.printf("\n# Hybrid TM — webrick on zEC12 (throughput, 1 = 1-client GIL)\n")
	baseSrv := p.point(server("hybrid", "hybrid webrick baseline", htm.ZEC12(), cfgs[0].cfg, "webrick", 1, requests, true))
	rows := p.sweep(sweep{
		xName: "clients", xs: clientsList, xw: 10,
		cols: names, cw: 16,
		point: func(cl, c int) *run {
			sp := server("hybrid", fmt.Sprintf("hybrid webrick/%s/%d", names[c], cl),
				hybridProfile(htm.ZEC12, cfgs[c].sandbox), cfgs[c].cfg, "webrick", cl, requests, true)
			sp.trace = true
			return p.point(sp)
		},
		cell: func(r *run, _ int) string { return f2(r.over(baseSrv)) },
	})
	top := rows[len(rows)-1]
	p.printf("\n# Hybrid per-tier attribution — webrick on zEC12, %d clients\n", maxCl)
	tierAttribution(p, names, top)
	vsGIL(top, maxCl, "clients")
}

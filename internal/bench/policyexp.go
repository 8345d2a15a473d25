package bench

import (
	"fmt"
	"io"

	"htmgil/internal/htm"
	"htmgil/internal/npb"
	"htmgil/internal/policy"
	"htmgil/internal/vm"
)

// The policy experiment sweeps every registered contention-management
// policy (internal/policy) over the NPB kernels and the WEBrick server,
// with the same normalization as Figures 5 and 7 so the paper-dynamic
// column reproduces the HTM-dynamic numbers bit for bit. Unlike the other
// experiments, every point always attaches a trace aggregator: the
// attribution tables break the abort causes and GIL-fallback reasons down
// per policy, which is the whole point of comparing them.

// tracedKernel is the spec of a validated NPB point of the policy or hybrid
// experiment. Unlike the paper's figures it always attaches a trace
// aggregator, so the attribution tables work without the Session's
// TraceSummary switch.
func tracedKernel(exp, label string, prof *htm.Profile, cfg Config, b npb.Bench, c npb.Class, threads int) pointSpec {
	sp := kernel(exp, label, prof, cfg, b, c, threads)
	sp.kernel.checkValid = true
	sp.trace = true
	return sp
}

// PolicyConfigs returns one ModeHTM configuration per registered
// contention-management policy, in registry order.
func PolicyConfigs() []Config {
	names := policy.Names()
	out := make([]Config, 0, len(names))
	for _, n := range names {
		out = append(out, Config{Name: n, Mode: vm.ModeHTM, Policy: n})
	}
	return out
}

// attribution renders one per-policy attribution line: abort ratio,
// fallback and adjustment counts, then the sorted abort causes and the
// sorted GIL-fallback reasons observed by the trace aggregator.
func attribution(w io.Writer, name string, r *run) error {
	orDash := func(items string) string {
		if items == "" {
			return "-"
		}
		return items[1:] // sortedCounts leads every item with a space
	}
	_, err := fmt.Fprintf(w, "%-18s%9.1f%%%12d%12d  %s | %s\n", name, r.AbortRatio*100, r.Fallbacks, r.Adjustments,
		orDash(sortedCounts(r.AbortCauses, false)), orDash(sortedCounts(r.FallbackWhy, false)))
	return err
}

// attributionTable prints the per-policy attribution of one sweep row.
func attributionTable(p *plan, pols []Config, row []*run) {
	p.printf("%-18s%10s%12s%12s  %s\n", "policy", "abort%", "fallbacks", "adjusts", "causes | fallback reasons")
	for i, pc := range pols {
		p.cell(func(w io.Writer) error { return attribution(w, pc.Name, row[i]) })
	}
}

// policyKernels returns the NPB kernels the policy experiment sweeps.
func policyKernels(quick bool) []npb.Bench {
	if quick {
		return []npb.Bench{npb.CG, npb.FT, npb.SP}
	}
	return npb.Kernels
}

// buildPolicy enumerates the policy-comparison experiment: every registered
// policy against threads on the NPB kernels (normalized to 1-thread GIL,
// like Figure 5 — the paper-dynamic column is bit-identical to fig5's
// HTM-dynamic column) and against clients on WEBrick (normalized to
// 1-client GIL, like Figure 7), each table followed by a per-policy abort
// attribution at the highest contention point.
func (s *Session) buildPolicy(p *plan) {
	quick := s.Quick
	class := classFor(quick)
	pols := PolicyConfigs()
	gil := Configs()[0]
	for _, prof := range []*htm.Profile{htm.ZEC12(), htm.XeonE3()} {
		ths := threadsFor(prof, quick)
		for _, bench := range policyKernels(quick) {
			p.printf("\n# Policy comparison — %s on %s (throughput, 1 = 1-thread GIL)\n", bench, prof.Name)
			base := p.point(kernel("policy", fmt.Sprintf("policy baseline %s", bench), prof, gil, bench, class, 1))
			rows := p.sweep(sweep{
				xName: "threads", xs: ths, xw: 10,
				cols: configNames(pols), cw: 18,
				point: func(th, c int) *run {
					return p.point(tracedKernel("policy", fmt.Sprintf("policy %s/%s/%d", bench, pols[c].Name, th), prof, pols[c], bench, class, th))
				},
				cell: func(r *run, _ int) string { return f2(r.over(base)) },
			})
			p.printf("\n# Policy abort attribution — %s on %s, %d threads\n", bench, prof.Name, ths[len(ths)-1])
			attributionTable(p, pols, rows[len(rows)-1])
		}
	}
	// WEBrick: the server workload the paper used on both machines. Requests
	// and client counts match Figure 7 so the numbers stay comparable.
	requests := 3000
	clientsList := []int{1, 2, 4, 6}
	if quick {
		requests = 800
		clientsList = []int{1, 4}
	}
	for _, a := range []struct {
		prof *htm.Profile
		zos  bool
	}{{htm.ZEC12(), true}, {htm.XeonE3(), false}} {
		prof := a.prof
		p.printf("\n# Policy comparison — webrick on %s (throughput, 1 = 1-client GIL)\n", prof.Name)
		base := p.point(server("policy", fmt.Sprintf("policy webrick baseline %s", prof.Name), prof, gil, "webrick", 1, requests, a.zos))
		rows := p.sweep(sweep{
			xName: "clients", xs: clientsList, xw: 10,
			cols: configNames(pols), cw: 18,
			point: func(cl, c int) *run {
				sp := server("policy", fmt.Sprintf("policy webrick/%s/%s/%d", prof.Name, pols[c].Name, cl), prof, pols[c], "webrick", cl, requests, a.zos)
				sp.trace = true
				return p.point(sp)
			},
			cell: func(r *run, _ int) string { return f2(r.over(base)) },
		})
		p.printf("\n# Policy abort attribution — webrick on %s, %d clients\n", prof.Name, clientsList[len(clientsList)-1])
		attributionTable(p, pols, rows[len(rows)-1])
	}
}

// Package bench regenerates every table and figure of the paper's
// evaluation (Section 5) on the simulated machines. Each experiment
// writes a plain-text table whose rows correspond to the points of the
// original plot; EXPERIMENTS.md records the comparison against the paper.
//
// Experiments run inside a Session, which accumulates one machine-readable
// Report per executed configuration point (WriteReports) and, when
// TraceSummary is on, attaches a trace aggregator to every VM run so the
// per-point digests can attribute aborts to yield points and regions and
// show the dynamic length-adjustment timeline (WriteTraceSummaries).
//
// Every configuration point is an independent, fully deterministic
// single-threaded simulation, so each experiment first enumerates its points
// into a plan and then executes them on a pool of Session.Parallel workers
// (see plan.go); results are merged in point order, keeping the output
// byte-identical to a sequential run. A point is described by a pointSpec
// and executed by the one function that builds VMs (Session.execPoint); what
// survives it is a value-only run record, never the machine.
package bench

import (
	"fmt"
	"io"
	"strings"

	"htmgil/internal/htm"
	"htmgil/internal/npb"
	"htmgil/internal/simmem"
	"htmgil/internal/vm"
)

// Config names one interpreter configuration of Figure 5/7.
type Config struct {
	Name string
	Mode vm.Mode
	// Policy selects a contention-management policy by registry name
	// (internal/policy); empty is the paper's dynamic adjustment.
	Policy string
}

// Configs returns the paper's five configurations.
func Configs() []Config {
	return []Config{
		{Name: "GIL", Mode: vm.ModeGIL},
		{Name: "HTM-1", Mode: vm.ModeHTM, Policy: "fixed-1"},
		{Name: "HTM-16", Mode: vm.ModeHTM, Policy: "fixed-16"},
		{Name: "HTM-256", Mode: vm.ModeHTM, Policy: "fixed-256"},
		{Name: "HTM-dynamic", Mode: vm.ModeHTM},
	}
}

// threadsFor returns the paper's thread counts for a machine.
func threadsFor(p *htm.Profile, quick bool) []int {
	if p.SMTWays == 1 {
		if quick {
			return []int{1, 4, 12}
		}
		return []int{1, 2, 4, 8, 12}
	}
	if quick {
		return []int{1, 4, 8}
	}
	return []int{1, 2, 4, 6, 8}
}

func classFor(quick bool) npb.Class {
	if quick {
		return npb.ClassS
	}
	return npb.ClassW
}

// Session runs experiments and accumulates their results. The zero value
// plus a writer is usable; NewSession fills in the defaults.
type Session struct {
	W     io.Writer
	Quick bool
	// TraceSummary attaches an event aggregator to every VM run so that
	// Reports carry abort-PC attribution and length-adjustment timelines
	// (and WriteTraceSummaries has something to print).
	TraceSummary bool
	// TopN bounds the abort-PC rankings kept per report (default 5).
	TopN int
	// Parallel is the number of workers executing configuration points;
	// 0 selects runtime.GOMAXPROCS(0) and 1 forces sequential execution.
	// Whatever the value, tables and Reports come out in the same order
	// with the same bytes.
	Parallel int
	Reports  []Report
}

// NewSession returns a Session writing plain-text tables to w.
func NewSession(w io.Writer, quick bool) *Session {
	return &Session{W: w, Quick: quick, TopN: 5}
}

func (s *Session) topN() int {
	if s.TopN > 0 {
		return s.TopN
	}
	return 5
}

// configNames lists the column headers of a configuration sweep.
func configNames(cfgs []Config) []string {
	out := make([]string, len(cfgs))
	for i, c := range cfgs {
		out[i] = c.Name
	}
	return out
}

// benchNames lists the column headers of a per-kernel sweep.
func benchNames(bs []npb.Bench) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = string(b)
	}
	return out
}

// buildFig5 enumerates Figure 5: NPB throughput against threads for the five
// configurations on both machines, normalized to 1-thread GIL.
func (s *Session) buildFig5(p *plan) {
	class := classFor(s.Quick)
	cfgs := Configs()
	for _, prof := range []*htm.Profile{htm.ZEC12(), htm.XeonE3()} {
		for _, bench := range npb.Kernels {
			p.printf("\n# Figure 5 — %s on %s (throughput, 1 = 1-thread GIL)\n", bench, prof.Name)
			base := p.point(kernel("fig5", fmt.Sprintf("fig5 baseline %s", bench), prof, cfgs[0], bench, class, 1))
			p.sweep(sweep{
				xName: "threads", xs: threadsFor(prof, s.Quick), xw: 12,
				cols: configNames(cfgs), cw: 14,
				point: func(th, c int) *run {
					sp := kernel("fig5", fmt.Sprintf("fig5 %s/%s/%d", bench, cfgs[c].Name, th), prof, cfgs[c], bench, class, th)
					sp.kernel.checkValid = true
					return p.point(sp)
				},
				cell: func(r *run, _ int) string { return f2(r.over(base)) },
			})
		}
	}
}

// buildFig6a enumerates Figure 6(a): the TSX learning behaviour. A synthetic
// transaction writes a shrinking working set; the success ratio recovers
// only gradually after the set drops below capacity. It drives the HTM
// layer directly (no VM run), so it contributes no Reports and forms a
// single plan point.
func (s *Session) buildFig6a(p *plan) {
	quick := s.Quick
	p.raw("fig6a", func(w io.Writer) error {
		prof := htm.XeonE3()
		prof.InterruptMeanCycles = 0
		mem := simmem.NewMemory(simmem.Config{LineBytes: prof.LineBytes}, 1)
		base := mem.Reserve("data", 1<<21)
		ctx := htm.NewContext(prof, mem, 0, 42)
		iters := 10000
		if quick {
			iters = 2000
		}
		fmt.Fprintf(w, "\n# Figure 6a — write-set shrink on %s (success ratio per %d-iteration window)\n", prof.Name, 100)
		fmt.Fprintf(w, "%-12s%-12s%-12s\n", "iteration", "sizeKB", "success%")
		window, succ := 0, 0
		iter := 0
		for _, sizeKB := range []int{24, 20, 16, 12, 8, 4} {
			lines := sizeKB << 10 / prof.LineBytes
			for i := 0; i < iters; i++ {
				ctx.Begin(0)
				for l := 0; l < lines && !ctx.Tx.Doomed(); l++ {
					ctx.Tx.Store(base+simmem.Addr(l*prof.LineBytes), simmem.Word{Bits: 1})
				}
				if _, ok := ctx.End(0); ok {
					succ++
				} else {
					ctx.Abort()
				}
				window++
				iter++
				if window == 100 {
					fmt.Fprintf(w, "%-12d%-12d%-12d\n", iter, sizeKB, succ)
					window, succ = 0, 0
				}
			}
		}
		return nil
	})
}

// buildFig6b enumerates Figure 6(b): BT with the larger class on Xeon, where
// the longer run lets HTM-dynamic reach and beat the fixed lengths.
func (s *Session) buildFig6b(p *plan) {
	prof := htm.XeonE3()
	class := classFor(s.Quick)
	cfgs := Configs()
	p.printf("\n# Figure 6b — BT class W on %s (throughput, 1 = 1-thread GIL)\n", prof.Name)
	base := p.point(kernel("fig6b", "fig6b baseline", prof, cfgs[0], npb.BT, class, 1))
	p.sweep(sweep{
		xName: "threads", xs: threadsFor(prof, s.Quick), xw: 12,
		cols: configNames(cfgs), cw: 14,
		point: func(th, c int) *run {
			return p.point(kernel("fig6b", fmt.Sprintf("fig6b %s/%d", cfgs[c].Name, th), prof, cfgs[c], npb.BT, class, th))
		},
		cell: func(r *run, _ int) string { return f2(r.over(base)) },
	})
}

// buildFig7 enumerates Figure 7: WEBrick on both machines and Rails on Xeon,
// throughput normalized to 1-client GIL, plus HTM-dynamic abort ratios.
func (s *Session) buildFig7(p *plan) {
	// The dynamic adjustment needs enough requests to adapt the handler
	// sites' transaction lengths (the paper served 30,000 per point).
	requests := 3000
	clientsList := []int{1, 2, 3, 4, 5, 6}
	if s.Quick {
		requests = 800
		clientsList = []int{1, 2, 4, 6}
	}
	cfgs := Configs()
	for _, a := range []struct {
		name string
		prof *htm.Profile
		zos  bool
	}{
		{"webrick", htm.ZEC12(), true},
		{"webrick", htm.XeonE3(), false},
		{"rails", htm.XeonE3(), false},
	} {
		p.printf("\n# Figure 7 — %s on %s (throughput, 1 = 1-client GIL; rightmost: HTM-dynamic abort%%)\n", a.name, a.prof.Name)
		base := p.point(server("fig7", fmt.Sprintf("fig7 %s baseline", a.name), a.prof, cfgs[0], a.name, 1, requests, a.zos))
		p.sweep(sweep{
			xName: "clients", xs: clientsList, xw: 10,
			cols: configNames(cfgs), cw: 14,
			point: func(cl, c int) *run {
				return p.point(server("fig7", fmt.Sprintf("fig7 %s/%s/%d", a.name, cfgs[c].Name, cl), a.prof, cfgs[c], a.name, cl, requests, a.zos))
			},
			cell:     func(r *run, _ int) string { return f2(r.over(base)) },
			tail:     "abort%",
			tailCell: func(row []*run) string { return f1(row[4].AbortRatio * 100) }, // HTM-dynamic
		})
	}
}

// buildFig8 enumerates Figure 8: HTM-dynamic abort ratios of the NPB against
// threads on both machines, and the cycle breakdown at 12 threads on zEC12.
func (s *Session) buildFig8(p *plan) {
	class := classFor(s.Quick)
	dyn := Configs()[4]
	for _, prof := range []*htm.Profile{htm.ZEC12(), htm.XeonE3()} {
		p.printf("\n# Figure 8 — HTM-dynamic abort ratios (%%) on %s\n", prof.Name)
		p.sweep(sweep{
			xName: "threads", xs: threadsFor(prof, s.Quick), xw: 10,
			cols: benchNames(npb.Kernels), cw: 8,
			point: func(th, c int) *run {
				b := npb.Kernels[c]
				return p.point(kernel("fig8", fmt.Sprintf("fig8 %s/%d", b, th), prof, dyn, b, class, th))
			},
			cell: func(r *run, _ int) string { return f1(r.AbortRatio * 100) },
		})
	}
	// Cycle breakdown, 12 threads on zEC12.
	cats := []vm.CycleCat{vm.CatBeginEnd, vm.CatTxSuccess, vm.CatTxAborted, vm.CatGILHeld, vm.CatGILWait}
	p.printf("\n# Figure 8 — cycle breakdown, HTM-dynamic, 12 threads, zEC12 (%%)\n")
	p.printf("%-8s%14s%14s%14s%14s%14s\n", "bench", cats[0], cats[1], cats[2], cats[3], cats[4])
	for _, b := range npb.Kernels {
		r := p.point(kernel("fig8", fmt.Sprintf("fig8 breakdown %s", b), htm.ZEC12(), dyn, b, class, 12))
		p.cell(func(w io.Writer) error {
			var sum int64
			for _, cat := range cats {
				sum += r.stats.Cycles[cat]
			}
			total := float64(max(sum, 1))
			fmt.Fprintf(w, "%-8s", b)
			for _, cat := range cats {
				fmt.Fprintf(w, "%14.1f", 100*float64(r.stats.Cycles[cat])/total)
			}
			_, err := fmt.Fprintln(w)
			return err
		})
	}
}

// buildFig9 enumerates Figure 9: scalability of HTM-dynamic (zEC12), the
// JRuby-style fine-grained-locking runtime, and the Ideal runtime (the
// Java NPB stand-in), each normalized to its own 1-thread run.
func (s *Session) buildFig9(p *plan) {
	class := classFor(s.Quick)
	prof := htm.ZEC12()
	for _, rt := range []Config{
		{Name: "HTM-dynamic/zEC12", Mode: vm.ModeHTM},
		{Name: "FGL (JRuby-like)", Mode: vm.ModeFGL},
		{Name: "Ideal (Java-like)", Mode: vm.ModeIdeal},
	} {
		p.printf("\n# Figure 9 — scalability of %s (1 = own 1-thread)\n", rt.Name)
		at := func(b npb.Bench, th int) *run {
			return p.point(kernel("fig9", fmt.Sprintf("fig9 %s/%s/%d", rt.Name, b, th), prof, rt, b, class, th))
		}
		bases := make([]*run, len(npb.Kernels))
		for i, b := range npb.Kernels {
			bases[i] = at(b, 1)
		}
		p.sweep(sweep{
			xName: "threads", xs: threadsFor(prof, s.Quick), xw: 10,
			cols: benchNames(npb.Kernels), cw: 8,
			point: func(th, c int) *run { return at(npb.Kernels[c], th) },
			cell:  func(r *run, c int) string { return f2(r.over(bases[c])) },
		})
	}
}

// buildMicro enumerates the Section 5.3 micro-benchmark result: While and
// Iterator speedups of the best HTM configuration over the GIL at 12
// threads on zEC12 (the paper reports 11- and 10-fold).
func (s *Session) buildMicro(p *plan) {
	prof := htm.ZEC12()
	class := classFor(s.Quick)
	gil, dyn := Configs()[0], Configs()[4]
	p.printf("\n# Section 5.3 — micro-benchmark throughput over 1-thread GIL on %s\n", prof.Name)
	p.printf("# (Figure 4 workloads run per thread, so throughput = threads * cycle ratio)\n")
	p.printf("%-10s%10s%16s%16s\n", "bench", "threads", "GIL", "HTM-dynamic")
	for _, b := range npb.Micro {
		base := p.point(kernel("micro", fmt.Sprintf("micro baseline %s", b), prof, gil, b, class, 1))
		for _, th := range []int{1, 12} {
			g := p.point(kernel("micro", fmt.Sprintf("micro %s/GIL/%d", b, th), prof, gil, b, class, th))
			h := p.point(kernel("micro", fmt.Sprintf("micro %s/HTM-dynamic/%d", b, th), prof, dyn, b, class, th))
			p.cell(func(w io.Writer) error {
				work := float64(th)
				_, err := fmt.Fprintf(w, "%-10s%10d%16.2f%16.2f\n", b, th,
					work*float64(base.Cycles)/float64(g.Cycles),
					work*float64(base.Cycles)/float64(h.Cycles))
				return err
			})
		}
	}
}

// buildAborts enumerates the Section 5.6 analyses: abort causes and the
// memory regions responsible for conflict aborts.
func (s *Session) buildAborts(p *plan) {
	class := classFor(s.Quick)
	p.printf("\n# Section 5.6 — abort causes and conflict regions, HTM-dynamic, 12 threads, zEC12\n")
	for _, b := range npb.Kernels {
		r := p.point(kernel("aborts", fmt.Sprintf("aborts %s", b), htm.ZEC12(), Configs()[4], b, class, 12))
		p.cell(func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "%-6s causes:%s | conflict regions:%s\n", b,
				sortedCounts(r.AbortCauses, true), sortedCounts(r.ConflictRegions, true))
			return err
		})
	}
}

// buildOverhead enumerates the Section 5.6 single-thread overhead: the
// paper reports HTM-dynamic 18–35% slower than the GIL with one thread.
func (s *Session) buildOverhead(p *plan) {
	class := classFor(s.Quick)
	p.printf("\n# Section 5.6 — single-thread overhead of HTM-dynamic vs GIL (zEC12)\n")
	p.printf("%-8s%14s\n", "bench", "overhead%")
	for _, b := range npb.Kernels {
		g := p.point(kernel("overhead", fmt.Sprintf("overhead %s/GIL", b), htm.ZEC12(), Configs()[0], b, class, 1))
		h := p.point(kernel("overhead", fmt.Sprintf("overhead %s/HTM-dynamic", b), htm.ZEC12(), Configs()[4], b, class, 1))
		p.cell(func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "%-8s%14.1f\n", b,
				100*(float64(h.Cycles)/float64(g.Cycles)-1))
			return err
		})
	}
}

// buildAblation enumerates the Section 4.2/4.4 findings: removing the new
// yield points or the conflict removals destroys the HTM speedup.
func (s *Session) buildAblation(p *plan) {
	class := classFor(s.Quick)
	prof := htm.ZEC12()
	threads := 8
	bench := npb.FT
	base := p.point(kernel("ablation", "ablation baseline", prof, Configs()[0], bench, class, threads))
	p.printf("\n# Ablations — %s, %d threads, zEC12 (speedup over GIL at same threads)\n", bench, threads)
	p.printf("%-38s%14s\n", "configuration", "speedup")
	for _, va := range []struct {
		name  string
		tweak func(*vm.Options)
	}{
		{"HTM-dynamic (all optimizations)", nil},
		{"- extended yield points (§4.2)", func(o *vm.Options) { o.ExtendedYieldPoints = false }},
		{"- thread-local free lists (§4.4)", func(o *vm.Options) { o.ThreadLocalFreeLists = false }},
		{"- globals in TLS (§4.4)", func(o *vm.Options) { o.GlobalVarsToTLS = false }},
		{"- fill-once inline caches (§4.4)", func(o *vm.Options) { o.FillOnceInlineCaches = false }},
		{"- padded thread structs (§4.4)", func(o *vm.Options) { o.PaddedThreadStructs = false }},
		{"- all conflict removals", func(o *vm.Options) {
			o.ThreadLocalFreeLists = false
			o.GlobalVarsToTLS = false
			o.FillOnceInlineCaches = false
			o.PaddedThreadStructs = false
		}},
	} {
		sp := kernel("ablation", fmt.Sprintf("ablation %q", va.name), prof,
			Config{Name: va.name, Mode: vm.ModeHTM}, bench, class, threads)
		sp.kernel.tweak = va.tweak
		r := p.point(sp)
		p.cell(func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "%-38s%14.2f\n", va.name, r.over(base))
			return err
		})
	}
}

// experiments lists every experiment in the order "all" runs them.
func (s *Session) experiments() []struct {
	name  string
	build func(*plan)
} {
	return []struct {
		name  string
		build func(*plan)
	}{
		{"micro", s.buildMicro}, {"fig5", s.buildFig5}, {"fig6a", s.buildFig6a}, {"fig6b", s.buildFig6b},
		{"fig7", s.buildFig7}, {"fig8", s.buildFig8}, {"fig9", s.buildFig9},
		{"aborts", s.buildAborts}, {"overhead", s.buildOverhead}, {"ablation", s.buildAblation},
		{"policy", s.buildPolicy}, {"hybrid", s.buildHybrid}, {"chaos", s.buildChaos},
		{"serving", s.buildServing}, {"resilience", s.buildResilience},
		{"datastore", s.buildDatastore}, {"explore", s.buildExplore},
	}
}

// Experiments returns every experiment name accepted by Run, "all" last.
func Experiments() []string {
	var s Session
	var out []string
	for _, e := range s.experiments() {
		out = append(out, e.name)
	}
	return append(out, "all")
}

// Run executes one experiment by name. "all" enumerates every experiment
// into one plan, so the worker pool spans experiment boundaries and the tail
// of one experiment overlaps the head of the next.
func (s *Session) Run(name string) error {
	p := &plan{s: s}
	known := false
	for _, e := range s.experiments() {
		if name == e.name || name == "all" {
			e.build(p)
			known = true
		}
	}
	if !known {
		return fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(Experiments(), " "))
	}
	return p.flush()
}

package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"htmgil/internal/htm"
	"htmgil/internal/npb"
	"htmgil/internal/vm"
)

// report is everything one run of one workload measured. Metrics holds
// every number by name; the lists in metrics.go say which are printed where.
type report struct {
	Workload         string             `json:"workload"`
	Seed             int64              `json:"seed"`
	Traced           bool               `json:"traced"`
	Correct          bool               `json:"correct"`
	Attempted        int                `json:"attempted"`
	Failed           int                `json:"failed"`
	Iterations       int                `json:"iterations"`
	TracedIterations int                `json:"traced_iterations"`
	Setups           int                `json:"setups"`
	Digest           string             `json:"digest"`
	IterMs           []float64          `json:"iter_ms"` // every timed untraced iteration
	Metrics          map[string]float64 `json:"metrics"`
	Problems         []string           `json:"problems,omitempty"`
	Spans            []Span             `json:"spans,omitempty"`
}

func (r *report) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runOpts are the knobs of one run.
type runOpts struct {
	seed    int64
	seconds float64
	traced  bool
	smoke   bool // shrunken sizes, one iteration, one set-up, short layer batches
}

const (
	setupReps     = 3 // the median needs three
	minIterations = 3
)

// checker holds the reference digest every later iteration must reproduce.
type checker struct {
	r         *report
	reference string
}

func (c *checker) check(what string, it *iteration) {
	c.r.Attempted++ // the digest comparison is one operation
	if c.reference == "" {
		c.reference = it.digest
		c.r.Digest = it.digest
		return
	}
	if it.digest != c.reference {
		c.r.Failed++
		c.r.problem("%s: output+statistics digest %.12s differs from the first iteration's %.12s", what, it.digest, c.reference)
	}
}

// runWorkload measures one workload in this process. An untraced run yields
// the end-to-end metrics and the diagnostics; a traced run yields the
// per-layer metrics (layer drivers, work counts, spans, tracing overhead).
func runWorkload(w *workloadDef, o runOpts) (*report, error) {
	r := &report{Workload: w.Name, Seed: o.seed, Traced: o.traced, Correct: true, Metrics: map[string]float64{}}
	chk := &checker{r: r}

	reps := setupReps
	if o.traced || o.smoke {
		reps = 1 // setup_s is an untraced metric
	}
	var su *setupOut
	var setupS []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		s, err := setUp(w, o.seed, o.smoke)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		chk.check(fmt.Sprintf("warm-up %d", i+1), s.warm)
		su = s
	}
	r.Setups = reps

	if o.traced {
		for _, d := range layerDrivers {
			res := d.run(o.smoke)
			r.Metrics[d.Name] = res.value
			if d.allocs {
				r.Metrics[d.Name+"_allocs"] = res.allocs
			}
		}
	}

	minIters := minIterations
	if o.traced {
		minIters = 2
	}
	if o.smoke {
		minIters = 1
	}
	var (
		host, tracedHost []hostSample
		last             *iteration
		lastTraced       *iteration
		rec              *spanRecorder
	)
	if o.traced {
		rec = newSpanRecorder()
	}
	// Every iteration sits between two runs of the reference kernel; one
	// iteration's "after" is the next one's "before". The collector runs to
	// completion before each kernel, so neither the kernel nor the next
	// iteration starts with a cycle in flight.
	quietRef := func() float64 {
		runtime.GC()
		return referenceMs(o.smoke)
	}
	ref := quietRef()
	timed := func(rec *spanRecorder, traced bool) (*iteration, hostSample, error) {
		it, hs, err := timedIteration(su.pts, rec, traced)
		after := quietRef()
		hs.refMs, ref = (ref+after)/2, after
		return it, hs, err
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(host) < minIters || time.Now().Before(deadline) {
		it, hs, err := timed(nil, false)
		if err != nil {
			return nil, err
		}
		chk.check(fmt.Sprintf("iteration %d", len(host)+1), it)
		host, last = append(host, hs), it
		if !o.traced {
			continue
		}
		// Traced and untraced iterations alternate, so drift in the
		// host's speed falls on both alike.
		it, hs, err = timed(rec, true)
		if err != nil {
			return nil, err
		}
		chk.check(fmt.Sprintf("traced iteration %d", len(tracedHost)+1), it)
		tracedHost, lastTraced = append(tracedHost, hs), it
	}
	r.Iterations, r.TracedIterations = len(host), len(tracedHost)

	c := last.counts()
	r.Attempted += c.attempted * (reps + len(host) + len(tracedHost))
	r.Failed += c.failed * (reps + len(host) + len(tracedHost))
	if c.failed > 0 {
		r.problem("%d of %d operations failed in every iteration", c.failed, c.attempted)
	}

	// med is the median over iterations of one column of the samples.
	med := func(hs []hostSample, f func(hostSample) float64) float64 {
		xs := make([]float64, len(hs))
		for i, h := range hs {
			xs[i] = f(h)
		}
		return median(xs)
	}
	refs := func(h hostSample) float64 { return h.wallMs / h.refMs }
	for _, h := range host {
		r.IterMs = append(r.IterMs, h.wallMs)
	}
	iterMs, iterRefs := median(r.IterMs), med(host, refs)
	m := r.Metrics
	m["refs_per_gcycle"] = iterRefs / (float64(c.totalCycles) / 1e9)
	m["alloc_mb_per_iter"] = med(host, func(h hostSample) float64 { return h.allocMB })
	m["allocs_per_iter"] = med(host, func(h hostSample) float64 { return h.allocs })
	m["setup_s"] = median(setupS)
	m["bench.iter_refs"] = iterRefs
	m["bench.iter_ms"] = iterMs
	m["bench.ref_ms"] = med(host, func(h hostSample) float64 { return h.refMs })
	m["bench.sim_mcycles_per_s"] = float64(c.totalCycles) / 1e6 / (iterMs / 1e3)
	m["bench.cpu_s"] = med(host, func(h hostSample) float64 { return h.cpuS })
	m["peak_rss_mb"] = peakRSSMB()
	m["sim_cycles"] = float64(c.simCycles)
	m["sim_speedup_vs_gil"] = su.speedupVsGIL(last)
	m["sim_abort_pct"] = pct(float64(c.htmAborts), float64(c.htmBegins))
	m["sim_p99_kcycles"] = float64(nearestRank(c.openSamples, 99)) / 1e3
	m["fail_pct"] = pct(float64(r.Failed), float64(r.Attempted))
	countValues(m, c, iterMs)

	if o.traced {
		paperErr, err := paperError(w, last, o.smoke)
		if err != nil {
			return nil, err
		}
		m["paper_err_pct"] = paperErr
		traceValues(r, rec, lastTraced, iterRefs, med(tracedHost, refs))
	}
	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.problem("metric %s is %v", name, v)
			m[name] = 0
		}
	}
	return r, nil
}

// countValues fills in the group-(B) metrics from one iteration's counts.
func countValues(m map[string]float64, c counts, iterMs float64) {
	total := float64(c.totalCycles)
	m["vm.bytecodes"] = float64(c.bytecodes)
	m["vm.host_ns_per_bytecode"] = 0
	if c.bytecodes > 0 {
		m["vm.host_ns_per_bytecode"] = iterMs * 1e6 / float64(c.bytecodes)
	}
	m["vm.cycles_begin_end_pct"] = pct(float64(c.catCycles[vm.CatBeginEnd]), total)
	m["vm.cycles_tx_success_pct"] = pct(float64(c.catCycles[vm.CatTxSuccess]), total)
	m["vm.cycles_tx_aborted_pct"] = pct(float64(c.catCycles[vm.CatTxAborted]), total)
	m["vm.cycles_gil_held_pct"] = pct(float64(c.catCycles[vm.CatGILHeld]), total)
	m["vm.cycles_gil_wait_pct"] = pct(float64(c.catCycles[vm.CatGILWait]), total)
	m["vm.cycles_io_wait_pct"] = pct(float64(c.catCycles[vm.CatIOWait]), total)
	m["htm.begins"] = float64(c.htmBegins)
	m["htm.commit_ratio"] = pct(float64(c.htmCommits), float64(c.htmBegins)) / 100
	m["htm.abort_capacity_pct"] = pct(float64(c.htmCapacity), float64(c.htmAborts))
	m["htm.abort_conflict_pct"] = pct(float64(c.htmConflict), float64(c.htmAborts))
	m["occ.begins"] = float64(c.occBegins)
	m["occ.commit_ratio"] = pct(float64(c.occCommits), float64(c.occBegins)) / 100
	m["occ.validation_fail_pct"] = pct(float64(c.occValidationFail), float64(c.occValidations))
	m["gil.fallbacks"] = float64(c.gilFallbacks)
	m["gil.acquisitions"] = float64(c.gilStats.Acquisitions)
	m["gil.contended_pct"] = pct(float64(c.gilStats.Contended), float64(c.gilStats.Acquisitions))
	m["gil.shard_fallbacks"] = float64(c.shardFallbacks)
	m["heap.gcs"] = float64(c.gcs)
	m["heap.gc_cycles_pct"] = pct(float64(c.gcCycles), total)
	busy := c.totalCycles - c.catCycles[vm.CatGILWait] - c.catCycles[vm.CatIOWait]
	m["sched.ctx_util_pct"] = pct(float64(busy), float64(c.ctxCycles))
	m["netsim.requests"] = float64(c.requests)
	m["netsim.conns_peak"] = float64(c.connsPeak)
	m["netsim.slo_pct"] = pct(float64(c.sloMet), float64(c.sloJudged))
}

// traceValues fills in group (C): the harness spans and what the program's
// own trace stream says about the traced iterations.
func traceValues(r *report, rec *spanRecorder, it *iteration, iterRefs, tracedIterRefs float64) {
	m := r.Metrics
	r.Spans = rec.spans
	for _, n := range spanNames {
		m["span."+n+"_ms"], m["span."+n+"_share_pct"] = 0, 0
	}
	sums := summarize(rec.spans, r.TracedIterations)
	var iterTotal float64
	for _, s := range sums {
		if s.Name == "bench.iteration" {
			iterTotal = s.TotalMs
		}
	}
	for _, s := range sums {
		m["span."+s.Name+"_ms"] = s.TotalMs
		m["span."+s.Name+"_share_pct"] = pct(s.SelfMs, iterTotal)
	}

	var events, mismatches, bytecodes uint64
	for _, o := range it.outs {
		a, st := o.agg, o.stats
		events += a.Events
		bytecodes += st.Bytecodes
		pairs := [][2]uint64{{a.Fallbacks, st.GILFallbacks}, {a.Adjustments, st.Adjustments}, {a.GCs, st.GCs}}
		if h := st.HTM; h != nil {
			pairs = append(pairs, [2]uint64{a.Begins, h.Begins}, [2]uint64{a.Commits, h.Commits}, [2]uint64{a.Aborts, h.Aborts})
		}
		if oc := st.OCC; oc != nil {
			pairs = append(pairs, [2]uint64{a.OCCBegins, oc.Begins}, [2]uint64{a.OCCCommits, oc.Commits}, [2]uint64{a.OCCAborts, oc.Aborts})
		}
		for _, p := range pairs {
			if p[0] != p[1] {
				mismatches++
			}
		}
	}
	m["trace.events"] = float64(events)
	m["trace.events_per_kbytecode"] = 0
	if bytecodes > 0 {
		m["trace.events_per_kbytecode"] = float64(events) / (float64(bytecodes) / 1e3)
	}
	m["trace.stats_mismatches"] = float64(mismatches)
	if mismatches > 0 {
		r.problem("%d trace aggregator counters differ from the Stats counters", mismatches)
	}
	m["trace.overhead_pct"] = pct(tracedIterRefs-iterRefs, iterRefs)
}

// paperError is npb_htm's accuracy figure: the mean absolute relative error
// of the seven simulated speed-ups over the 1-thread GIL against the
// paper's. No other workload has a reference, so theirs is 0 and the README
// says those models are unvalidated.
func paperError(w *workloadDef, it *iteration, smoke bool) (float64, error) {
	if w.Name != "npb_htm" {
		return 0, nil
	}
	class := npb.ClassS
	if smoke {
		class = npb.ClassTest
	}
	var sum float64
	for i, k := range npb.Kernels {
		base, err := npbPoint(k, htm.ZEC12, vm.ModeGIL, 1, npb.ParamsFor(k, class)).run(vm.ModeGIL, nil, nil)
		if err != nil {
			return 0, fmt.Errorf("1-thread GIL baseline of %s: %w", k, err)
		}
		speedup := float64(base.cycles) / float64(it.outs[i].cycles)
		sum += math.Abs(speedup-paperFig5[i]) / paperFig5[i]
	}
	return 100 * sum / float64(len(npb.Kernels)), nil
}

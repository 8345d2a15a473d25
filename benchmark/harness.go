package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"

	"htmgil/internal/gil"
	"htmgil/internal/simmem"
	"htmgil/internal/trace"
	"htmgil/internal/vm"
)

// iteration is one pass over a workload's points.
type iteration struct {
	outs   []*pointOut
	digest string // SHA-256 over every point's output, cycles, statistics and latency samples
}

// runIteration executes every point once, in order, on this goroutine.
// traced attaches the program's own trace recorder to each VM; rec (nil on
// untraced runs) takes the harness spans.
func runIteration(pts []point, rec *spanRecorder, traced bool) (*iteration, error) {
	it := &iteration{}
	h := sha256.New()
	root := rec.begin("bench.iteration")
	for _, p := range pts {
		var agg *trace.Aggregator
		var tr *trace.Recorder
		if traced {
			agg = trace.NewAggregator()
			tr = trace.NewRecorder(agg)
		}
		s := rec.begin("bench.point")
		out, err := p.run(p.mode, rec, tr)
		rec.end(s)
		if err != nil {
			return nil, fmt.Errorf("point %s: %w", p.name, err)
		}
		out.agg = agg
		it.outs = append(it.outs, out)
		digestPoint(h, p.name, out)
	}
	rec.end(root)
	it.digest = hex.EncodeToString(h.Sum(nil))
	return it, nil
}

// digestPoint writes everything about a point that a host-side change must
// leave untouched. fmt prints maps in key order, so the text is canonical.
func digestPoint(w io.Writer, name string, o *pointOut) {
	fmt.Fprintf(w, "%s cycles=%d requests=%d output=%q\n", name, o.cycles, o.requests, o.output)
	st := *o.stats
	st.HTM, st.OCC = nil, nil
	fmt.Fprintf(w, "%+v\n", st)
	if o.stats.HTM != nil {
		fmt.Fprintf(w, "htm %+v\n", *o.stats.HTM)
	}
	if o.stats.OCC != nil {
		fmt.Fprintf(w, "occ %+v\n", *o.stats.OCC)
	}
	if o.gil != nil {
		fmt.Fprintf(w, "gil %+v\n", *o.gil)
	}
	if g := o.open; g != nil {
		fmt.Fprintf(w, "open %d %d %d %d %d %d %d %v\n", g.Generated, g.Completed, g.Shed, g.GaveUp,
			g.DeadlineExceeded, g.ConnsTotal, g.ConnsPeak, g.Samples)
	}
}

// counts are the exact, virtual-clock totals of one iteration: the sim_*
// metrics and the group-(B) work counts all derive from them.
type counts struct {
	simCycles   int64 // sum of RunResult.Cycles: the makespans
	totalCycles int64 // sum of Stats.TotalCycles(): thread cycles in every category
	catCycles   [vm.NumCats]int64
	ctxCycles   int64 // sum of makespan x hardware threads: what the contexts could have run
	bytecodes   uint64

	htmBegins, htmCommits, htmAborts  uint64
	htmCapacity, htmConflict          uint64
	occBegins, occCommits             uint64
	occValidations, occValidationFail uint64
	gilFallbacks, shardFallbacks      uint64
	gilStats                          gil.Stats
	gcs                               uint64
	gcCycles                          int64
	requests, connsPeak               int
	sloMet, sloJudged                 int
	openSamples                       []int64
	attempted, failed                 int
}

func (it *iteration) counts() counts {
	var c counts
	for _, o := range it.outs {
		st := o.stats
		c.simCycles += o.cycles
		c.totalCycles += st.TotalCycles()
		for i, n := range st.Cycles {
			c.catCycles[i] += n
		}
		c.ctxCycles += o.cycles * int64(o.hwThreads)
		c.bytecodes += st.Bytecodes
		if h := st.HTM; h != nil {
			c.htmBegins += h.Begins
			c.htmCommits += h.Commits
			c.htmAborts += h.Aborts
			c.htmCapacity += h.ByCause[simmem.CauseReadOverflow] + h.ByCause[simmem.CauseWriteOverflow]
			c.htmConflict += h.ByCause[simmem.CauseConflict]
		}
		if oc := st.OCC; oc != nil {
			c.occBegins += oc.Begins
			c.occCommits += oc.Commits
			c.occValidations += oc.Validations
			c.occValidationFail += oc.ValidationFailures
		}
		c.gilFallbacks += st.GILFallbacks
		for _, n := range st.ShardFallbacks {
			c.shardFallbacks += n
		}
		if o.gil != nil {
			c.gilStats.Acquisitions += o.gil.Acquisitions
			c.gilStats.Contended += o.gil.Contended
		}
		c.gcs += st.GCs
		c.gcCycles += st.GCCycles
		c.requests += o.requests
		if g := o.open; g != nil {
			c.requests += g.Generated
			c.connsPeak = max(c.connsPeak, g.ConnsPeak)
			for i, r := range o.routes {
				for _, lat := range g.Samples[i] {
					if lat <= r.SLOCycles {
						c.sloMet++
					}
				}
				c.sloJudged += len(g.Samples[i]) + g.FailedByRoute[i]
				c.openSamples = append(c.openSamples, g.Samples[i]...)
			}
		}
		c.attempted += o.attempted
		c.failed += o.failed
	}
	return c
}

// hostSample is what the host clock saw of one timed iteration.
type hostSample struct {
	wallMs  float64
	refMs   float64 // the reference kernel: mean of its runs right before and right after
	cpuS    float64
	allocMB float64
	allocs  float64
}

// cpuSeconds returns the user+system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// timedIteration runs one iteration with the host clock, CPU clock and
// allocation counters read on either side of it.
func timedIteration(pts []point, rec *spanRecorder, traced bool) (*iteration, hostSample, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	it, err := runIteration(pts, rec, traced)
	wall := time.Since(t0)
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return it, hostSample{
		wallMs:  float64(wall.Nanoseconds()) / 1e6,
		cpuS:    cpu1 - cpu0,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		allocs:  float64(m1.Mallocs - m0.Mallocs),
	}, err
}

// setupOut is a finished set-up: the generated points, the GIL-twin
// makespans of the closed-loop points, and the reference iteration.
type setupOut struct {
	pts        []point
	twinCycles []int64 // per point; 0 for open-loop points
	warm       *iteration
}

// setUp does everything a run does before its first timed iteration: it
// generates the inputs from the seed, runs each closed-loop point's GIL
// twin (same program and threads in ModeGIL) for the virtual speed-up, and
// runs one untimed warm-up iteration so the host's caches and the Go heap
// are in their steady state.
func setUp(w *workloadDef, seed int64, smoke bool) (*setupOut, error) {
	pts, err := w.build(seed, smoke)
	if err != nil {
		return nil, err
	}
	su := &setupOut{pts: pts, twinCycles: make([]int64, len(pts))}
	for i, p := range pts {
		if p.openLoop {
			continue
		}
		out, err := p.run(vm.ModeGIL, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("GIL twin of %s: %w", p.name, err)
		}
		if out.failed != 0 {
			return nil, fmt.Errorf("GIL twin of %s: %d of %d operations failed", p.name, out.failed, out.attempted)
		}
		su.twinCycles[i] = out.cycles
	}
	if su.warm, err = runIteration(pts, nil, false); err != nil {
		return nil, err
	}
	return su, nil
}

// speedupVsGIL is the geometric mean, over the points that have a GIL twin,
// of twin makespan over point makespan.
func (su *setupOut) speedupVsGIL(it *iteration) float64 {
	var ratios []float64
	for i, o := range it.outs {
		if su.twinCycles[i] > 0 {
			ratios = append(ratios, float64(su.twinCycles[i])/float64(o.cycles))
		}
	}
	return geomean(ratios)
}

package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"htmgil/internal/core"
	"htmgil/internal/db"
	"htmgil/internal/fault"
	"htmgil/internal/htm"
	"htmgil/internal/keyspace"
	"htmgil/internal/netsim"
	"htmgil/internal/npb"
	"htmgil/internal/railslite"
	"htmgil/internal/resilience"
	"htmgil/internal/trace"
	"htmgil/internal/vm"
	"htmgil/internal/webrick"
)

// Every experiment is enumerated into a plan before anything executes: each
// configuration point becomes one pointSpec (its run builds its own
// Memory/Engine/VM, so points share nothing), and every piece of table
// output becomes an ordered render op. flush then executes the points — on a
// worker pool when the Session's parallelism allows, sequentially otherwise —
// and merges results strictly in point order, so tables, Reports, and trace
// summaries are byte-identical whatever the worker count.

var errValidation = errors.New("validation failed")

// pointSpec describes one configuration point: where it is reported, the
// machine and interpreter configuration, the instrumentation, and exactly
// one workload.
type pointSpec struct {
	label string // error-wrapping context
	exp   string // Report.Experiment
	prof  *htm.Profile
	cfg   Config

	trace  bool   // attach an aggregator even when the Session does not
	faults string // fault spec text; "" = a clean run
	guard  bool   // elision breaker + degradation watchdog on

	kernel *kernelLoad
	server *serverLoad
	store  *storeLoad
}

// kernelLoad is an NPB kernel or micro-benchmark run.
type kernelLoad struct {
	bench      npb.Bench
	class      npb.Class
	threads    int
	checkValid bool              // fail the point when the numerics do not validate
	tweak      func(*vm.Options) // ablation toggles applied over the Config; nil = none
}

// serverLoad is a WEBrick or Rails run: closed loop with clients and
// requests, or open loop when open is set.
type serverLoad struct {
	app      string // "webrick" or "rails"
	clients  int
	requests int
	zos      bool // z/OS malloc shadowing (webrick on zEC12)
	open     *openLoad
}

// openLoad is the open-loop shape of a server run.
type openLoad struct {
	gen     netsim.OpenLoadGen // traffic template (seed, arrivals, routes, sessions, ...); copied per run
	workers int
	res     *resilience.Config // server-side protections; nil = none
	// recoverFrom, when > 0, judges recovery at the request level: the
	// cycles from recoverFrom until SLO attainment stays above threshold
	// (resilience.RecoveryTracker) replace the breaker-based measure.
	recoverFrom int64
}

// storeLoad is a keyspace workload (YCSB/TPC-C) against the datastore.
type storeLoad struct {
	wcfg   keyspace.Config // Threads included
	shards int
}

// kernel is the spec of an NPB point under a named configuration.
func kernel(exp, label string, prof *htm.Profile, cfg Config, b npb.Bench, c npb.Class, threads int) pointSpec {
	return pointSpec{label: label, exp: exp, prof: prof, cfg: cfg,
		kernel: &kernelLoad{bench: b, class: c, threads: threads}}
}

// server is the spec of a closed-loop server point.
func server(exp, label string, prof *htm.Profile, cfg Config, app string, clients, requests int, zos bool) pointSpec {
	return pointSpec{label: label, exp: exp, prof: prof, cfg: cfg,
		server: &serverLoad{app: app, clients: clients, requests: requests, zos: zos}}
}

// run is what survives a point: the Report it contributes plus a copy of the
// run's statistics for the tables that read more than the Report keeps. It
// holds values only — nothing that reaches the VM, the engine or the
// network, so finished points cost kilobytes, not a simulated machine each.
// It is valid once the plan has flushed.
type run struct {
	Report
	stats vm.Stats
	// Kernel points: the numeric result and whether it validated.
	checksum string
	valid    bool
}

// over is the normalised cell of the throughput tables: r's throughput as a
// multiple of base's. Kernel points serve no requests, so theirs is the
// inverse ratio of cycles.
func (r *run) over(base *run) float64 {
	if base.Throughput > 0 {
		return r.Throughput / base.Throughput
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// point is one independently executable unit of a plan.
type point struct {
	label string // error-wrapping context; empty = propagate bare
	exec  func() error
	run   *run // nil for raw points, which contribute no Report
	err   error
}

// plan accumulates points and render ops for one or more experiments.
type plan struct {
	s   *Session
	pts []*point
	ops []func(w io.Writer) error
}

// parallelism returns the worker count for executing points: Session.Parallel
// when positive, else runtime.GOMAXPROCS(0).
func (s *Session) parallelism() int {
	if s.Parallel > 0 {
		return s.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// printf appends a static piece of table output. Arguments are formatted at
// flush time but must not depend on point results; use cell for those.
func (p *plan) printf(format string, args ...any) {
	p.ops = append(p.ops, func(w io.Writer) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	})
}

// cell appends a render op that may read run records.
func (p *plan) cell(fn func(w io.Writer) error) {
	p.ops = append(p.ops, fn)
}

// point enumerates one configuration point and returns its record.
func (p *plan) point(sp pointSpec) *run {
	r := &run{}
	s := p.s
	p.pts = append(p.pts, &point{label: sp.label, run: r, exec: func() error { return s.execPoint(sp, r) }})
	return r
}

// raw enumerates a self-contained point (no Report) that renders its whole
// output into a buffer; the buffer is replayed at its place in the op order.
func (p *plan) raw(label string, fn func(w io.Writer) error) {
	var buf bytes.Buffer
	pt := &point{label: label, exec: func() error { return fn(&buf) }}
	p.pts = append(p.pts, pt)
	p.cell(func(w io.Writer) error {
		_, err := w.Write(buf.Bytes())
		return err
	})
}

// execPoint runs the simulation a spec describes and fills its record. It is
// the only place the experiments build a machine.
func (s *Session) execPoint(sp pointSpec, r *run) error {
	var spec *fault.Spec
	if sp.faults != "" {
		var err error
		if spec, err = fault.ParseSpec(sp.faults); err != nil {
			return err
		}
	}
	// The aggregator and recorder stay nil without tracing, keeping the
	// instrumented runtime on its nil-check fast path.
	var agg *trace.Aggregator
	var rec *trace.Recorder
	if sp.trace || s.TraceSummary {
		agg = trace.NewAggregator()
		rec = trace.NewRecorder(agg)
	}
	opt := vm.DefaultOptions(sp.prof, sp.cfg.Mode)
	opt.Policy = sp.cfg.Policy
	opt.Trace = rec
	opt.Faults = spec
	opt.Breaker, opt.Watchdog = sp.guard, sp.guard

	var (
		workload         string
		threads, clients int
		cycles           int64
		tp               float64
		st               *vm.Stats
		srv              *webrick.Result
		tracker          *resilience.RecoveryTracker
	)
	switch {
	case sp.kernel != nil:
		k := sp.kernel
		if k.tweak != nil {
			k.tweak(&opt)
		}
		res, err := npb.Run(k.bench, opt, k.threads, npb.ParamsFor(k.bench, k.class))
		if err != nil {
			return err
		}
		if k.checkValid && !res.Valid {
			return errValidation
		}
		workload, threads, cycles, st = string(k.bench), k.threads, res.Cycles, res.Stats
		r.checksum, r.valid = res.Checksum, res.Valid

	case sp.server != nil:
		sv := sp.server
		wc := webrick.Config{Prof: sp.prof, Mode: sp.cfg.Mode, Policy: sp.cfg.Policy,
			Clients: sv.clients, Requests: sv.requests, ZOSMalloc: sv.zos,
			Trace: rec, Faults: spec, Breaker: sp.guard, Watchdog: sp.guard}
		if sv.app == "rails" {
			wc.App = railslite.App(false)
		}
		clients = sv.clients
		if o := sv.open; o != nil {
			gen := o.gen
			if o.recoverFrom > 0 {
				tracker = &resilience.RecoveryTracker{}
				gen.OnOutcome = func(_, route int, arrival, done int64, outcome string) {
					ok := outcome == netsim.OutcomeCompleted &&
						done-arrival <= gen.Routes[route].SLOCycles
					tracker.Observe(done, ok)
				}
			}
			wc.Workers, wc.Open, wc.Resilience = o.workers, &gen, o.res
			threads, clients = o.workers, gen.Sessions
		}
		var err error
		if srv, err = webrick.Run(wc); err != nil {
			return err
		}
		workload, cycles, tp, st = sv.app, srv.Cycles, srv.Throughput, srv.Stats

	case sp.store != nil:
		wcfg := sp.store.wcfg
		drv, err := keyspace.NewDriver(wcfg)
		if err != nil {
			return err
		}
		opt.Shards = sp.store.shards
		machine := vm.New(opt)
		db.Install(machine)
		drv.Install(machine)
		iseq, err := machine.CompileSource(drv.Program(), "datastore-"+wcfg.Workload)
		if err != nil {
			return err
		}
		res, err := machine.Run(iseq)
		if err != nil {
			return err
		}
		workload, threads, cycles, st = "ycsb-"+wcfg.Workload, wcfg.Threads, res.Cycles, res.Stats
		// Committed operations per virtual second.
		tp = float64(wcfg.Threads) * float64(wcfg.Ops) * float64(vm.CyclesPerSecond) / float64(res.Cycles)
	}

	r.stats = *st
	rep := newReport(sp.exp, sp.prof.Name, workload, sp.cfg.Name, threads, clients, cycles, tp, st, agg, s.topN())
	if spec != nil {
		// Fault provenance: the canonical spec text and the effective
		// fault-stream seed (the spec's own override, else the run seed)
		// reproduce the run.
		rep.FaultSpec = spec.String()
		if rep.Seed = spec.Seed; rep.Seed == 0 {
			rep.Seed = opt.Seed
		}
		rep.RecoverCycles = timeToRecover(st, spec)
	}
	if srv != nil && srv.Open != nil {
		g := srv.Open
		lat, routes := servingDigest(g)
		rep.Cores = sp.prof.Cores
		rep.Workers = threads
		rep.Sessions = g.Sessions
		rep.RatePerSec = g.Arrivals.RatePerSec
		rep.Arrivals = g.Generated
		rep.ConnsTotal = g.ConnsTotal
		rep.ConnsPeak = g.ConnsPeak
		rep.Shed = g.Shed
		rep.GaveUp = g.GaveUp
		rep.DeadlineExceeded = g.DeadlineExceeded
		rep.Latency = &lat
		rep.RouteLatency = routes
		if tracker != nil {
			at := tracker.RecoverAt(sp.server.open.recoverFrom)
			rep.RecoverCycles = &at
		}
		if srv.Res != nil && srv.Res.Brownout != nil {
			rep.BrownoutTransitions = srv.Res.Brownout.Transitions
		}
	}
	if sp.store != nil {
		rep.Shards = sp.store.shards
		rep.ShardFallbacks = sumU64(st.ShardFallbacks)
		rep.CrossShardLeaks = st.CrossShardLeaks
	}
	r.Report = rep
	return nil
}

// timeToRecover measures graceful degradation: the cycles between the
// spec's fault horizon clearing (until=) and the breaker's final settle
// into the closed state. nil when the profile has no bounded horizon (there
// is nothing to recover from); -1 when the breaker tripped and never closed
// again within the run; 0 when it never tripped at all.
func timeToRecover(st *vm.Stats, spec *fault.Spec) *int64 {
	if spec.Until <= 0 {
		return nil
	}
	var v int64
	if n := len(st.BreakerTransitions); n > 0 {
		v = -1
		if last := st.BreakerTransitions[n-1]; last.State == core.BreakerClosed.String() {
			if v = last.T - spec.Until; v < 0 {
				v = 0
			}
		}
	}
	return &v
}

func sumU64(xs []uint64) uint64 {
	var t uint64
	for _, x := range xs {
		t += x
	}
	return t
}

// flush executes every enumerated point and then merges in point order:
// Reports first, then the render ops against the Session writer. Whatever
// the worker count, the merged output is identical; on a point error the
// Reports of the points preceding it (in point order) are kept, matching the
// sequential harness, and rendering is skipped.
func (p *plan) flush() error {
	s := p.s
	workers := s.parallelism()
	if workers > len(p.pts) {
		workers = len(p.pts)
	}
	if workers <= 1 {
		for _, pt := range p.pts {
			if pt.err = pt.exec(); pt.err != nil {
				break
			}
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(p.pts) {
						return
					}
					pt := p.pts[i]
					pt.err = pt.exec()
				}
			}()
		}
		wg.Wait()
	}
	for _, pt := range p.pts {
		if pt.err != nil {
			if pt.label != "" {
				return fmt.Errorf("%s: %w", pt.label, pt.err)
			}
			return pt.err
		}
		if pt.run != nil {
			s.Reports = append(s.Reports, pt.run.Report)
		}
	}
	if s.W == nil {
		return nil
	}
	for _, op := range p.ops {
		if err := op(s.W); err != nil {
			return err
		}
	}
	return nil
}

// sweep is the table most experiments print: a header of column names, then
// one row per x with one cell per column. The caller prints the title and
// enumerates any baseline point first (point order is Report order).
type sweep struct {
	xName  string
	xs     []int
	cols   []string
	xw, cw int                          // widths of the x column and of each value column
	point  func(x, col int) *run        // the run behind a cell, enumerating its point
	cell   func(r *run, col int) string // the cell text, read after the flush
	// An optional last column with no point of its own, computed from the
	// row's runs.
	tail     string
	tailCell func(row []*run) string
}

// sweep enumerates and renders sw, returning the records row by row so the
// caller can print attribution for one of them.
func (p *plan) sweep(sw sweep) [][]*run {
	p.printf("%-*s", sw.xw, sw.xName)
	for _, name := range sw.cols {
		p.printf("%*s", sw.cw, name)
	}
	if sw.tailCell != nil {
		p.printf("%*s", sw.cw, sw.tail)
	}
	p.printf("\n")
	rows := make([][]*run, 0, len(sw.xs))
	for _, x := range sw.xs {
		p.printf("%-*d", sw.xw, x)
		row := make([]*run, len(sw.cols))
		for c := range sw.cols {
			r := sw.point(x, c)
			row[c] = r
			p.cell(func(w io.Writer) error {
				_, err := fmt.Fprintf(w, "%*s", sw.cw, sw.cell(r, c))
				return err
			})
		}
		if sw.tailCell != nil {
			p.cell(func(w io.Writer) error {
				_, err := fmt.Fprintf(w, "%*s", sw.cw, sw.tailCell(row))
				return err
			})
		}
		p.printf("\n")
		rows = append(rows, row)
	}
	return rows
}

// f1 and f2 format a cell value with one and two decimals.
func f1(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }
func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// sortedCounts renders a counter map in key order as " key=value" items:
// raw counts, or with percent set each key's share of the map's total (and
// nothing at all when the total is zero).
func sortedCounts(m map[string]uint64, percent bool) string {
	keys := make([]string, 0, len(m))
	var total uint64
	for k, n := range m {
		keys = append(keys, k)
		total += n
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		switch {
		case !percent:
			fmt.Fprintf(&b, " %s=%d", k, m[k])
		case total > 0:
			fmt.Fprintf(&b, " %s=%.0f%%", k, 100*float64(m[k])/float64(total))
		}
	}
	return b.String()
}

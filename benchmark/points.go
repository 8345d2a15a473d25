package main

import (
	"fmt"
	"strconv"
	"strings"

	"htmgil/internal/db"
	"htmgil/internal/gil"
	"htmgil/internal/htm"
	"htmgil/internal/keyspace"
	"htmgil/internal/netsim"
	"htmgil/internal/npb"
	"htmgil/internal/railslite"
	"htmgil/internal/rbregexp"
	"htmgil/internal/trace"
	"htmgil/internal/vm"
	"htmgil/internal/webrick"
)

// pointOut is what one executed point hands back for validation, the
// iteration digest and the group-(B) work counts.
type pointOut struct {
	cycles    int64 // RunResult.Cycles: the virtual makespan
	output    string
	stats     *vm.Stats
	gil       *gil.Stats // root lock; nil where the harness does not own the VM (railslite.Run)
	hwThreads int
	open      *netsim.OpenLoadGen // finished generator of an open-loop point
	routes    []netsim.OpenRoute
	requests  int               // completed closed-loop HTTP requests
	agg       *trace.Aggregator // the program's own trace, traced runs only
	attempted int               // operations: NPB kernels, HTTP requests, keyspace ops
	failed    int
}

// point is one simulator run of a workload: build VM, install natives,
// compile, run, validate. A sweep pays all of that on every point, so the
// harness times all of it.
type point struct {
	name     string
	mode     vm.Mode // the mode the workload measures
	openLoop bool    // open-loop points have no GIL twin
	// run executes the point in mode (the point's own, or ModeGIL for the
	// twin). rec takes the harness spans and tr is attached to the VM; both
	// are nil on untraced runs.
	run func(mode vm.Mode, rec *spanRecorder, tr *trace.Recorder) (*pointOut, error)
}

// compileAndRun is the shared middle of every point the harness assembles
// itself.
func compileAndRun(machine *vm.VM, src, name string, rec *spanRecorder) (*vm.RunResult, error) {
	s := rec.begin("compile.source")
	iseq, err := machine.CompileSource(src, name)
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", name, err)
	}
	s = rec.begin("vm.run")
	res, err := machine.Run(iseq)
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: run: %w", name, err)
	}
	return res, nil
}

// npbPoint runs one NPB kernel or micro program; in ModeHTM the default
// options select the paper's dynamic transaction-length adjustment.
func npbPoint(b npb.Bench, prof func() *htm.Profile, own vm.Mode, threads int, p npb.Params) point {
	src := npb.Source(b, threads, p)
	marker := fmt.Sprintf("RESULT %s valid=true", b)
	return point{name: fmt.Sprintf("npb/%s/t%d", b, threads), mode: own, run: func(mode vm.Mode, rec *spanRecorder, tr *trace.Recorder) (*pointOut, error) {
		pr := prof()
		opt := vm.DefaultOptions(pr, mode)
		opt.Trace = tr
		s := rec.begin("vm.new")
		machine := vm.New(opt)
		rec.end(s)
		res, err := compileAndRun(machine, src, string(b), rec)
		if err != nil {
			return nil, err
		}
		s = rec.begin("bench.validate")
		out := &pointOut{cycles: res.Cycles, output: res.Output, stats: res.Stats,
			gil: &machine.GIL.Stats, hwThreads: pr.HWThreads(), attempted: 1}
		if !strings.Contains(res.Output, marker) {
			out.failed = 1
		}
		rec.end(s)
		return out, nil
	}}
}

// serveOpts shapes one HTTP-serving point.
type serveOpts struct {
	name      string
	prof      func() *htm.Profile
	zosMalloc bool // z/OS malloc model: the paper's WEBrick-on-zEC12 conflict source
	workers   int  // > 0: bounded worker pool instead of thread-per-request
	clients   int  // closed loop: concurrent clients
	requests  int  // closed loop: total requests
	open      func() *netsim.OpenLoadGen
	routes    []netsim.OpenRoute
}

// checkHTTP turns a finished generator into operation counts: every request
// that did not complete fails, and a run that left requests unresolved fails
// the lot.
func (o *pointOut) checkHTTP(closedTarget int) {
	if g := o.open; g != nil {
		o.attempted = g.Generated
		o.failed = g.Generated - g.Completed
		if g.Resolved() != g.Generated || g.Generated == 0 {
			o.attempted, o.failed = max(g.Generated, 1), max(g.Generated, 1)
		}
		return
	}
	o.attempted = closedTarget
	o.failed = max(closedTarget-o.requests, 0)
}

// webrickPoint serves HTTP with the WEBrick program. The harness assembles
// the machine itself (webrick.Run would hide the layer boundaries); the
// network and regexp natives are installed inside the vm.new span.
func webrickPoint(so serveOpts) point {
	src := webrick.ServerSource
	if so.workers > 0 {
		src = webrick.PoolSource(so.workers)
	}
	return point{name: so.name, mode: vm.ModeHTM, openLoop: so.open != nil, run: func(mode vm.Mode, rec *spanRecorder, tr *trace.Recorder) (*pointOut, error) {
		pr := so.prof()
		opt := vm.DefaultOptions(pr, mode)
		opt.Trace = tr
		if so.zosMalloc {
			opt.ThreadLocalArenas = false
		}
		s := rec.begin("vm.new")
		machine := vm.New(opt)
		net := netsim.NewNetwork(machine.Engine)
		net.Tracer = tr
		netsim.Install(machine, net)
		rbregexp.Install(machine)
		rbregexp.InstallStringMethods(machine)
		rec.end(s)

		out := &pointOut{gil: &machine.GIL.Stats, hwThreads: pr.HWThreads(), routes: so.routes}
		var closed *netsim.LoadGen
		if so.open != nil {
			g := so.open()
			g.Net, g.Eng, g.Port, g.OnDone = net, machine.Engine, 80, machine.Engine.Stop
			g.Start()
			out.open = g
		} else {
			closed = &netsim.LoadGen{Net: net, Eng: machine.Engine, Port: 80, Request: webrick.Request,
				ThinkTime: 10_000, Target: so.requests, OnDone: machine.Engine.Stop}
			closed.Start(so.clients)
		}
		res, err := compileAndRun(machine, src, "webrick", rec)
		if err != nil {
			return nil, err
		}
		s = rec.begin("bench.validate")
		out.cycles, out.output, out.stats = res.Cycles, res.Output, res.Stats
		if closed != nil {
			out.requests = closed.Completed
		}
		out.checkHTTP(so.requests)
		rec.end(s)
		return out, nil
	}}
}

// railsPoint serves HTTP with the Rails-like application, open loop. The
// application source is not exported, so the point calls railslite.Run whole
// and records one span for it; its root-GIL counters are out of reach.
func railsPoint(so serveOpts) point {
	return point{name: so.name, mode: vm.ModeHTM, openLoop: true, run: func(mode vm.Mode, rec *spanRecorder, tr *trace.Recorder) (*pointOut, error) {
		pr := so.prof()
		g := so.open()
		s := rec.begin("railslite.run")
		r, err := railslite.Run(railslite.Config{Prof: pr, Mode: mode, Workers: so.workers, Open: g, Trace: tr})
		rec.end(s)
		if err != nil {
			return nil, err
		}
		s = rec.begin("bench.validate")
		out := &pointOut{cycles: r.Cycles, stats: r.Stats, hwThreads: pr.HWThreads(), open: g, routes: so.routes}
		out.checkHTTP(0)
		rec.end(s)
		return out, nil
	}}
}

// checksumBounds walks the generated op stream and returns the interval the
// driver's folded checksum must fall in. Scans fold their row counts
// (exact). Point reads fold the value they observe, which is 0 for a row
// nobody updated and at most 999 otherwise; which of the two depends on the
// schedule, so workloads that mix reads and updates get an interval and
// read-only or scan-only ones an exact value.
func checksumBounds(cfg keyspace.Config) (lo, hi int64, err error) {
	drv, err := keyspace.NewDriver(cfg)
	if err != nil {
		return 0, 0, err
	}
	var reads, updates int64
	for tid := 0; tid < cfg.Threads; tid++ {
		for i := 0; i < cfg.Ops; i++ {
			switch op := drv.At(tid, i); op.Kind {
			case keyspace.OpRead:
				reads++
			case keyspace.OpUpdate:
				updates++
			case keyspace.OpScan:
				lo += op.K2 - op.K1
			case keyspace.OpRMW:
				reads++
				updates++
			case keyspace.OpNewOrder:
				reads += 1 + int64(op.N)
				updates += 1 + int64(op.N)
			}
		}
	}
	hi = lo
	if updates > 0 {
		hi += 999 * reads
	}
	return lo, hi, nil
}

// keyspacePoint runs one YCSB/TPC-C mix over a keyspace table. The driver
// is rebuilt per point (Install binds it to one VM), which is what a sweep
// does too; the expected checksum interval comes from set-up.
func keyspacePoint(cfg keyspace.Config, policy string, shards int) (point, error) {
	lo, hi, err := checksumBounds(cfg)
	if err != nil {
		return point{}, err
	}
	name := fmt.Sprintf("keyspace/%s/t%d", cfg.Workload, cfg.Threads)
	return point{name: name, mode: vm.ModeHTM, run: func(mode vm.Mode, rec *spanRecorder, tr *trace.Recorder) (*pointOut, error) {
		s := rec.begin("keyspace.generate")
		drv, err := keyspace.NewDriver(cfg)
		if err != nil {
			return nil, err
		}
		src := drv.Program()
		rec.end(s)

		pr := htm.DatastoreNode()
		opt := vm.DefaultOptions(pr, mode)
		opt.Trace = tr
		if mode == vm.ModeHTM {
			opt.Policy, opt.Shards = policy, shards
		}
		s = rec.begin("vm.new")
		machine := vm.New(opt)
		rec.end(s)
		s = rec.begin("db.install")
		db.Install(machine)
		drv.Install(machine)
		rec.end(s)
		res, err := compileAndRun(machine, src, name, rec)
		if err != nil {
			return nil, err
		}
		s = rec.begin("bench.validate")
		out := &pointOut{cycles: res.Cycles, output: res.Output, stats: res.Stats,
			gil: &machine.GIL.Stats, hwThreads: pr.HWThreads(), attempted: cfg.Threads * cfg.Ops}
		sum, perr := strconv.ParseInt(strings.TrimSpace(res.Output), 10, 64)
		if perr != nil || sum < lo || sum > hi {
			out.failed = out.attempted
		}
		rec.end(s)
		return out, nil
	}}, nil
}

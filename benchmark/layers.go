package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"htmgil/internal/compile"
	"htmgil/internal/core"
	"htmgil/internal/db"
	"htmgil/internal/explore"
	"htmgil/internal/gil"
	"htmgil/internal/heap"
	"htmgil/internal/htm"
	"htmgil/internal/keyspace"
	"htmgil/internal/lang"
	"htmgil/internal/netsim"
	"htmgil/internal/npb"
	"htmgil/internal/object"
	"htmgil/internal/occ"
	"htmgil/internal/policy"
	"htmgil/internal/rbregexp"
	"htmgil/internal/sched"
	"htmgil/internal/simmem"
	"htmgil/internal/trace"
	"htmgil/internal/vm"
	"htmgil/internal/webrick"
)

// Group (A): one driver per layer boundary. Each runs a fixed count of
// operations against the layer's exported functions only, five batches, and
// reports the median batch. They do not depend on the workload or the seed:
// they say what one operation of a layer costs on this host, so that a
// change in a workload's iter_ms can be traced to the layer that moved.

const layerBatches = 5

// layerResult is a driver's median batch, per operation.
type layerResult struct {
	value  float64 // in the metric's unit
	allocs float64 // Go heap objects per operation
}

type layerDriver struct {
	metricDef
	allocs bool // also report <name>_allocs
	run    func(smoke bool) layerResult
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink any

// batches times body (which performs n operations per call, after untimed
// preparation by prep) and returns the median nanoseconds and heap objects
// per operation. smoke runs one batch of a tenth the size.
func batches(smoke bool, n int, prep func(n int) (body func())) layerResult {
	reps := layerBatches
	if smoke {
		reps, n = 1, max(n/10, 1)
	}
	var ns, allocs []float64
	for i := 0; i < reps; i++ {
		body := prep(n)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		body()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return layerResult{value: median(ns), allocs: median(allocs)}
}

// nsPerOp declares a driver reporting nanoseconds per operation.
func nsPerOp(name, why string, n int, prep func(n int) func()) layerDriver {
	return layerDriver{
		metricDef: metricDef{Name: name, Unit: "ns", Better: "lower", Clock: "host", Why: why},
		run:       func(smoke bool) layerResult { return batches(smoke, n, prep) },
	}
}

// per divides a driver's results by k: one timed operation covers k units
// of the metric.
func (d layerDriver) per(k float64) layerDriver {
	run := d.run
	d.run = func(smoke bool) layerResult {
		r := run(smoke)
		r.value /= k
		r.allocs /= k
		return r
	}
	return d
}

// withAllocs also reports <name>_allocs.
func (d layerDriver) withAllocs() layerDriver {
	d.allocs = true
	return d
}

// msPerOp declares a driver reporting milliseconds per operation.
func msPerOp(name, why string, n int, prep func(n int) func()) layerDriver {
	d := nsPerOp(name, why, n, prep).per(1e6)
	d.Unit = "ms"
	return d
}

// benchSources are the programs the front-end drivers chew on: the NPB
// kernels and micro programs, both WEBrick servers, and two keyspace driver
// programs. (The Rails application source is not exported.)
func benchSources() []string {
	var srcs []string
	for _, b := range append(append([]npb.Bench{}, npb.Kernels...), npb.Micro...) {
		srcs = append(srcs, npb.Source(b, 12, npb.ParamsFor(b, npb.ClassS)))
	}
	srcs = append(srcs, webrick.ServerSource, webrick.PoolSource(16))
	for _, wl := range []string{"A", "tpcc"} {
		drv, err := keyspace.NewDriver(keyspace.Config{Workload: wl, Keys: 1000, Threads: 16, Ops: 10, Seed: 1})
		if err != nil {
			panic(err)
		}
		srcs = append(srcs, drv.Program())
	}
	return srcs
}

// perKB declares a front-end driver: ns per KiB of source over benchSources.
func perKB(name, why string, each func(src string) error) layerDriver {
	d := nsPerOp(name, why, 1, nil)
	d.Unit = "ns/KB"
	d.run = func(smoke bool) layerResult {
		srcs := benchSources()
		var bytes int
		for _, s := range srcs {
			bytes += len(s)
		}
		r := batches(smoke, 1, func(int) func() {
			return func() {
				for _, s := range srcs {
					if err := each(s); err != nil {
						panic(fmt.Sprintf("%s: %v", name, err))
					}
				}
			}
		})
		r.value /= float64(bytes) / 1024
		return r
	}
	return d
}

// interpLoop declares a driver that runs a single-threaded GIL-mode
// program and reports host ns per interpreted bytecode. Only Run is timed.
func interpLoop(name, why, src string) layerDriver {
	d := nsPerOp(name, why, 1, nil)
	d.run = func(smoke bool) layerResult {
		var bytecodes uint64
		r := batches(smoke, 1, func(int) func() {
			machine := vm.New(vm.DefaultOptions(htm.ZEC12(), vm.ModeGIL))
			iseq, err := machine.CompileSource(src, name)
			if err != nil {
				panic(fmt.Sprintf("%s: %v", name, err))
			}
			return func() {
				res, err := machine.Run(iseq)
				if err != nil {
					panic(fmt.Sprintf("%s: %v", name, err))
				}
				bytecodes = res.Stats.Bytecodes
			}
		})
		r.value /= float64(bytecodes)
		return r
	}
	return d
}

const (
	dispatchProgram = `x = 0
i = 1
while i <= 150000
  x += i
  i += 1
end
puts x
`
	floatProgram = `x = 0.0
i = 0
while i < 60000
  x = x + 1.5 * 2.0
  i += 1
end
puts x
`
	sendProgram = `def inc(a)
  a + 1
end
x = 0
i = 0
while i < 40000
  x = inc(x)
  i += 1
end
(1..40000).each do |j|
  x += j
end
puts x
`
	acceptProgram = `server = TCPServer.new(80)
while true
  s = server.accept
  req = s.read_request
  s.write("ok")
  s.close
end
`
)

// newMem is the memory the simmem, heap and occ drivers run over: 256-byte
// lines (zEC12's), two contexts, and a data region of the given size.
func newMem(dataBytes int) (*simmem.Memory, simmem.Addr) {
	m := simmem.NewMemory(simmem.Config{LineBytes: 256}, 2)
	return m, m.Reserve("data", dataBytes)
}

// newHeap is a default-sized interpreter heap and a class to allocate.
func newHeap() (*simmem.Memory, *heap.Heap, *object.RClass) {
	m, _ := newMem(8)
	return m, heap.New(m, heap.DefaultConfig()), &object.RClass{Name: "Float"}
}

// newHTMContext is one zEC12 hardware context that no timer interrupts.
func newHTMContext() *htm.Context {
	prof := htm.ZEC12()
	prof.InterruptMeanCycles = 0
	return htm.NewContext(prof, simmem.NewMemory(simmem.Config{LineBytes: prof.LineBytes}, 2), 0, 1)
}

// newOCCTx is one software-transaction context over a 64 KB data region.
func newOCCTx() (*occ.Tx, simmem.Addr) {
	m, base := newMem(1 << 16)
	return occ.NewRuntime(m).NewTx(0), base
}

// machineRig is the TLE stack below the interpreter: memory, scheduler,
// GIL, elision engine and one hardware context, wired as the VM wires them.
type machineRig struct {
	prof *htm.Profile
	mem  *simmem.Memory
	eng  *sched.Engine
	gil  *gil.GIL
	el   *core.Elision
	live int
	data simmem.Addr
}

func newRig(policyName string, live int) *machineRig {
	prof := htm.ZEC12()
	prof.InterruptMeanCycles = 0 // no timer interrupts: every abort below is the driver's own
	r := &machineRig{prof: prof, live: live}
	r.mem = simmem.NewMemory(simmem.Config{LineBytes: prof.LineBytes}, prof.HWThreads())
	r.eng = sched.NewEngine(sched.Config{HWThreads: prof.HWThreads(), SMTWays: prof.SMTWays, SMTPenalty: 1.9})
	r.gil = gil.New(r.mem, r.eng, gil.DefaultCosts())
	pol, err := policy.New(policyName, prof)
	if err != nil {
		panic(err)
	}
	r.el = core.NewWithPolicy(pol, r.gil, r.eng)
	if policy.UsesOCCTier(pol) {
		r.el.OCCRT = occ.NewRuntime(r.mem)
	}
	r.el.LiveAppThreads = func() int { return r.live }
	r.data = r.mem.Reserve("data", 1<<16)
	return r
}

// sections runs n critical sections on one scheduler thread through the
// protocol the interpreter follows; inTx is called inside each section and
// may doom the transaction.
func (r *machineRig) sections(n int, inTx func(hctx *htm.Context)) func() {
	hctx := htm.NewContext(r.prof, r.mem, 0, 1)
	tle := r.el.NewThread(hctx)
	var sth *sched.Thread
	done := 0
	sth = r.eng.Spawn("driver", 0, func(now int64) sched.StepResult {
		cycles, out := r.el.TransactionBegin(tle, sth, now, 1)
		if out != core.Proceed {
			panic("layer driver: a lone thread blocked at TransactionBegin")
		}
		if inTx != nil && !tle.GILMode && !tle.OCCMode {
			inTx(hctx)
			if hctx.Doomed(now) {
				c, out := r.el.HandleAbort(tle, sth, now+cycles)
				if out != core.Proceed {
					panic("layer driver: a lone thread blocked in HandleAbort")
				}
				cycles += c
			}
		}
		c, ok := r.el.TransactionEnd(tle, sth, now+cycles)
		if !ok {
			panic("layer driver: TransactionEnd failed with no conflicting thread")
		}
		done++
		if done == n {
			return sched.StepResult{Cycles: cycles + c, Status: sched.Done}
		}
		return sched.StepResult{Cycles: cycles + c, Status: sched.Running}
	})
	return func() {
		if err := r.eng.Run(); err != nil {
			panic(err)
		}
	}
}

// spinThreads spawns threads that each run steps equal-cost steps, so every
// step forces a scheduling decision among all runnable threads.
func spinThreads(e *sched.Engine, threads, steps int) {
	for i := 0; i < threads; i++ {
		left, cost := steps, int64(97+i)
		e.Spawn("t", 0, func(now int64) sched.StepResult {
			left--
			if left <= 0 {
				return sched.StepResult{Cycles: cost, Status: sched.Done}
			}
			return sched.StepResult{Cycles: cost, Status: sched.Running}
		})
	}
}

func policyDecide(name, policyName string) layerDriver {
	return nsPerOp(name, policyName+" OnBegin + OnCommit", 500_000, func(n int) func() {
		r := newRig(policyName, 2)
		ts := r.el.Policy.NewThread()
		return func() {
			for i := 0; i < n; i++ {
				r.el.Policy.OnBegin(r.el, ts, i&63, 2)
				r.el.Policy.OnCommit(r.el, ts, i&63)
			}
		}
	})
}

func schedStep(name string, threads, ctxs int) layerDriver {
	return nsPerOp(name, fmt.Sprintf("one Engine step with %d runnable threads on %d hardware contexts", threads, ctxs),
		200_000, func(n int) func() {
			e := sched.NewEngine(sched.Config{HWThreads: ctxs})
			spinThreads(e, threads, n/threads+1)
			return func() {
				if err := e.Run(); err != nil {
					panic(err)
				}
			}
		}).withAllocs()
}

// dbRig is a datastore-node VM with a keyspace and a regular table, driven
// from the host through Store.Exec on the set-up thread.
type dbRig struct {
	store *db.Store
	th    *vm.RThread
}

func newDBRig() *dbRig {
	machine := vm.New(vm.DefaultOptions(htm.DatastoreNode(), vm.ModeGIL))
	r := &dbRig{store: db.NewStore(), th: machine.SetupThread()}
	r.exec("CREATE KEYSPACE usertable ROWS 100000")
	r.exec("CREATE TABLE books (id, title, author)")
	return r
}

func (r *dbRig) exec(q string) int {
	rows, _, err := r.store.Exec(r.th, q)
	if err != nil {
		panic(fmt.Sprintf("db driver: %q: %v", q, err))
	}
	return len(rows)
}

func dbStatement(name, why string, n int, stmt func(i int) string) layerDriver {
	return nsPerOp(name, why, n, func(n int) func() {
		r := newDBRig()
		return func() {
			for i := 0; i < n; i++ {
				r.exec(stmt(i))
			}
		}
	}).withAllocs()
}

var layerDrivers = []layerDriver{
	perKB("lang.parse_ns_per_kb", "lex and parse the benchmark's mini-Ruby sources",
		func(src string) error { _, err := lang.Parse(src); return err }),
	perKB("compile.source_ns_per_kb", "lex, parse and compile the same sources to bytecode",
		func(src string) error {
			_, err := compile.New(object.NewSymTable(), &compile.YPAlloc{}).CompileSource(src, "bench")
			return err
		}),

	msPerOp("vm.new_ms", "construct one VM with the default options (a sweep pays this on every point)", 1, func(int) func() {
		return func() { sink = vm.New(vm.DefaultOptions(htm.ZEC12(), vm.ModeHTM)) }
	}),
	{
		metricDef: metricDef{Name: "vm.new_alloc_mb", Unit: "MB", Better: "lower", Clock: "host", Why: "Go heap bytes one vm.New allocates"},
		run: func(bool) layerResult {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			sink = vm.New(vm.DefaultOptions(htm.ZEC12(), vm.ModeHTM))
			runtime.ReadMemStats(&m1)
			return layerResult{value: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)}
		},
	},
	interpLoop("vm.dispatch_ns_per_bytecode", "Fixnum while loop, no allocation, 1 thread under the GIL", dispatchProgram),
	interpLoop("vm.float_loop_ns_per_bytecode", "the same loop over boxed floats: every iteration allocates", floatProgram),
	interpLoop("vm.send_ns_per_bytecode", "method and block calls", sendProgram),

	nsPerOp("heap.alloc_object_ns", "AllocObject through the direct accessor", 50_000, func(n int) func() {
		mem, h, cls := newHeap()
		return func() {
			for i := 0; i < n; i++ {
				if _, err := h.AllocObject(mem, heap.ThreadSlots{}, object.TFloat, cls); err != nil {
					panic(err)
				}
			}
		}
	}),
	nsPerOp("heap.alloc_object_tx_ns", "AllocObject inside a simmem.Tx, 64 per transaction", 32_000, func(n int) func() {
		mem, h, cls := newHeap()
		tx := mem.Tx(0)
		return func() {
			for i := 0; i < n; i += 64 {
				tx.Begin(1<<20, 1<<20)
				for j := 0; j < 64; j++ {
					if _, err := h.AllocObject(tx, heap.ThreadSlots{}, object.TFloat, cls); err != nil {
						panic(err)
					}
				}
				if !tx.Commit() {
					panic("heap driver: commit failed")
				}
			}
		}
	}),
	nsPerOp("heap.alloc_arena_ns", "AllocArena + FreeArena of an 8-word buffer", 100_000, func(n int) func() {
		mem, h, _ := newHeap()
		return func() {
			for i := 0; i < n; i++ {
				a, err := h.AllocArena(mem, heap.ThreadSlots{}, 8)
				if err != nil {
					panic(err)
				}
				h.FreeArena(mem, heap.ThreadSlots{}, a, 8)
			}
		}
	}),
	msPerOp("heap.collect_ms", "mark-and-sweep of a 200k-slot heap with 100k objects, half of them rooted", 1, func(int) func() {
		mem, h, cls := newHeap()
		var rooted []*object.RObject
		for i := 0; i < 100_000; i++ {
			o, err := h.AllocObject(mem, heap.ThreadSlots{}, object.TFloat, cls)
			if err != nil {
				panic(err)
			}
			if i%2 == 0 {
				rooted = append(rooted, o)
			}
		}
		roots := func(mark func(*object.RObject)) {
			for _, o := range rooted {
				mark(o)
			}
		}
		return func() { h.Collect(roots, func(*object.RObject, func(*object.RObject)) {}) }
	}),

	nsPerOp("simmem.tx_load_same_line_ns", "Tx.Load cycling over one line (the last-line cache's case)", 1_000_000, func(n int) func() {
		m, base := newMem(1 << 16)
		tx := m.Tx(0)
		tx.Begin(1<<20, 1<<20)
		return func() {
			for i := 0; i < n; i++ {
				tx.Load(base + simmem.Addr(i&31)*8)
			}
		}
	}),
	nsPerOp("simmem.tx_load_stride_ns", "Tx.Load striding over 4096 lines (the paged table's case)", 1_000_000, func(n int) func() {
		m, base := newMem(1 << 20)
		tx := m.Tx(0)
		tx.Begin(1<<20, 1<<20)
		lines := (1 << 20) / 256
		return func() {
			for i := 0; i < n; i++ {
				tx.Load(base + simmem.Addr(i%lines)*256)
			}
		}
	}),
	nsPerOp("simmem.tx_store_commit_ns", "Begin, 16 Tx.Store, Commit", 60_000, func(n int) func() {
		m, base := newMem(1 << 16)
		tx := m.Tx(0)
		return func() {
			for i := 0; i < n; i++ {
				tx.Begin(1<<20, 1<<20)
				for j := 0; j < 16; j++ {
					tx.Store(base+simmem.Addr(j)*8, simmem.Word{Bits: uint64(i)})
				}
				if !tx.Commit() {
					panic("simmem driver: commit failed")
				}
			}
		}
	}).withAllocs(),
	nsPerOp("simmem.tx_store_rollback_ns", "Begin, 16 Tx.Store, Rollback", 60_000, func(n int) func() {
		m, base := newMem(1 << 16)
		tx := m.Tx(0)
		return func() {
			for i := 0; i < n; i++ {
				tx.Begin(1<<20, 1<<20)
				for j := 0; j < 16; j++ {
					tx.Store(base+simmem.Addr(j)*8, simmem.Word{Bits: uint64(i)})
				}
				tx.Rollback()
			}
		}
	}),
	nsPerOp("simmem.direct_load_store_ns", "non-transactional Store + Load of one word", 1_000_000, func(n int) func() {
		m, base := newMem(1 << 18)
		words := (1 << 18) / 8
		return func() {
			for i := 0; i < n; i++ {
				a := base + simmem.Addr(i%words)*8
				m.Store(a, simmem.Word{Bits: uint64(i)})
				m.Load(a)
			}
		}
	}),
	nsPerOp("simmem.region_label_ns", "RegionLabel over 64 regions", 1_000_000, func(n int) func() {
		m := simmem.NewMemory(simmem.Config{LineBytes: 64}, 1)
		var addrs []simmem.Addr
		for i := 0; i < 64; i++ {
			addrs = append(addrs, m.Reserve("r", 4096)+128)
		}
		return func() {
			for i := 0; i < n; i++ {
				m.RegionLabel(addrs[i&63])
			}
		}
	}),

	nsPerOp("htm.begin_end_ns", "Context.Begin + End of an empty transaction", 300_000, func(n int) func() {
		c := newHTMContext()
		return func() {
			for i := 0; i < n; i++ {
				now := int64(i) * 100
				c.Begin(now)
				if _, ok := c.End(now + 50); !ok {
					panic("htm driver: End failed")
				}
			}
		}
	}),
	nsPerOp("htm.begin_abort_ns", "Context.Begin, explicit abort, Abort", 300_000, func(n int) func() {
		c := newHTMContext()
		return func() {
			for i := 0; i < n; i++ {
				c.Begin(int64(i) * 100)
				c.ExplicitAbort()
				c.Abort()
			}
		}
	}),

	nsPerOp("occ.load_ns", "software-transaction Load, 64 distinct words per transaction", 640_000, func(n int) func() {
		tx, base := newOCCTx()
		return func() {
			for i := 0; i < n; i += 64 {
				tx.Begin()
				for j := 0; j < 64; j++ {
					tx.Load(base + simmem.Addr(j)*8)
				}
				tx.Rollback()
			}
		}
	}),
	nsPerOp("occ.commit_ro_ns", "Begin, 64 loads, Commit (read-only validation)", 10_000, func(n int) func() {
		tx, base := newOCCTx()
		return func() {
			for i := 0; i < n; i++ {
				tx.Begin()
				for j := 0; j < 64; j++ {
					tx.Load(base + simmem.Addr(j)*8)
				}
				if _, ok := tx.Commit(); !ok {
					panic("occ driver: read-only commit failed")
				}
			}
		}
	}),
	nsPerOp("occ.commit_rw_ns", "Begin, 8 stores, Commit (publish)", 100_000, func(n int) func() {
		tx, base := newOCCTx()
		return func() {
			for i := 0; i < n; i++ {
				tx.Begin()
				for j := 0; j < 8; j++ {
					tx.Store(base+simmem.Addr(j)*256, simmem.Word{Bits: uint64(i)})
				}
				if _, ok := tx.Commit(); !ok {
					panic("occ driver: publishing commit failed")
				}
			}
		}
	}),
	nsPerOp("occ.rollback_ns", "Begin, 8 loads, 8 stores, Rollback", 50_000, func(n int) func() {
		tx, base := newOCCTx()
		return func() {
			for i := 0; i < n; i++ {
				tx.Begin()
				for j := 0; j < 8; j++ {
					a := base + simmem.Addr(j)*256
					tx.Load(a)
					tx.Store(a, simmem.Word{Bits: uint64(i)})
				}
				tx.Rollback()
			}
		}
	}),

	nsPerOp("core.begin_end_htm_ns", "TransactionBegin + one store + TransactionEnd, elided (paper-dynamic, scheduler step included)", 100_000, func(n int) func() {
		r := newRig("paper-dynamic", 2)
		return r.sections(n, func(hctx *htm.Context) {
			hctx.Tx.Store(r.data, simmem.Word{Bits: 1})
		})
	}),
	nsPerOp("core.begin_end_gil_ns", "TransactionBegin + TransactionEnd with a single live thread: the GIL path", 100_000, func(n int) func() {
		return newRig("paper-dynamic", 1).sections(n, nil)
	}),
	nsPerOp("core.abort_retry_ns", "a section doomed once by a conflicting store: abort, policy, retry, commit", 100_000, func(n int) func() {
		r := newRig("paper-dynamic", 2)
		return r.sections(n, func(hctx *htm.Context) {
			hctx.Tx.Load(r.data)
			r.mem.Store(r.data, simmem.Word{Bits: 2}) // a non-transactional writer dooms the reader
		})
	}),
	policyDecide("policy.decide_ns", "paper-dynamic"),
	policyDecide("policy.decide_occ_ns", "occ-adaptive"),

	nsPerOp("gil.acquire_release_ns", "uncontended TryAcquire + Release of the root GIL", 500_000, func(n int) func() {
		r := newRig("paper-dynamic", 1)
		th := r.eng.Spawn("holder", 0, nil)
		return func() {
			for i := 0; i < n; i++ {
				now := int64(i) * 1000
				if _, ok := r.gil.TryAcquire(th, now); !ok {
					panic("gil driver: TryAcquire failed")
				}
				r.gil.Release(th, now+500)
			}
		}
	}),
	nsPerOp("gil.handoff_ns", "two scheduler threads passing the GIL: Release hands it to the blocked waiter", 100_000, func(n int) func() {
		r := newRig("paper-dynamic", 2)
		passes := 0
		for i := 0; i < 2; i++ {
			var me *sched.Thread
			me = r.eng.Spawn("t", 0, func(now int64) sched.StepResult {
				if !r.gil.HeldBy(me) {
					if _, ok := r.gil.BlockingAcquire(me, now); !ok {
						return sched.StepResult{Cycles: 1, Status: sched.Blocked}
					}
				}
				passes++
				r.gil.Release(me, now+10)
				if passes >= n {
					return sched.StepResult{Cycles: 10, Status: sched.Done}
				}
				return sched.StepResult{Cycles: 10, Status: sched.Running}
			})
		}
		return func() {
			if err := r.eng.Run(); err != nil {
				panic(err)
			}
		}
	}),
	nsPerOp("gil.shard_acquire_release_ns", "uncontended AcquireShard + ReleaseShard, 8 shards", 500_000, func(n int) func() {
		r := newRig("paper-dynamic", 1)
		s := gil.NewSharded(r.gil, 8)
		th := r.eng.Spawn("holder", 0, nil)
		return func() {
			for i := 0; i < n; i++ {
				now := int64(i) * 1000
				if _, ok := s.AcquireShard(th, i&7, now); !ok {
					panic("gil driver: AcquireShard failed")
				}
				s.ReleaseShard(th, i&7, now+500)
			}
		}
	}),
	nsPerOp("gil.root_drain_ns", "AcquireRoot + ReleaseRoot over 8 idle shards (the drain check)", 500_000, func(n int) func() {
		r := newRig("paper-dynamic", 1)
		s := gil.NewSharded(r.gil, 8)
		th := r.eng.Spawn("holder", 0, nil)
		return func() {
			for i := 0; i < n; i++ {
				now := int64(i) * 1000
				if _, ok := s.AcquireRoot(th, now); !ok {
					panic("gil driver: AcquireRoot failed")
				}
				s.ReleaseRoot(th, now+500)
			}
		}
	}),

	schedStep("sched.step_ns_t4_c4", 4, 4),
	schedStep("sched.step_ns_t256_c8", 256, 8),
	schedStep("sched.step_ns_t1024_c128", 1024, 128),
	nsPerOp("sched.block_wake_ns", "park a thread, fire a timed event, wake it", 200_000, func(n int) func() {
		e := sched.NewEngine(sched.Config{HWThreads: 2})
		left := n
		var waiter *sched.Thread
		waiter = e.Spawn("w", 0, func(now int64) sched.StepResult {
			if left <= 0 {
				return sched.StepResult{Cycles: 1, Status: sched.Done}
			}
			e.At(now+10, func(at int64) { e.Wake(waiter, at) })
			return sched.StepResult{Cycles: 1, Status: sched.Blocked}
		})
		e.Spawn("driver", 0, func(now int64) sched.StepResult {
			left--
			if left <= 0 {
				return sched.StepResult{Cycles: 1, Status: sched.Done}
			}
			return sched.StepResult{Cycles: 1, Status: sched.Running}
		})
		return func() {
			if err := e.Run(); err != nil {
				panic(err)
			}
		}
	}),
	nsPerOp("sched.spawn_done_ns", "spawn a thread that finishes in one step (thread-per-request churn)", 200_000, func(n int) func() {
		e := sched.NewEngine(sched.Config{HWThreads: 8})
		left := n
		e.Spawn("spawner", 0, func(now int64) sched.StepResult {
			e.Spawn("child", now, func(int64) sched.StepResult {
				return sched.StepResult{Cycles: 50, Status: sched.Done}
			})
			left--
			if left <= 0 {
				return sched.StepResult{Cycles: 10, Status: sched.Done}
			}
			return sched.StepResult{Cycles: 10, Status: sched.Running}
		})
		return func() {
			if err := e.Run(); err != nil {
				panic(err)
			}
		}
	}),

	nsPerOp("netsim.connect_send_accept_ns", "one request through connect, send, accept, read_request, write, close (minimal GIL-mode server, 1 client)", 3_000, func(n int) func() {
		machine := vm.New(vm.DefaultOptions(htm.ZEC12(), vm.ModeGIL))
		net := netsim.NewNetwork(machine.Engine)
		netsim.Install(machine, net)
		iseq, err := machine.CompileSource(acceptProgram, "accept")
		if err != nil {
			panic(err)
		}
		gen := &netsim.LoadGen{Net: net, Eng: machine.Engine, Port: 80, Request: webrick.Request,
			ThinkTime: 10_000, Target: n, OnDone: machine.Engine.Stop}
		gen.Start(1)
		return func() {
			if _, err := machine.Run(iseq); err != nil {
				panic(err)
			}
			if gen.Completed < n {
				panic("netsim driver: requests left incomplete")
			}
		}
	}),
	nsPerOp("netsim.arrival_next_ns", "next Poisson arrival time", 1_000_000, func(n int) func() {
		s := netsim.NewArrivalStream(netsim.ArrivalOpts{Kind: netsim.ArrivalPoisson, Seed: 1, RatePerSec: 1e6, Horizon: 1 << 60})
		return func() {
			for i := 0; i < n; i++ {
				if _, ok := s.Next(); !ok {
					panic("netsim driver: arrival stream ended")
				}
			}
		}
	}),
	nsPerOp("netsim.zipf_pick_ns", "Zipf route pick over 16 routes", 300_000, func(n int) func() {
		z := netsim.NewZipfPicker(1, 16, 0)
		return func() {
			for i := 0; i < n; i++ {
				z.Pick()
			}
		}
	}),

	dbStatement("db.point_select_ns", "keyspace point SELECT through Store.Exec", 10_000, func(i int) string {
		return fmt.Sprintf("SELECT * FROM usertable WHERE key = %d", (i*7919)%100000)
	}),
	dbStatement("db.point_update_ns", "keyspace point UPDATE through Store.Exec", 10_000, func(i int) string {
		return fmt.Sprintf("UPDATE usertable SET val = %d WHERE key = %d", i%1000, (i*7919)%100000)
	}),
	dbStatement("db.range_scan_ns_per_row", "keyspace range SELECT of 256 rows, per row", 150, func(i int) string {
		lo := (i * 7919) % 99000
		return fmt.Sprintf("SELECT * FROM usertable WHERE key >= %d AND key < %d", lo, lo+256)
	}).per(256),
	dbStatement("db.insert_ns", "INSERT into a regular (shadow-row) table", 3_000, func(i int) string {
		return fmt.Sprintf("INSERT INTO books VALUES (%d, 'Title %d', 'Author')", i, i)
	}),

	nsPerOp("rbregexp.match_ns", "the WEBrick request-line pattern against the benchmark's request", 15_000, func(n int) func() {
		re := rbregexp.MustCompile("^(GET|POST) ([^ ]+) HTTP/([0-9.]+)")
		return func() {
			for i := 0; i < n; i++ {
				if !re.Match(webrick.Request).Matched() {
					panic("rbregexp driver: no match")
				}
			}
		}
	}).withAllocs(),

	msPerOp("keyspace.program_gen_ms", "NewDriver over 200k keys (the Zipf table) + Program", 1, func(int) func() {
		return func() {
			drv, err := keyspace.NewDriver(keyspace.Config{Workload: "A", Keys: 200_000, Threads: 16, Ops: 400, Seed: 1})
			if err != nil {
				panic(err)
			}
			sink = drv.Program()
		}
	}),
	nsPerOp("keyspace.zipf_sample_ns", "one op of the generated stream (Zipf rank, scramble, mix)", 100_000, func(n int) func() {
		drv, err := keyspace.NewDriver(keyspace.Config{Workload: "A", Keys: 200_000, Threads: 16, Ops: n, Seed: 1})
		if err != nil {
			panic(err)
		}
		return func() {
			for i := 0; i < n; i++ {
				sink = drv.At(i&15, i)
			}
		}
	}),

	nsPerOp("trace.emit_disabled_ns", "the nil-recorder check every instrumented site takes when tracing is off", 5_000_000, func(n int) func() {
		var r *trace.Recorder
		return func() {
			for i := 0; i < n; i++ {
				if r.Enabled() {
					r.Emit(trace.Ev(int64(i), trace.KindTxBegin))
				}
			}
		}
	}),
	nsPerOp("trace.emit_aggregator_ns", "Emit into the aggregating sink", 300_000, func(n int) func() {
		r := trace.NewRecorder(trace.NewAggregator())
		return func() {
			for i := 0; i < n; i++ {
				ev := trace.Ev(int64(i), trace.KindTxBegin)
				ev.Ctx = i & 7
				r.Emit(ev)
			}
		}
	}),
	nsPerOp("trace.emit_jsonl_ns", "Emit into the JSON-lines sink (to io.Discard)", 60_000, func(n int) func() {
		r := trace.NewRecorder(trace.NewJSONL(io.Discard))
		return func() {
			for i := 0; i < n; i++ {
				ev := trace.Ev(int64(i), trace.KindTxBegin)
				ev.Ctx = i & 7
				r.Emit(ev)
			}
		}
	}),

	{
		metricDef: metricDef{Name: "explore.schedules_per_s", Unit: "1/s", Better: "higher", Clock: "host",
			Why: "schedules the explorer enumerates per second on the counter program at preemption bound 1"},
		run: func(bool) layerResult {
			t0 := time.Now()
			res, err := explore.Run(explore.Config{Program: explore.CounterProgram(), Bound: 1})
			if err != nil {
				panic(err)
			}
			return layerResult{value: float64(res.Schedules()) / time.Since(t0).Seconds()}
		},
	},
}

// Package gil implements the Giant VM Lock of CRuby 1.9 on top of the
// simulated machine: a single global lock with FIFO handoff, a timer thread
// that periodically flags the running application thread so it yields at
// the next yield point, and a spin/wait facility used by the transactional
// lock elision of the paper (threads that merely wait for the GIL to become
// free without acquiring it).
//
// The lock state is mirrored into one word of simulated memory so that
// hardware transactions can subscribe to it: every transaction reads the
// GIL word into its read set at begin time, and the non-transactional store
// performed by an acquisition dooms all of them — exactly the Transactional
// Lock Elision protocol of the paper.
package gil

import (
	"htmgil/internal/choice"
	"htmgil/internal/sched"
	"htmgil/internal/simmem"
	"htmgil/internal/trace"
)

// Costs holds the cycle costs of GIL operations.
type Costs struct {
	Acquire    int64 // uncontended acquisition
	Release    int64 // release with no waiter
	Handoff    int64 // extra latency to transfer ownership to a waiter
	SchedYield int64 // sched_yield() system call at a GIL yield point
}

// DefaultCosts returns the cost model used by the experiments.
func DefaultCosts() Costs {
	return Costs{Acquire: 180, Release: 120, Handoff: 400, SchedYield: 800}
}

// Stats counts GIL activity.
type Stats struct {
	Acquisitions uint64
	Contended    uint64
	Yields       uint64
	HoldCycles   int64
}

// GIL is the Giant VM Lock.
type GIL struct {
	mem    *simmem.Memory
	engine *sched.Engine
	costs  Costs

	// Addr is the simulated address of the GIL.acquired word. Transactions
	// read it at begin; acquisitions store to it non-transactionally.
	Addr simmem.Addr

	owner      *sched.Thread
	ownedSince int64
	waiters    []*sched.Thread // blocked until they own the GIL (FIFO)
	spinners   []*sched.Thread // blocked until the GIL is merely released

	// InterruptFlag is set on the owner by the timer thread; the owner
	// checks it at yield points. It stands in for CRuby's per-thread
	// interrupt flag.
	interruptFlagged map[*sched.Thread]bool

	Stats Stats

	// Tracer, when non-nil, receives gil-acquire/gil-release events.
	Tracer *trace.Recorder

	// TimerJitter, when non-nil, perturbs each timer period: it receives
	// the current virtual time and the nominal interval and returns the
	// interval actually used. Installed by the fault-injection harness.
	TimerJitter func(now, interval int64) int64

	// HazardTrack, when set (by the TLE runtime when a lazy-subscription
	// policy is active), opens a simmem hazard window for the duration of
	// every GIL hold: lines the holder writes non-transactionally doom
	// transactions that touch them, standing in for the begin-time
	// subscription those transactions skipped.
	HazardTrack bool

	// Chooser, when non-nil, picks which waiter receives the GIL on
	// release instead of strict FIFO order. Installed by internal/explore;
	// index 0 is the FIFO head, so a zero chooser changes nothing.
	Chooser choice.Chooser

	// ShardID attributes this lock's trace events to a keyspace shard in
	// sharded-GIL mode. It is 1-based like trace.Event.Shard: 0 (the
	// default) marks the root/global GIL, s+1 marks shard s.
	ShardID int
}

// New creates a GIL whose state word lives in its own line of mem.
func New(mem *simmem.Memory, engine *sched.Engine, costs Costs) *GIL {
	return newLock(mem, engine, costs, "gil")
}

// newLock creates one lock whose state word lives in its own line of mem,
// reserved under label.
func newLock(mem *simmem.Memory, engine *sched.Engine, costs Costs, label string) *GIL {
	return &GIL{
		mem:              mem,
		engine:           engine,
		costs:            costs,
		Addr:             mem.Reserve(label, simmem.WordBytes),
		interruptFlagged: make(map[*sched.Thread]bool),
	}
}

// Retire ends the lock's life once its machine has run: only the counters,
// the address and the shard id survive. Callers keep &g.Stats long after the
// run, and through that interior pointer the lock would keep the simulated
// memory, the engine and every thread reachable.
func (g *GIL) Retire() { *g = GIL{Stats: g.Stats, Addr: g.Addr, ShardID: g.ShardID} }

// Acquired reports whether some thread currently holds the GIL. This is the
// plain (non-transactional) read used on fallback paths; transactional code
// must read g.Addr through its transaction instead.
func (g *GIL) Acquired() bool { return g.owner != nil }

// Owner returns the current holder, or nil.
func (g *GIL) Owner() *sched.Thread { return g.owner }

// HeldBy reports whether th holds the GIL.
func (g *GIL) HeldBy(th *sched.Thread) bool { return g.owner == th }

// TryAcquire acquires the GIL if it is free and returns (cycles, true), or
// (cycles, false) if it is held. It never blocks.
func (g *GIL) TryAcquire(th *sched.Thread, now int64) (int64, bool) {
	if g.owner != nil {
		return 0, false
	}
	g.take(th, now)
	return g.costs.Acquire, true
}

// take installs th as owner and publishes the state to simulated memory,
// dooming every transaction that subscribed to the GIL word.
func (g *GIL) take(th *sched.Thread, now int64) {
	g.owner = th
	g.ownedSince = now
	g.Stats.Acquisitions++
	g.mem.Store(g.Addr, simmem.Word{Bits: 1})
	if g.HazardTrack {
		g.mem.StartHazard()
	}
	if g.Tracer != nil {
		ev := trace.Ev(now, trace.KindGILAcquire)
		ev.Thread = th.ID
		ev.Shard = g.ShardID
		g.Tracer.Emit(ev)
	}
}

// BlockingAcquire acquires the GIL, enqueueing th as a waiter when it is
// held. It returns (cycles, true) on immediate acquisition; (0, false)
// means the thread must return sched.Blocked and will be woken owning the
// GIL (ownership handoff happens in Release).
func (g *GIL) BlockingAcquire(th *sched.Thread, now int64) (int64, bool) {
	if cycles, ok := g.TryAcquire(th, now); ok {
		return cycles, true
	}
	g.Stats.Contended++
	g.waiters = append(g.waiters, th)
	return 0, false
}

// WaitFree registers th to be woken when the GIL is next released, without
// acquiring it. The caller must return sched.Blocked. This implements the
// spin-wait of the paper's spin_and_gil_acquire().
func (g *GIL) WaitFree(th *sched.Thread) {
	g.spinners = append(g.spinners, th)
}

// Release releases the GIL held by th at time now. If waiters are queued,
// ownership is handed to the first (it wakes already owning the lock); all
// spinners wake too.
func (g *GIL) Release(th *sched.Thread, now int64) int64 {
	if g.owner != th {
		panic("gil: release by non-owner")
	}
	g.Stats.HoldCycles += now - g.ownedSince
	if g.Tracer != nil {
		ev := trace.Ev(now, trace.KindGILRelease)
		ev.Thread = th.ID
		ev.Cycles = now - g.ownedSince
		ev.Shard = g.ShardID
		g.Tracer.Emit(ev)
	}
	g.owner = nil
	g.mem.Store(g.Addr, simmem.Word{Bits: 0})
	if g.HazardTrack {
		g.mem.EndHazard()
	}
	cost := g.costs.Release

	// Wake spinners: the lock is (momentarily) free. MutDropWakeup is the
	// explorer-validation mutation: it silently loses the wakeups, leaving
	// the spinners parked forever (a lost-wakeup bug the schedule explorer
	// must detect as a deadlock).
	if !MutDropWakeup {
		for _, sp := range g.spinners {
			g.engine.Wake(sp, now+cost)
		}
	}
	g.spinners = g.spinners[:0]

	if len(g.waiters) > 0 {
		idx := 0
		if g.Chooser != nil && len(g.waiters) > 1 {
			idx = g.Chooser.Choose(choice.Handoff, len(g.waiters))
		}
		next := g.waiters[idx]
		g.waiters = append(g.waiters[:idx], g.waiters[idx+1:]...)
		g.take(next, now+cost+g.costs.Handoff)
		g.engine.Wake(next, now+cost+g.costs.Handoff)
	}
	return cost
}

// WaiterCount returns the number of threads blocked waiting to own the GIL.
// The explorer uses it to offer voluntary-yield choice points only when
// there is somebody to yield to.
func (g *GIL) WaiterCount() int { return len(g.waiters) }

// YieldCost returns the cost of a full GIL yield (release + sched_yield +
// re-acquire), used by the GIL-mode interpreter at flagged yield points.
func (g *GIL) YieldCost() int64 {
	return g.costs.Release + g.costs.SchedYield + g.costs.Acquire
}

// Costs returns the cycle cost model.
func (g *GIL) CostModel() Costs { return g.costs }

// FlagInterrupt sets the timer-interrupt flag on th.
func (g *GIL) FlagInterrupt(th *sched.Thread) { g.interruptFlagged[th] = true }

// ConsumeInterrupt reports and clears th's timer-interrupt flag.
func (g *GIL) ConsumeInterrupt(th *sched.Thread) bool {
	if g.interruptFlagged[th] {
		delete(g.interruptFlagged, th)
		return true
	}
	return false
}

// ThreadExited drops any interrupt flag still pending for a dead thread. A
// thread that exits between being flagged by the timer and reaching its next
// yield point would otherwise leave its entry in the map forever — on a long
// server run that is one leaked entry per flagged-then-finished request
// thread.
func (g *GIL) ThreadExited(th *sched.Thread) {
	delete(g.interruptFlagged, th)
}

// FlaggedCount returns the number of threads with a pending interrupt flag
// (test hook for the bookkeeping above).
func (g *GIL) FlaggedCount() int { return len(g.interruptFlagged) }

// StartTimer installs the CRuby timer thread: every interval cycles it
// flags the current GIL owner (if any), which will then yield the GIL at
// its next yield point. It keeps rescheduling itself until the engine
// stops; `while` gates rescheduling so benchmarks can end the timer.
func (g *GIL) StartTimer(interval int64, while func() bool) {
	var tick func(now int64)
	next := func(now int64) int64 {
		if g.TimerJitter == nil {
			return interval
		}
		return g.TimerJitter(now, interval)
	}
	tick = func(now int64) {
		if g.owner != nil {
			g.FlagInterrupt(g.owner)
		}
		if while == nil || while() {
			g.engine.At(now+next(now), tick)
		}
	}
	g.engine.At(next(0), tick)
}

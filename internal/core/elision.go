// Package core implements the paper's primary contribution: elimination of
// the Global Interpreter Lock through Transactional Lock Elision.
//
// core owns the *mechanics* of elision on the simulated machine — issuing
// TBEGIN, subscribing transactions to the GIL word, parking and resuming
// threads at the blocking points of Figure 1, acquiring the fallback lock,
// and emitting the tx lifecycle trace events. Every *decision* (elide or
// take the GIL, at what transaction length, and how to react to an abort)
// is delegated to an internal/policy.Policy. The paper's Figure 1-3
// algorithm is policy.PaperDynamic; see internal/policy for the full family
// of strategies.
//
// Because the simulator schedules threads cooperatively, the blocking
// points of Figure 1 (spinning on the GIL, acquiring the GIL, backing off
// after an abort) are expressed as a small per-thread state machine:
// TransactionBegin/HandleAbort return Block when the thread must park, and
// ResumeBegin continues the algorithm after the scheduler wakes the thread.
// There is one such machine for hardware elision, the software-transaction
// tier and the fallback locks (root or shard); DESIGN.md §3 tabulates it.
package core

import (
	"fmt"
	"math/bits"

	"htmgil/internal/gil"
	"htmgil/internal/htm"
	"htmgil/internal/occ"
	"htmgil/internal/policy"
	"htmgil/internal/sched"
	"htmgil/internal/simmem"
	"htmgil/internal/trace"
)

// Outcome tells the interpreter how to continue after a TLE step.
type Outcome uint8

const (
	// Proceed: the thread is inside a transaction or holds the GIL and may
	// execute Ruby code.
	Proceed Outcome = iota
	// Block: the thread must park (return sched.Blocked) and call
	// ResumeBegin when woken.
	Block
)

// beginState is the continuation point of the Figure 1 state machine.
type beginState uint8

const (
	stIdle        beginState = iota
	stWaitPreTx              // parked at lines 6-8, waiting for GIL release
	stWaitRetry              // parked after an abort (lock spin or backoff); re-begins in the same tier
	stWaitAcquire            // parked acquiring Thread.lock; a handoff wake owns it
)

// tierKinds names each speculative tier's lifecycle events.
var tierKinds = [...]struct{ begin, abort, commit trace.Kind }{
	policy.TierHTM: {trace.KindTxBegin, trace.KindTxAbort, trace.KindTxCommit},
	policy.TierOCC: {trace.KindOCCBegin, trace.KindOCCAbort, trace.KindOCCCommit},
}

// Thread is the per-Ruby-thread TLE state.
type Thread struct {
	HTM *htm.Context

	// OCC is the thread's software-transaction context, non-nil only when
	// the active policy uses the tier (Elision.OCCRT).
	OCC *occ.Tx

	// PS is the policy's per-thread state (retry budgets, backoff ladders).
	PS policy.ThreadState

	// GILMode and OCCMode encode the tier of the current critical section:
	// GILMode while it holds a fallback lock, OCCMode while it runs (or is
	// parked between an abort and its retry) in the software-transaction
	// tier, neither in hardware elision. Only this package writes them.
	GILMode bool
	OCCMode bool

	// ChosenLength is the transaction length selected by the most recent
	// TransactionBegin; the interpreter stores it into the thread
	// structure's yield_point_counter in simulated memory.
	ChosenLength int32

	// ShardMask is the set of keyspace shards the current critical section
	// has touched (bit s = shard s), maintained by TouchShard in sharded-GIL
	// mode and zero otherwise. It persists across an abort into HandleAbort,
	// where it routes single-shard fallbacks to their shard's GIL.
	ShardMask uint64

	state beginState
	pc    int
	lazy  bool // current section runs with lazy GIL subscription

	// lock is the one fallback lock the section is concerned with: the lock
	// it holds while GILMode is set, the target of a blocked acquisition
	// (stWaitAcquire), and — inside a hardware attempt — the shard lock whose
	// held word made TouchShard abort it (nil: none, the root is at fault).
	lock *gil.GIL

	// LastAbortCause is the cause of the most recent abort (stats).
	LastAbortCause simmem.AbortCause
}

// InCriticalSection reports whether the thread currently runs Ruby code
// (transactionally or under the GIL).
func (t *Thread) InCriticalSection() bool { return t.GILMode || t.OCCMode || t.HTM.InTx() }

// tier returns the speculative tier of the current section.
func (t *Thread) tier() policy.Tier {
	if t.OCCMode {
		return policy.TierOCC
	}
	return policy.TierHTM
}

// DeadlineSource reports the absolute-deadline budget of the request a
// scheduler thread is currently serving. Implemented by
// resilience.DeadlineTable; wired by the VM when deadline propagation is
// armed.
type DeadlineSource interface {
	// Remaining returns the cycles left until the thread's request deadline
	// (negative once past), with ok=false when the thread carries none.
	Remaining(thread int, now int64) (remaining int64, ok bool)
}

// Elision is the global TLE state: the contention-management policy and the
// machinery shared by all threads.
type Elision struct {
	Policy policy.Policy
	GIL    *gil.GIL
	Engine *sched.Engine

	// Deadlines, when non-nil, is the request-deadline source backing the
	// policy seam's DeadlineRuntime probe (policy.DeadlineGate).
	Deadlines DeadlineSource

	// LiveAppThreads reports the number of live Ruby application threads;
	// the policies revert to the GIL when only one thread is live.
	LiveAppThreads func() int

	// Tracer, when non-nil, receives the tx lifecycle events: tx-begin,
	// tx-commit, tx-abort, gil-fallback and len-adjust. All htm.Context
	// begin/end/abort calls go through this layer, so trace-side counts
	// reconstruct htm.Stats exactly.
	Tracer *trace.Recorder

	// Breaker, when non-nil, is the elision circuit breaker: while open,
	// every critical section goes straight to the GIL without consulting
	// the policy (fallback reason BreakerReason).
	Breaker *Breaker

	// OCCRT is the software-transaction tier runtime, non-nil only when
	// the policy uses the tier (set by the VM after construction).
	OCCRT *occ.Runtime

	// Sharded is the fallback-lock coordinator, always present: the root GIL
	// plus one GIL per keyspace shard. Single-shard critical sections fall
	// back to their shard's lock, everything else to the root. With zero
	// shards (the default) it is the bare GIL; the VM swaps in a sharded one
	// via AttachSharded. GIL remains the root lock either way.
	Sharded *gil.Sharded

	// Stats
	Adjustments uint64 // number of length attenuations performed
	Fallbacks   uint64 // critical sections that fell back to the GIL

	// ShardFallbacks counts, per shard, the fallbacks routed to that
	// shard's GIL (a subset of Fallbacks). Nil when unsharded.
	ShardFallbacks []uint64

	// CrossShardLeaks counts statements that, while holding one shard's
	// GIL, touched a different shard. Leaks are benign for correctness
	// (shard-GIL sections span a single statement; see DESIGN.md §13) but
	// mark workloads whose static shard analysis under-approximates their
	// footprint.
	CrossShardLeaks uint64

	// curThread is the scheduler thread id whose policy hooks are running
	// right now (the engine is single-threaded, so one at a time); -1
	// outside any hook. It keys the Deadlines lookups.
	curThread int
}

// NewWithPolicy creates the TLE runtime driven by an arbitrary policy.
func NewWithPolicy(p policy.Policy, g *gil.GIL, engine *sched.Engine) *Elision {
	if policy.UsesLazySubscription(p) || policy.UsesOCCTier(p) {
		// Both lazy subscription and the software tier read memory while a
		// GIL holder may be mid-section; the hazard window models the
		// resulting unsafe-read dooms.
		g.HazardTrack = true
	}
	return &Elision{
		Policy:    p,
		GIL:       g,
		Engine:    engine,
		Sharded:   gil.NewSharded(g, 0),
		curThread: -1,
	}
}

// NewThread creates the TLE state for one Ruby thread bound to an HTM
// context. A policy that uses the software tier needs OCCRT set first.
func (e *Elision) NewThread(ctx *htm.Context) *Thread {
	t := &Thread{HTM: ctx, PS: e.Policy.NewThread()}
	if e.OCCRT != nil {
		t.OCC = e.OCCRT.NewTx(ctx.Tx.ID())
	} else if policy.UsesOCCTier(e.Policy) {
		panic(fmt.Sprintf("core: policy %s uses the software tier but Elision.OCCRT is nil", e.Policy.Name()))
	}
	return t
}

// AttachSharded replaces the zero-shard coordinator with s. s.Root must be
// the GIL this Elision was built with.
func (e *Elision) AttachSharded(s *gil.Sharded) {
	if s.Root != e.GIL {
		panic("core: AttachSharded root mismatch")
	}
	e.Sharded = s
	e.ShardFallbacks = make([]uint64, len(s.Shards))
}

// TouchShard records that the current critical section touches keyspace
// shard s. The first touch of each shard per section subscribes a hardware
// transaction to that shard's lock word (aborting immediately when it is
// held — the per-shard analogue of Figure 1 line 15), extends a software
// transaction's commit-blocking set, and — under a shard GIL — counts a
// cross-shard leak when s is not the held shard. No-op for shards the
// coordinator does not have (every shard, when unsharded).
func (e *Elision) TouchShard(t *Thread, s int) {
	if s < 0 || s >= len(e.Sharded.Shards) {
		return
	}
	bit := uint64(1) << uint(s)
	if t.ShardMask&bit != 0 {
		return
	}
	t.ShardMask |= bit
	lock := e.Sharded.Shards[s]
	switch {
	case t.GILMode:
		if t.lock != e.GIL && t.lock != lock {
			e.CrossShardLeaks++
		}
	case t.OCCMode:
		// Mask only: a held shard lock blocks the commit (TransactionEnd)
		// and its hazard window dooms unsafe reads, like the root GIL.
	case t.HTM.InTx():
		if t.HTM.Tx.Doomed() {
			return // keep the original doom cause/addr for attribution
		}
		if t.HTM.Tx.Load(lock.Addr).Bits != 0 {
			t.lock = lock
			t.HTM.ExplicitAbort()
		}
	}
}

// Lengths returns a copy of the policy's per-yield-point length table, or
// nil when the policy keeps none.
func (e *Elision) Lengths() []int32 { return e.Policy.Lengths() }

// Now implements policy.Runtime: the engine's virtual time; unit tests
// build Elision without an engine, in which case events carry time 0.
func (e *Elision) Now() int64 {
	if e.Engine != nil {
		return e.Engine.Now()
	}
	return 0
}

// DeadlineRemaining implements policy.DeadlineRuntime: the cycles left until
// the deadline of the request served by the thread whose policy hook is
// running, ok=false when no deadline source is wired or the thread carries
// no deadline.
func (e *Elision) DeadlineRemaining() (int64, bool) {
	if e.Deadlines == nil || e.curThread < 0 {
		return 0, false
	}
	return e.Deadlines.Remaining(e.curThread, e.Now())
}

// EmitLenAdjust implements policy.Runtime: one length attenuation.
func (e *Elision) EmitLenAdjust(pc int, oldLen, newLen int32) {
	e.Adjustments++
	ev := trace.Ev(e.Now(), trace.KindLenAdjust)
	ev.PC, ev.OldLen, ev.Len = pc, oldLen, newLen
	e.Tracer.Emit(ev) // nil-safe; attenuations are rare
}

// sthID returns a scheduler thread's id for event attribution, -1 when the
// thread is unknown.
func sthID(sth *sched.Thread) int {
	if sth == nil {
		return -1
	}
	return sth.ID
}

// emit sends one tx lifecycle event of t's section. Every kind carries the
// context, thread and yield point; begins add the chosen length, fallbacks
// the reason (note) and the target lock's shard, aborts the cause and — for
// a hardware conflict — the region of the doom address.
func (e *Elision) emit(kind trace.Kind, t *Thread, sth *sched.Thread, now int64, note string, doomAddr simmem.Addr) {
	if e.Tracer == nil {
		return
	}
	ev := trace.Ev(now, kind)
	ev.Ctx, ev.Thread, ev.PC = t.HTM.Tx.ID(), sthID(sth), t.pc
	switch kind {
	case trace.KindTxBegin, trace.KindOCCBegin:
		ev.Len = t.ChosenLength
	case trace.KindGILFallback:
		ev.Note, ev.Shard = note, t.lock.ShardID
	case trace.KindTxAbort, trace.KindOCCAbort:
		ev.Cause = t.LastAbortCause.String()
		if kind == trace.KindTxAbort && t.LastAbortCause == simmem.CauseConflict {
			ev.Region = t.HTM.Mem.RegionLabel(doomAddr)
		}
	}
	e.Tracer.Emit(ev)
}

// TransactionBegin opens a critical section at yield point pc, asking the
// policy whether to elide. On Proceed the thread either runs inside a fresh
// transaction of the tier GILMode/OCCMode name or holds a fallback lock
// (t.GILMode true). On Block the thread must park and call ResumeBegin when
// woken.
func (e *Elision) TransactionBegin(t *Thread, sth *sched.Thread, now int64, pc int) (int64, Outcome) {
	if t.state != stIdle {
		panic(fmt.Sprintf("core: TransactionBegin in state %d", t.state))
	}
	t.pc = pc
	t.ShardMask = 0 // fresh section: direct-to-GIL paths must route to the root
	t.lazy = false
	e.curThread = sthID(sth)
	if !e.Breaker.Allow(now) {
		// Open breaker: GIL-only, and the forced fallback stays out of
		// the breaker's own outcome window.
		return e.acquireGIL(t, sth, now, BreakerReason, false)
	}
	live := e.LiveAppThreads()
	d := e.Policy.OnBegin(e, t.PS, pc, live)
	if !d.Elide {
		// Single-threaded phases take the GIL by design, and deadline
		// downgrades are the request's clock running out, not elision
		// failing; recording either as fallbacks would trip the breaker
		// on healthy workloads.
		return e.acquireGIL(t, sth, now, d.Reason,
			live > 1 && d.Reason != policy.DeadlineReason)
	}
	t.ChosenLength = d.Length
	// Software tier: never lazy, and no GIL pre-wait — an OCC transaction
	// runs concurrently with a GIL holder and resolves against it at read
	// (hazard window) and commit (BlockCommit) time.
	t.OCCMode = d.OCC
	t.lazy = d.Lazy && !d.OCC
	// Lines 6-8 of Figure 1: wait until the GIL is free before beginning.
	// Lazy subscription skips the wait along with the subscription: a held
	// GIL is only discovered at commit.
	if !t.OCCMode && !t.lazy && e.GIL.Acquired() {
		e.GIL.WaitFree(sth)
		t.state = stWaitPreTx
		return 2, Block
	}
	return e.begin(t, sth, now)
}

// begin issues the section's speculative attempt in the tier OCCMode names:
// a software-transaction begin, or TBEGIN plus — unless the section is lazy —
// the subscription to the GIL word (lines 13-15 of Figure 1). A transaction
// doomed during begin (learning model, immediate GIL conflict) is detected
// by the interpreter's doom check right after this returns, which routes
// into HandleAbort.
func (e *Elision) begin(t *Thread, sth *sched.Thread, now int64) (int64, Outcome) {
	t.ShardMask = 0 // retry attempts re-accumulate their shard footprint
	t.lock = nil
	t.state = stIdle
	var cycles int64
	if t.OCCMode {
		cycles = t.OCC.Begin()
	} else {
		cycles = t.HTM.Begin(now)
	}
	e.emit(tierKinds[t.tier()].begin, t, sth, now, "", 0)
	if !t.OCCMode && !t.lazy && t.HTM.Tx.Load(e.GIL.Addr).Bits != 0 {
		// Line 15: the GIL was grabbed between our check and TBEGIN.
		t.HTM.ExplicitAbort()
	}
	return cycles, Proceed
}

// acquireGIL takes the section out of the speculative tiers and performs
// gil_acquire, blocking when contended. reason records why the critical
// section fell back (stats and tracing); every entry here is one fallback,
// counted once even when the acquisition blocks (ResumeBegin does not
// re-enter). record marks fallbacks that should enter the circuit breaker's
// outcome window.
//
// A section whose aborted attempt touched exactly one keyspace shard is
// routed to that shard's GIL, with the section forced to a single yield
// interval (one statement) so the hold provably covers only accesses the
// shard word serializes; everything else takes the root.
func (e *Elision) acquireGIL(t *Thread, sth *sched.Thread, now int64, reason string, record bool) (int64, Outcome) {
	e.Fallbacks++
	t.OCCMode = false
	t.lock = e.GIL
	if m := t.ShardMask; m != 0 && m&(m-1) == 0 {
		s := bits.TrailingZeros64(m)
		t.lock = e.Sharded.Shards[s]
		t.ChosenLength = 1
		e.ShardFallbacks[s]++
	}
	if record {
		e.Breaker.RecordFallback(now)
	}
	e.emit(trace.KindGILFallback, t, sth, now, reason, 0)
	return e.lockAcquire(t, sth, now)
}

// ReacquireRoot takes the root lock again for a thread coming back from a
// blocking native that dropped its lock through ReleaseLock (CRuby
// semantics). Blocking natives run interpreter-level synchronization, never
// a shard section, and their return is not a fallback: no accounting, no
// event. On Block the thread parks and continues through ResumeBegin.
func (e *Elision) ReacquireRoot(t *Thread, sth *sched.Thread, now int64) (int64, Outcome) {
	t.lock = e.GIL
	return e.lockAcquire(t, sth, now)
}

// lockAcquire (re)runs the acquisition of t.lock through the coordinator.
// Block means the thread parked — as a waiter of the lock, or on the gate or
// drain queue of the lock hierarchy — and must call ResumeBegin when woken.
func (e *Elision) lockAcquire(t *Thread, sth *sched.Thread, now int64) (int64, Outcome) {
	var cycles int64
	var ok bool
	if s := t.lock.ShardID; s > 0 {
		cycles, ok = e.Sharded.AcquireShard(sth, s-1, now)
	} else {
		cycles, ok = e.Sharded.AcquireRoot(sth, now)
	}
	if !ok {
		t.state = stWaitAcquire
		return 0, Block
	}
	t.state = stIdle
	t.GILMode = true
	return cycles, Proceed
}

// ResumeBegin continues the Figure 1 state machine after a wake-up.
func (e *Elision) ResumeBegin(t *Thread, sth *sched.Thread, now int64) (int64, Outcome) {
	switch t.state {
	case stWaitPreTx, stWaitRetry:
		// The lock was released while we spun (or the backoff expired);
		// begin (or re-begin) the attempt. If the GIL was re-acquired in the
		// meantime the TBEGIN subscription aborts us and we come back
		// through HandleAbort.
		return e.begin(t, sth, now)
	case stWaitAcquire:
		// A handoff wake owns the lock. A wake off the gate or drain queue
		// owns nothing and re-runs the acquisition (the hierarchy re-checks;
		// see gil.Sharded) — queues that exist only with shards.
		if t.lock.HeldBy(sth) {
			t.state = stIdle
			t.GILMode = true
			return 0, Proceed
		}
		if len(e.Sharded.Shards) == 0 {
			panic("core: woke from gil_acquire without ownership")
		}
		return e.lockAcquire(t, sth, now)
	default:
		panic(fmt.Sprintf("core: ResumeBegin in state %d", t.state))
	}
}

// HandleAbort completes an abort and asks the policy how to continue. The
// interpreter calls it after rolling its private state back to the
// beginning of the transaction. Outcomes are as for TransactionBegin.
func (e *Elision) HandleAbort(t *Thread, sth *sched.Thread, now int64) (int64, Outcome) {
	e.curThread = sthID(sth)
	// Per-tier head: finish the abort and find the lock it is about, whether
	// that lock is held, and whether the abort is a lock artifact — caused by
	// *other* sections running under a lock, not by this section's own
	// inability to elide. Feeding artifacts to the breaker would make
	// open-state GIL traffic doom every half-open probe and latch the breaker
	// open, so only root-cause fallbacks (data conflict, capacity, spurious,
	// ...) enter its outcome window.
	tier := t.tier()
	lock, artifact := e.GIL, false
	var held bool
	var penalty int64
	var doomAddr simmem.Addr
	if tier == policy.TierOCC {
		// A commit refused under a held lock; the lock may be a shard GIL
		// from the section's touch mask rather than the root.
		artifact = t.OCC.GILBlocked() // Rollback clears it; read first
		t.LastAbortCause, penalty = t.OCC.Rollback()
		lock, held = e.blockingGIL(t)
	} else {
		doomAddr = t.HTM.Tx.DoomAddr() // Rollback clears it; read first
		t.LastAbortCause, penalty = t.HTM.Abort()
		switch t.LastAbortCause {
		case simmem.CauseConflict:
			// A conflict on a lock word itself points at that lock.
			if g := e.Sharded.ByAddr(doomAddr); g != nil {
				lock, artifact = g, true
			}
		case simmem.CauseExplicit:
			// Figure 1 line 15 on finding a lock held: the root's word at
			// begin or commit, or a shard's word in TouchShard.
			artifact = true
			if t.lock != nil {
				lock = t.lock
			}
		}
		held = lock.Acquired()
	}
	e.emit(tierKinds[tier].abort, t, sth, now, "", doomAddr)
	cycles := penalty
	d := e.Policy.OnAbort(e, t.PS, t.pc, tier, t.LastAbortCause, held)
	switch d.Kind {
	case policy.AbortSpinRetry:
		// Lines 22-26 of Figure 1: park until the lock at fault is
		// released, then re-begin.
		lock.WaitFree(sth)
		t.state = stWaitRetry
		return cycles, Block
	case policy.AbortBackoff:
		// Park for the backoff duration, then re-begin. The thread is not
		// registered with the lock, so only this timed event wakes it; it
		// fires after this step returns, by which time the thread is
		// Blocked (steps complete synchronously).
		e.Engine.At(now+cycles+d.Backoff, func(at int64) {
			e.Engine.Wake(sth, at)
		})
		t.state = stWaitRetry
		return cycles, Block
	case policy.AbortRetry, policy.AbortOCC:
		// Re-begin at once: in the same tier, or degraded from hardware to
		// the software tier — still concurrent, no capacity limits.
		t.OCCMode = t.OCCMode || d.Kind == policy.AbortOCC
		c, out := e.begin(t, sth, now+cycles)
		return cycles + c, out
	default: // policy.AbortFallback
		c, out := e.acquireGIL(t, sth, now+cycles, d.Reason,
			!artifact && d.Reason != policy.DeadlineReason)
		return cycles + c, out
	}
}

// ReleaseLock releases the fallback lock t holds — the root GIL or t's shard
// GIL — and leaves GIL mode. Used by TransactionEnd and by blocking natives
// that drop the lock around a wait (CRuby semantics; they come back through
// ReacquireRoot).
func (e *Elision) ReleaseLock(t *Thread, sth *sched.Thread, now int64) int64 {
	t.GILMode = false
	if s := t.lock.ShardID; s > 0 {
		return e.Sharded.ReleaseShard(sth, s-1, now)
	}
	return e.Sharded.ReleaseRoot(sth, now)
}

// blockingGIL returns the lock that currently blocks t's software
// transaction from committing — the root GIL when held, else the first held
// shard lock in t's touch mask — and whether there is one (the root, not
// held, otherwise).
func (e *Elision) blockingGIL(t *Thread) (*gil.GIL, bool) {
	if e.GIL.Acquired() {
		return e.GIL, true
	}
	for m := t.ShardMask; m != 0; m &= m - 1 {
		if g := e.Sharded.Shards[bits.TrailingZeros64(m)]; g.Acquired() {
			return g, true
		}
	}
	return e.GIL, false
}

// TransactionEnd implements transaction_end of Figure 2. It returns the
// cycle cost and whether the critical section committed; on false the
// transaction failed at commit and the interpreter must roll back its
// private state and call HandleAbort. Lazy sections perform their GIL
// subscription here, immediately before the commit attempt.
func (e *Elision) TransactionEnd(t *Thread, sth *sched.Thread, now int64) (int64, bool) {
	e.curThread = sthID(sth)
	if t.GILMode {
		t.ShardMask = 0
		return e.ReleaseLock(t, sth, now), true
	}
	var cycles int64
	var ok bool
	if t.OCCMode {
		if _, held := e.blockingGIL(t); held {
			// A lock holder assumes exclusion; publishing (or even
			// linearizing a read-only commit) now would race its critical
			// section. Doom the transaction and let the abort path spin
			// until the lock clears.
			t.OCC.BlockCommit()
			return 2, false
		}
		cycles, ok = t.OCC.Commit()
	} else {
		if t.lazy && t.HTM.InTx() && t.HTM.Tx.Load(e.GIL.Addr).Bits != 0 {
			t.HTM.ExplicitAbort()
		}
		cycles, ok = t.HTM.End(now)
	}
	if ok {
		kind := tierKinds[t.tier()].commit
		t.OCCMode = false
		t.ShardMask = 0
		e.Policy.OnCommit(e, t.PS, t.pc)
		e.Breaker.RecordCommit(now)
		e.emit(kind, t, sth, now, "", 0)
	}
	return cycles, ok
}

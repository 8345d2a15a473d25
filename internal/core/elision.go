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

// Params are the tuning constants of Figures 1 and 3. They live in
// internal/policy now; the alias keeps the historical core API.
type Params = policy.Params

// DefaultParams returns the paper's constants for the given machine profile
// (the adjustment threshold differs between zEC12 and Xeon).
func DefaultParams(prof *htm.Profile) Params { return policy.DefaultParams(prof) }

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
	stIdle         beginState = iota
	stWaitPreTx               // parked at lines 6-8, waiting for GIL release
	stWaitRetry               // parked after an abort (GIL spin or backoff)
	stWaitAcquire             // parked in gil_acquire; wakes owning the GIL
	stWaitRetryOCC            // parked after a software-tier abort; re-begins in the tier
)

// Thread is the per-Ruby-thread TLE state.
type Thread struct {
	HTM *htm.Context

	// OCC is the thread's software-transaction context, non-nil only when
	// the active policy uses the tier (Elision.OCCRT).
	OCC *occ.Tx

	// PS is the policy's per-thread state (retry budgets, backoff ladders).
	PS policy.ThreadState

	// GILMode is true while the current critical section runs under the
	// GIL instead of a transaction (fallback path).
	GILMode bool

	// OCCMode is true while the current critical section runs in the
	// software-transaction tier.
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

	// heldShard is the shard whose GIL this thread holds while GILMode is
	// set (-1: the root GIL). wantShard is the lock targeted by an
	// in-flight blocked acquisition. abortShard remembers which shard's
	// held lock triggered the most recent explicit abort (-1: the root),
	// so HandleAbort spins on the right lock.
	heldShard  int
	wantShard  int
	abortShard int

	// LastAbortCause is the cause of the most recent abort (stats).
	LastAbortCause simmem.AbortCause
}

// InCriticalSection reports whether the thread currently runs Ruby code
// (transactionally or under the GIL).
func (t *Thread) InCriticalSection() bool { return t.GILMode || t.OCCMode || t.HTM.InTx() }

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

	// Sharded, when non-nil, is the multi-GIL coordinator of the sharded
	// keyspace mode: single-shard critical sections fall back to their
	// shard's GIL, cross-shard ones to the root. Attached by the VM via
	// AttachSharded; GIL remains the root lock either way.
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
	if (policy.UsesLazySubscription(p) || policy.UsesOCCTier(p)) && g != nil {
		// Both lazy subscription and the software tier read memory while a
		// GIL holder may be mid-section; the hazard window models the
		// resulting unsafe-read dooms.
		g.HazardTrack = true
	}
	return &Elision{
		Policy:    p,
		GIL:       g,
		Engine:    engine,
		curThread: -1,
	}
}

// NewThread creates the TLE state for one Ruby thread bound to an HTM
// context.
func (e *Elision) NewThread(ctx *htm.Context) *Thread {
	t := &Thread{HTM: ctx, PS: e.Policy.NewThread(), heldShard: -1, wantShard: -1, abortShard: -1}
	if e.OCCRT != nil {
		t.OCC = e.OCCRT.NewTx(ctx.Tx.ID())
	}
	return t
}

// AttachSharded switches the runtime into sharded-GIL mode. s.Root must be
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
// cross-shard leak when s is not the held shard. No-op when unsharded.
func (e *Elision) TouchShard(t *Thread, s int) {
	if e.Sharded == nil || s < 0 || s >= len(e.Sharded.Shards) {
		return
	}
	bit := uint64(1) << uint(s)
	if t.ShardMask&bit != 0 {
		return
	}
	t.ShardMask |= bit
	switch {
	case t.GILMode:
		if t.heldShard >= 0 && t.heldShard != s {
			e.CrossShardLeaks++
		}
	case t.OCCMode:
		// Mask only: a held shard lock blocks the commit (TransactionEnd)
		// and its hazard window dooms unsafe reads, like the root GIL.
	case t.HTM.InTx():
		if t.HTM.Tx.Doomed() {
			return // keep the original doom cause/addr for attribution
		}
		w := t.HTM.Tx.Load(e.Sharded.Shards[s].Addr)
		if w.Bits != 0 {
			t.abortShard = s
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
	if e.Tracer != nil {
		ev := trace.Ev(e.Now(), trace.KindLenAdjust)
		ev.PC = pc
		ev.OldLen = oldLen
		ev.Len = newLen
		e.Tracer.Emit(ev)
	}
}

// sthID returns a scheduler thread's id for event attribution, -1 when the
// thread is unknown.
func sthID(sth *sched.Thread) int {
	if sth == nil {
		return -1
	}
	return sth.ID
}

// TransactionBegin opens a critical section at yield point pc, asking the
// policy whether to elide. On Proceed the thread either runs inside a fresh
// transaction (t.GILMode false) or holds the GIL (t.GILMode true). On Block
// the thread must park and call ResumeBegin when woken.
func (e *Elision) TransactionBegin(t *Thread, sth *sched.Thread, now int64, pc int) (int64, Outcome) {
	if t.state != stIdle {
		panic(fmt.Sprintf("core: TransactionBegin in state %d", t.state))
	}
	t.pc = pc
	t.ShardMask = 0 // fresh section: direct-to-GIL paths must route to the root
	e.curThread = sthID(sth)
	if !e.Breaker.Allow(now) {
		// Open breaker: GIL-only, and the forced fallback stays out of
		// the breaker's own outcome window.
		t.lazy = false
		return e.acquireGIL(t, sth, now, BreakerReason, false)
	}
	live := e.LiveAppThreads()
	d := e.Policy.OnBegin(e, t.PS, pc, live)
	if !d.Elide {
		t.lazy = false
		// Single-threaded phases take the GIL by design, and deadline
		// downgrades are the request's clock running out, not elision
		// failing; recording either as fallbacks would trip the breaker
		// on healthy workloads.
		return e.acquireGIL(t, sth, now, d.Reason,
			live > 1 && d.Reason != policy.DeadlineReason)
	}
	t.ChosenLength = d.Length
	if d.OCC {
		// Software tier: no GIL pre-wait — an OCC transaction runs
		// concurrently with a GIL holder and resolves against it at
		// read (hazard window) and commit (BlockCommit) time.
		t.lazy = false
		return e.beginOCC(t, sth, now)
	}
	t.lazy = d.Lazy
	// Lines 6-8 of Figure 1: wait until the GIL is free before beginning.
	// Lazy subscription skips the wait along with the subscription: a held
	// GIL is only discovered at commit.
	if !t.lazy && e.GIL.Acquired() {
		e.GIL.WaitFree(sth)
		t.state = stWaitPreTx
		return 2, Block
	}
	return e.tryBegin(t, sth, now)
}

// tryBegin issues TBEGIN and, unless the section is lazy, subscribes to the
// GIL word (lines 13-15 of Figure 1).
func (e *Elision) tryBegin(t *Thread, sth *sched.Thread, now int64) (int64, Outcome) {
	t.ShardMask = 0 // retry attempts re-accumulate their shard footprint
	t.abortShard = -1
	cycles := t.HTM.Begin(now)
	if e.Tracer != nil {
		ev := trace.Ev(now, trace.KindTxBegin)
		ev.Ctx = t.HTM.Tx.ID()
		ev.Thread = sthID(sth)
		ev.PC = t.pc
		ev.Len = t.ChosenLength
		e.Tracer.Emit(ev)
	}
	if !t.lazy {
		w := t.HTM.Tx.Load(e.GIL.Addr)
		if w.Bits != 0 {
			// Line 15: the GIL was grabbed between our check and TBEGIN.
			t.HTM.ExplicitAbort()
		}
	}
	t.state = stIdle
	t.GILMode = false
	return cycles, Proceed
	// A transaction doomed during Begin (learning model, immediate GIL
	// conflict) is detected by the interpreter's doom check right after
	// this returns, which routes into HandleAbort.
}

// beginOCC opens the critical section in the software-transaction tier.
func (e *Elision) beginOCC(t *Thread, sth *sched.Thread, now int64) (int64, Outcome) {
	if t.OCC == nil {
		// The policy asked for the tier but the runtime lacks it
		// (defensive; the VM creates OCCRT for every UsesOCCTier policy).
		return e.acquireGIL(t, sth, now, "occ-unavailable", false)
	}
	t.ShardMask = 0
	cycles := t.OCC.Begin()
	if e.Tracer != nil {
		ev := trace.Ev(now, trace.KindOCCBegin)
		ev.Ctx = t.HTM.Tx.ID()
		ev.Thread = sthID(sth)
		ev.PC = t.pc
		ev.Len = t.ChosenLength
		e.Tracer.Emit(ev)
	}
	t.state = stIdle
	t.GILMode = false
	t.OCCMode = true
	return cycles, Proceed
}

// acquireGIL performs gil_acquire, blocking when contended. reason records
// why the critical section fell back to the GIL (stats and tracing); every
// entry here is one fallback, counted once even when the acquisition blocks
// (ResumeBegin does not re-enter). record marks fallbacks that should enter
// the circuit breaker's outcome window.
//
// In sharded mode a section whose aborted attempt touched exactly one
// keyspace shard is routed to that shard's GIL, with the section forced to a
// single yield interval (one statement) so the hold provably covers only
// accesses the shard word serializes; everything else takes the root.
func (e *Elision) acquireGIL(t *Thread, sth *sched.Thread, now int64, reason string, record bool) (int64, Outcome) {
	e.Fallbacks++
	target := -1
	if e.Sharded != nil && t.ShardMask != 0 && t.ShardMask&(t.ShardMask-1) == 0 {
		target = bits.TrailingZeros64(t.ShardMask)
		t.ChosenLength = 1
		e.ShardFallbacks[target]++
	}
	t.wantShard = target
	if record {
		e.Breaker.RecordFallback(now)
	}
	if e.Tracer != nil {
		ev := trace.Ev(now, trace.KindGILFallback)
		ev.Ctx = t.HTM.Tx.ID()
		ev.Thread = sthID(sth)
		ev.PC = t.pc
		ev.Note = reason
		ev.Shard = target + 1
		e.Tracer.Emit(ev)
	}
	cycles, ok := e.lockAcquire(t, sth, now)
	if !ok {
		t.state = stWaitAcquire
		return 0, Block
	}
	t.state = stIdle
	t.GILMode = true
	t.heldShard = target
	return cycles, Proceed
}

// lockAcquire (re)runs the fallback-lock acquisition targeted by
// t.wantShard. ok=false means the thread parked (as a lock waiter, or on the
// sharded gate/drain queues) and must retry from ResumeBegin when woken.
func (e *Elision) lockAcquire(t *Thread, sth *sched.Thread, now int64) (int64, bool) {
	if e.Sharded == nil {
		return e.GIL.BlockingAcquire(sth, now)
	}
	if t.wantShard >= 0 {
		return e.Sharded.AcquireShard(sth, t.wantShard, now)
	}
	return e.Sharded.AcquireRoot(sth, now)
}

// ResumeBegin continues the Figure 1 state machine after a wake-up.
func (e *Elision) ResumeBegin(t *Thread, sth *sched.Thread, now int64) (int64, Outcome) {
	switch t.state {
	case stWaitRetryOCC:
		// The GIL was released (or the backoff expired); re-run the
		// section in the software tier.
		return e.beginOCC(t, sth, now)
	case stWaitPreTx, stWaitRetry:
		// The GIL was released while we spun (or the backoff expired);
		// begin (or re-begin) the transaction. If the GIL was re-acquired
		// in the meantime the TBEGIN subscription aborts us and we come
		// back through HandleAbort.
		return e.tryBegin(t, sth, now)
	case stWaitAcquire:
		if e.Sharded == nil {
			// Woken by the GIL handoff: we own the lock.
			if !e.GIL.HeldBy(sth) {
				panic("core: woke from gil_acquire without ownership")
			}
			t.state = stIdle
			t.GILMode = true
			return 0, Proceed
		}
		// Sharded mode: a handoff wake owns the target lock, but a wake
		// from the gate/drain queues owns nothing and retries (the
		// hierarchy re-checks; see gil.Sharded).
		lock := e.Sharded.Root
		if t.wantShard >= 0 {
			lock = e.Sharded.Shards[t.wantShard]
		}
		if !lock.HeldBy(sth) {
			cycles, ok := e.lockAcquire(t, sth, now)
			if !ok {
				return 0, Block // still stWaitAcquire
			}
			t.state = stIdle
			t.GILMode = true
			t.heldShard = t.wantShard
			return cycles, Proceed
		}
		t.state = stIdle
		t.GILMode = true
		t.heldShard = t.wantShard
		return 0, Proceed
	default:
		panic(fmt.Sprintf("core: ResumeBegin in state %d", t.state))
	}
}

// HandleAbort completes an abort and asks the policy how to continue. The
// interpreter calls it after rolling its private state back to the
// beginning of the transaction. Outcomes are as for TransactionBegin.
func (e *Elision) HandleAbort(t *Thread, sth *sched.Thread, now int64) (int64, Outcome) {
	e.curThread = sthID(sth)
	if t.OCCMode {
		return e.handleOCCAbort(t, sth, now)
	}
	doomAddr := t.HTM.Tx.DoomAddr() // Rollback clears it; read first
	cause, penalty := t.HTM.Abort()
	t.LastAbortCause = cause
	// relevant is the lock this abort is about: in sharded mode a conflict
	// on a shard's lock word (or an explicit abort on finding one held)
	// points at that shard's GIL; everything else points at the root.
	relevant := e.GIL
	if e.Sharded != nil {
		switch cause {
		case simmem.CauseConflict:
			if g := e.Sharded.ByAddr(doomAddr); g != nil {
				relevant = g
			}
		case simmem.CauseExplicit:
			if t.abortShard >= 0 {
				relevant = e.Sharded.Shards[t.abortShard]
			}
		}
	}
	// GIL-artifact aborts — a conflict on a lock word itself, or the
	// Figure 1 line-15 explicit abort on finding a lock held — are caused
	// by *other* sections running under the lock, not by this section's own
	// inability to elide. Feeding them to the breaker would make open-state
	// GIL traffic doom every half-open probe and latch the breaker open, so
	// only root-cause fallbacks (data conflict, capacity, spurious, ...)
	// enter its outcome window.
	gilArtifact := cause == simmem.CauseExplicit ||
		(cause == simmem.CauseConflict && relevant != e.GIL) ||
		(cause == simmem.CauseConflict && doomAddr == e.GIL.Addr)
	if e.Tracer != nil {
		ev := trace.Ev(now, trace.KindTxAbort)
		ev.Ctx = t.HTM.Tx.ID()
		ev.Thread = sthID(sth)
		ev.PC = t.pc
		ev.Cause = cause.String()
		if cause == simmem.CauseConflict {
			ev.Region = t.HTM.Mem.RegionLabel(doomAddr)
		}
		e.Tracer.Emit(ev)
	}
	cycles := penalty
	d := e.Policy.OnAbort(e, t.PS, t.pc, cause, relevant.Acquired())
	switch d.Kind {
	case policy.AbortSpinRetry:
		// Lines 22-26 of Figure 1: park until the lock at fault is
		// released, then re-begin.
		relevant.WaitFree(sth)
		t.state = stWaitRetry
		return cycles, Block
	case policy.AbortRetry:
		c, out := e.tryBegin(t, sth, now+cycles)
		return cycles + c, out
	case policy.AbortBackoff:
		// Park for the backoff duration, then re-begin. The thread is not
		// registered with the GIL, so only this timed event wakes it; it
		// fires after this step returns, by which time the thread is
		// Blocked (steps complete synchronously).
		e.Engine.At(now+cycles+d.Backoff, func(at int64) {
			e.Engine.Wake(sth, at)
		})
		t.state = stWaitRetry
		return cycles, Block
	case policy.AbortOCC:
		// Degrade the failing section to the software tier instead of
		// the GIL: still concurrent, no capacity limits.
		c, out := e.beginOCC(t, sth, now+cycles)
		return cycles + c, out
	default: // policy.AbortFallback
		c, out := e.acquireGIL(t, sth, now+cycles, d.Reason,
			!gilArtifact && d.Reason != policy.DeadlineReason)
		return cycles + c, out
	}
}

// handleOCCAbort completes a software-transaction abort and asks the policy
// how to continue. The interpreter has already rolled its private state
// back; the buffered writes are simply discarded.
func (e *Elision) handleOCCAbort(t *Thread, sth *sched.Thread, now int64) (int64, Outcome) {
	gilBlocked := t.OCC.GILBlocked() // Rollback clears it; read first
	cause, penalty := t.OCC.Rollback()
	t.OCCMode = false
	t.LastAbortCause = cause
	if e.Tracer != nil {
		ev := trace.Ev(now, trace.KindOCCAbort)
		ev.Ctx = t.HTM.Tx.ID()
		ev.Thread = sthID(sth)
		ev.PC = t.pc
		ev.Cause = cause.String()
		e.Tracer.Emit(ev)
	}
	cycles := penalty
	// In sharded mode the lock blocking this software transaction may be a
	// shard GIL from its touch mask rather than the root.
	blocking := e.blockingGIL(t)
	gilHeld := blocking != nil
	if blocking == nil {
		blocking = e.GIL
	}
	var d policy.AbortDecision
	if op, ok := e.Policy.(policy.OCCPolicy); ok {
		d = op.OnOCCAbort(e, t.PS, t.pc, cause, gilHeld)
	} else {
		d = e.Policy.OnAbort(e, t.PS, t.pc, cause, gilHeld)
	}
	switch d.Kind {
	case policy.AbortSpinRetry:
		// Park until the blocking lock is released, then re-run in the tier.
		blocking.WaitFree(sth)
		t.state = stWaitRetryOCC
		return cycles, Block
	case policy.AbortRetry, policy.AbortOCC:
		c, out := e.beginOCC(t, sth, now+cycles)
		return cycles + c, out
	case policy.AbortBackoff:
		e.Engine.At(now+cycles+d.Backoff, func(at int64) {
			e.Engine.Wake(sth, at)
		})
		t.state = stWaitRetryOCC
		return cycles, Block
	default: // policy.AbortFallback
		// A commit blocked by a held GIL is the lock's fault, not this
		// section's; keep it out of the breaker window like the GIL
		// artifacts of the hardware path. Deadline downgrades likewise.
		c, out := e.acquireGIL(t, sth, now+cycles, d.Reason,
			!gilBlocked && d.Reason != policy.DeadlineReason)
		return cycles + c, out
	}
}

// ReleaseLock releases whatever fallback lock t currently holds — the root
// GIL or, in sharded mode, t's shard GIL. Used by TransactionEnd and by
// blocking natives that drop the lock around a wait (CRuby semantics).
func (e *Elision) ReleaseLock(t *Thread, sth *sched.Thread, now int64) int64 {
	if e.Sharded != nil {
		if t.heldShard >= 0 {
			c := e.Sharded.ReleaseShard(sth, t.heldShard, now)
			t.heldShard = -1
			return c
		}
		return e.Sharded.ReleaseRoot(sth, now)
	}
	return e.GIL.Release(sth, now)
}

// blockingGIL returns the lock that currently blocks t's software
// transaction from committing: the root GIL when held, else — in sharded
// mode — the first held shard lock in t's touch mask. nil when none.
func (e *Elision) blockingGIL(t *Thread) *gil.GIL {
	if e.GIL.Acquired() {
		return e.GIL
	}
	if e.Sharded != nil {
		m := t.ShardMask
		for m != 0 {
			s := bits.TrailingZeros64(m)
			m &= m - 1
			if e.Sharded.Shards[s].Acquired() {
				return e.Sharded.Shards[s]
			}
		}
	}
	return nil
}

// TransactionEnd implements transaction_end of Figure 2. It returns the
// cycle cost and whether the critical section committed; on false the
// transaction failed at commit and the interpreter must roll back its
// private state and call HandleAbort. Lazy sections perform their GIL
// subscription here, immediately before the commit attempt.
func (e *Elision) TransactionEnd(t *Thread, sth *sched.Thread, now int64) (int64, bool) {
	e.curThread = sthID(sth)
	if t.GILMode {
		cost := e.ReleaseLock(t, sth, now)
		t.GILMode = false
		t.ShardMask = 0
		return cost, true
	}
	if t.OCCMode {
		if e.blockingGIL(t) != nil {
			// A lock holder assumes exclusion; publishing (or even
			// linearizing a read-only commit) now would race its critical
			// section. Doom the transaction and let the abort path spin
			// until the lock clears.
			t.OCC.BlockCommit()
			return 2, false
		}
		cycles, ok := t.OCC.Commit()
		if ok {
			t.OCCMode = false
			t.ShardMask = 0
			if op, okp := e.Policy.(policy.OCCPolicy); okp {
				op.OnOCCCommit(e, t.PS, t.pc)
			} else {
				e.Policy.OnCommit(e, t.PS, t.pc)
			}
			e.Breaker.RecordCommit(now)
			if e.Tracer != nil {
				ev := trace.Ev(now, trace.KindOCCCommit)
				ev.Ctx = t.HTM.Tx.ID()
				ev.Thread = sthID(sth)
				ev.PC = t.pc
				e.Tracer.Emit(ev)
			}
		}
		return cycles, ok
	}
	if t.lazy && t.HTM.InTx() {
		w := t.HTM.Tx.Load(e.GIL.Addr)
		if w.Bits != 0 {
			t.HTM.ExplicitAbort()
		}
	}
	cycles, ok := t.HTM.End(now)
	if ok {
		t.ShardMask = 0
		e.Policy.OnCommit(e, t.PS, t.pc)
		e.Breaker.RecordCommit(now)
		if e.Tracer != nil {
			ev := trace.Ev(now, trace.KindTxCommit)
			ev.Ctx = t.HTM.Tx.ID()
			ev.Thread = sthID(sth)
			ev.PC = t.pc
			e.Tracer.Emit(ev)
		}
	}
	return cycles, ok
}

package vm

import (
	"htmgil/internal/choice"
	"htmgil/internal/compile"
	"htmgil/internal/core"
	"htmgil/internal/sched"
	"htmgil/internal/simmem"
	"htmgil/internal/trace"
)

// step executes one scheduling step of the thread: usually one bytecode,
// sometimes a TLE protocol action (begin / abort handling / GIL yield).
func (t *RThread) step(now int64) sched.StepResult {
	v := t.vm
	if v.fatalErr != nil {
		return sched.StepResult{Cycles: 1, Status: sched.Done}
	}
	t.collectWait()

	switch t.resume {
	case rsBeginEntry:
		t.resume = rsDispatch
		return t.doBegin(now)
	case rsBeginResume:
		cycles, out := v.Elision.ResumeBegin(t.tle, t.sth, now)
		return t.afterBegin(cycles, out, now)
	case rsGILWaitOwned:
		// Woken by the GIL handoff: we own the lock. Under elision core
		// re-checks that: a wake off the sharded drain queue owns nothing
		// and re-runs the root acquisition (without a second park call: the
		// digests pin that wait as charged to no category).
		var cycles int64
		if v.Opt.Mode == ModeHTM {
			c, out := v.Elision.ResumeBegin(t.tle, t.sth, now)
			if out == core.Block {
				return sched.StepResult{Cycles: c + 1, Status: sched.Blocked}
			}
			cycles = c
		} else {
			t.holdingGIL = true
		}
		t.acc = v.Mem
		t.resume = t.afterGIL
		return sched.StepResult{Cycles: cycles + 1, Status: sched.Running}
	case rsGCPark:
		t.resume = rsDispatch
		return sched.StepResult{Cycles: 1, Status: sched.Running}
	case rsReacquireGIL:
		// Back from a blocking native: take the GIL again (CRuby semantics)
		// and then re-dispatch the native, which consults its saved state.
		// Blocking natives always retake the root GIL — they run
		// interpreter-level synchronization, never a shard section — and
		// the return is not a fallback (core.Elision.ReacquireRoot).
		switch v.Opt.Mode {
		case ModeHTM, ModeGIL:
			var cycles int64
			var ok bool
			if v.Opt.Mode == ModeHTM {
				c, out := v.Elision.ReacquireRoot(t.tle, t.sth, now)
				cycles, ok = c, out == core.Proceed
			} else {
				cycles, ok = v.GIL.BlockingAcquire(t.sth, now)
				t.holdingGIL = ok
			}
			if !ok {
				t.afterGIL = rsNativeRetry
				t.park(CatGILWait, rsGILWaitOwned)
				return sched.StepResult{Cycles: cycles + 2, Status: sched.Blocked}
			}
			t.acc = v.Mem
			t.resume = rsDispatch
			return sched.StepResult{Cycles: cycles, Status: sched.Running}
		default:
			t.resume = rsDispatch
			return sched.StepResult{Cycles: 1, Status: sched.Running}
		}
	case rsNativeRetry:
		t.resume = rsDispatch
		f, in := t.top()
		return t.dispatch(f, in, now)
	case rsFinish:
		return t.finishThread(now)
	}

	// The frame and its code stay in hand across the bytecodes that leave
	// t.frames alone.
	epoch := t.frameEpoch
	f := &t.frames[len(t.frames)-1]
	code := f.iseq.Code
	for {
		// Doomed transactions (either tier) abort at their next instruction
		// boundary.
		if t.txDoomed(now) {
			return t.doAbort(now)
		}
		res := t.dispatch(f, &code[f.pc], now)
		// Run on into the next bytecode when the next step would be this loop
		// again (everything above it a no-op) and the engine would pick this
		// thread again anyway; see sched.Engine.RunOn.
		if res.Status != sched.Running || t.resume != rsDispatch || t.waitPending || v.fatalErr != nil {
			return res
		}
		next, ok := v.Engine.RunOn(t.sth, res.Cycles)
		if !ok {
			return res
		}
		now = next
		if t.frameEpoch != epoch {
			epoch = t.frameEpoch
			f = &t.frames[len(t.frames)-1]
			code = f.iseq.Code
		}
	}
}

// top returns the running frame and the instruction at its pc.
func (t *RThread) top() (*Frame, *compile.Instr) {
	f := &t.frames[len(t.frames)-1]
	return f, &f.iseq.Code[f.pc]
}

// doBegin opens a critical section at the pending yield point.
func (t *RThread) doBegin(now int64) sched.StepResult {
	v := t.vm
	switch v.Opt.Mode {
	case ModeHTM:
		cycles, out := v.Elision.TransactionBegin(t.tle, t.sth, now, int(t.pendingYP))
		return t.afterBegin(cycles, out, now)
	case ModeGIL:
		cycles, ok := v.GIL.BlockingAcquire(t.sth, now)
		if !ok {
			t.afterGIL = rsDispatch
			t.park(CatGILWait, rsGILWaitOwned)
			return sched.StepResult{Cycles: cycles + 2, Status: sched.Blocked}
		}
		t.holdingGIL = true
		return sched.StepResult{Cycles: cycles, Status: sched.Running}
	default:
		return sched.StepResult{Cycles: 1, Status: sched.Running}
	}
}

// afterBegin handles the outcome of TransactionBegin/ResumeBegin/HandleAbort.
func (t *RThread) afterBegin(cycles int64, out core.Outcome, now int64) sched.StepResult {
	v := t.vm
	t.charge(CatBeginEnd, cycles)
	if out == core.Block {
		t.park(CatGILWait, rsBeginResume)
		return sched.StepResult{Cycles: cycles, Status: sched.Blocked}
	}
	t.resume = rsDispatch
	t.skipYieldOnce = true
	if t.tle.GILMode {
		t.acc = v.Mem
		if !v.Opt.GlobalVarsToTLS {
			// The running-thread global is rewritten on every acquisition.
			v.Mem.Store(v.curThreadAddr, simmem.Word{Bits: uint64(t.ctxID + 1)})
		}
		v.Mem.Store(t.counterAddr, simmem.Word{Bits: uint64(t.tle.ChosenLength)})
	} else {
		// A transaction of either tier: hardware, or the software tier's
		// read/write logs (the same stores happen, buffered in the write
		// log like any other speculative write).
		t.acc = t.hctx.Tx
		if t.tle.OCCMode {
			t.acc = t.tle.OCC
		}
		t.checkpoint()
		t.txCycles = 0
		if !v.Opt.GlobalVarsToTLS {
			// Original CRuby design: globals pointing at the running thread
			// are written inside every transaction — the paper's worst
			// conflict source (Section 4.4).
			t.acc.Store(v.curThreadAddr, simmem.Word{Bits: uint64(t.ctxID + 1)})
		}
		t.acc.Store(t.counterAddr, simmem.Word{Bits: uint64(t.tle.ChosenLength)})
		if t.txDoomed(now) {
			// Immediate doom (learning model or GIL race): abort right away.
			return t.doAbort(now)
		}
	}
	return sched.StepResult{Cycles: cycles, Status: sched.Running}
}

// doAbort rolls back and runs the Figure 1 abort path.
func (t *RThread) doAbort(now int64) sched.StepResult {
	v := t.vm
	t.rollbackPrivate()
	t.charge(CatTxAborted, t.txCycles)
	t.txCycles = 0
	cycles, out := v.Elision.HandleAbort(t.tle, t.sth, now)
	t.charge(CatTxAborted, cycles)
	if out == core.Block {
		t.park(CatGILWait, rsBeginResume)
		return sched.StepResult{Cycles: cycles, Status: sched.Blocked}
	}
	// Retried transaction or GIL acquired; re-execute from the checkpoint.
	res := t.afterBegin(0, out, now)
	res.Cycles += cycles
	return res
}

// yieldEnabled reports whether the instruction's yield point is active
// under the current configuration.
func (t *RThread) yieldEnabled(kind compile.YPKind) bool {
	switch t.vm.Opt.Mode {
	case ModeHTM:
		if kind == compile.YPExtended {
			return t.vm.Opt.ExtendedYieldPoints
		}
		return true
	case ModeGIL:
		return kind == compile.YPOriginal
	default:
		// FGL/Ideal use original yield points as GC safepoints.
		return kind == compile.YPOriginal
	}
}

// atYieldPoint runs the per-yield-point protocol. When it returns a
// non-nil result the dispatcher must return it (a transaction ended and/or
// the thread blocked); otherwise execution continues into the instruction.
func (t *RThread) atYieldPoint(in *compile.Instr, now int64) *sched.StepResult {
	v := t.vm
	switch v.Opt.Mode {
	case ModeHTM:
		if v.liveApp <= 1 {
			return nil
		}
		cnt := int64(t.acc.Load(t.counterAddr).Bits)
		cnt--
		if t.txDoomed(now) {
			// The counter access itself may doom the transaction
			// (false sharing on unpadded thread structs).
			r := t.doAbort(now)
			return &r
		}
		if cnt > 0 {
			t.acc.Store(t.counterAddr, simmem.Word{Bits: uint64(cnt)})
			return nil
		}
		// transaction_end + transaction_begin (Figure 2 lines 12-13).
		t.stats.Yields++
		v.stats.Yields++
		endCycles, ok := v.Elision.TransactionEnd(t.tle, t.sth, now)
		if !ok {
			r := t.doAbort(now)
			r.Cycles += endCycles
			return &r
		}
		t.charge(CatBeginEnd, endCycles)
		if !t.tle.GILMode {
			t.charge(CatTxSuccess, t.txCycles)
		}
		t.txCycles = 0
		t.commitPrivate()
		t.acc = v.Mem
		t.pendingYP = in.YP
		r := t.doBegin(now + endCycles)
		r.Cycles += endCycles
		return &r
	case ModeGIL:
		if v.liveApp <= 1 {
			return nil
		}
		if !v.GIL.ConsumeInterrupt(t.sth) {
			// Under exploration, every yield point where another thread is
			// waiting is a choice point: a timer interrupt could have
			// landed exactly here. Index 0 (keep running) matches the
			// unflagged behavior.
			if v.Opt.Chooser == nil || v.GIL.WaiterCount() == 0 ||
				v.Opt.Chooser.Choose(choice.Yield, 2) == 0 {
				return nil
			}
		}
		// Yield the GIL: release, sched_yield, re-acquire.
		t.stats.Yields++
		v.stats.Yields++
		if tr := v.Opt.Trace; tr != nil {
			ev := trace.Ev(now, trace.KindGILYield)
			ev.Thread = t.sth.ID
			tr.Emit(ev)
		}
		rel := v.GIL.Release(t.sth, now)
		t.holdingGIL = false
		cost := rel + v.GIL.CostModel().SchedYield
		c2, ok := v.GIL.BlockingAcquire(t.sth, now+cost)
		if ok {
			t.holdingGIL = true
			return &sched.StepResult{Cycles: cost + c2, Status: sched.Running}
		}
		t.afterGIL = rsDispatch
		t.park(CatGILWait, rsGILWaitOwned)
		return &sched.StepResult{Cycles: cost, Status: sched.Blocked}
	default:
		// FGL/Ideal: GC safepoint.
		if v.gcRequested {
			r := t.parkForGC(now)
			return &r
		}
		return nil
	}
}

// finishThread ends the thread after its last frame returned.
func (t *RThread) finishThread(now int64) sched.StepResult {
	v := t.vm
	var cycles int64
	switch v.Opt.Mode {
	case ModeHTM:
		endCycles, ok := v.Elision.TransactionEnd(t.tle, t.sth, now)
		if !ok {
			return t.doAbort(now)
		}
		cycles += endCycles
		t.charge(CatBeginEnd, endCycles)
		if !t.tle.GILMode {
			t.charge(CatTxSuccess, t.txCycles)
		}
		t.txCycles = 0
		t.commitPrivate()
		t.acc = v.Mem
	case ModeGIL:
		if t.holdingGIL {
			cycles += v.GIL.Release(t.sth, now)
			t.holdingGIL = false
		}
	}
	t.finished = true
	v.liveApp--
	// Drop any timer-interrupt flag still pending for this thread; it will
	// never reach another yield point to consume it.
	v.GIL.ThreadExited(t.sth)
	v.stats.Threads++
	v.stats.Bytecodes += t.stats.Bytecodes
	for _, j := range t.joiners {
		v.Engine.Wake(j.sth, now+cycles)
	}
	t.joiners = nil
	t.release()
	// A pending safepoint collection may now be unblocked.
	if v.gcRequested {
		v.tryCompleteGC(now+cycles, t)
	}
	return sched.StepResult{Cycles: cycles + 1, Status: sched.Done}
}

package vm

import (
	"errors"
	"fmt"

	"htmgil/internal/compile"
	"htmgil/internal/core"
	"htmgil/internal/heap"
	"htmgil/internal/htm"
	"htmgil/internal/object"
	"htmgil/internal/sched"
	"htmgil/internal/simmem"
)

// BlockArg is a block passed down a call without allocating a Proc object
// (CRuby likewise keeps blocks on the stack until they are captured).
type BlockArg struct {
	iseq *compile.ISeq
	env  object.Value // defining environment chain (TEnv ref or nil)
	self object.Value
}

func (b BlockArg) valid() bool { return b.iseq != nil }

// Frame is one activation record.
type Frame struct {
	iseq      *compile.ISeq
	pc        int32
	self      object.Value
	locals    []object.Value // host storage when the iseq does not escape
	env       object.Value   // TEnv ref when it does
	parentEnv object.Value   // captured chain start for block frames
	block     BlockArg       // block argument of this invocation
	base      int32          // operand-stack base
	// retOverride, when non-nil, replaces the frame's return value at
	// leave (Class#new returns the object, not initialize's result).
	retOverride *object.Value
}

type undoKind uint8

const (
	uStack undoKind = iota // stack[a] = val
	uLocal                 // frames[a].locals[b] = val
	uPush                  // a frame was pushed: pop it
	uPop                   // a frame was popped: push *frame back, caller pc = a
)

type undoEntry struct {
	kind  undoKind
	a, b  int32
	val   object.Value
	frame *Frame
}

// resumeKind tells step what to do after a wake-up.
type resumeKind uint8

const (
	rsDispatch     resumeKind = iota // execute the instruction at pc
	rsBeginEntry                     // thread start: open the first critical section
	rsBeginResume                    // parked inside the TLE begin protocol
	rsNativeRetry                    // re-dispatch the current send (native parked)
	rsGILWaitOwned                   // parked in BlockingAcquire; wake owns the GIL
	rsGCPark                         // parked at a GC safepoint (FGL/Ideal)
	rsReacquireGIL                   // woken from a blocking native: re-acquire the GIL
)

// ErrBlocked is returned by native methods that parked the thread.
var ErrBlocked = errors.New("vm: native blocked")

// errRedo is returned when an instruction must be re-executed after the
// transaction aborts (restricted op, GC needed, ...). The dispatcher leaves
// pc untouched.
var errRedo = errors.New("vm: redo after abort")

// errFramePushed is returned by natives that completed their send by
// pushing a bytecode frame (Class#new invoking initialize).
var errFramePushed = errors.New("vm: native pushed a frame")

// RThread is one Ruby thread.
type RThread struct {
	vm    *VM
	name  string
	sth   *sched.Thread
	ctxID int
	hctx  *htm.Context
	tle   *core.Thread
	acc   heap.Accessor
	ts    heap.ThreadSlots

	structBase  simmem.Addr
	counterAddr simmem.Addr
	stackShadow simmem.Addr

	frames []Frame
	stack  []object.Value
	sp     int32
	// frameEpoch counts the changes to frames (push, pop, rollback): the
	// step loop holds the top frame and its code across bytecodes and
	// re-reads them when this moved.
	frameEpoch uint32

	// Transaction-private-state checkpoint and undo log.
	logging  bool
	log      []undoEntry
	ckDepth  int32
	ckSP     int32
	ckPC     int32
	txCycles int64

	resume        resumeKind
	afterGIL      resumeKind // continuation after rsGILWaitOwned
	skipYieldOnce bool
	pendingYP     int32
	waitCat       CycleCat
	waitPending   bool
	nativeState   any // blocking-native state across a park

	stats    ThreadStats
	thrObj   *object.RObject
	finished bool
	result   object.Value
	joiners  []*RThread

	holdingGIL bool // ModeGIL only: we hold the GIL

	pendingGC int64 // GC cycles to add to the current step's clock
	gcParked  bool  // parked at an FGL/Ideal safepoint

	// tempRoots pins objects allocated within the current instruction
	// (native methods build results in host locals the collector cannot
	// otherwise see). Cleared at the next dispatch.
	tempRoots []*object.RObject

	// Allocator compensation state for the software (OCC) tier, which
	// allocates non-speculatively (see allocAcc): objects and buffers the
	// running software transaction obtained (returned to the free lists on
	// abort) and buffers it released (applied only at commit, because the
	// committed state still references them until the write buffer
	// publishes).
	stxAllocObjs []*object.RObject
	stxAllocBufs []arenaRec
	stxFreeBufs  []arenaRec
}

// arenaRec identifies one malloc-arena buffer for the software tier's
// allocation/free compensation logs.
type arenaRec struct {
	base  simmem.Addr
	words int
}

// threadStructBytes returns the spacing of thread structs in simulated
// memory: line-padded per the paper's fix, or densely packed.
func (v *VM) threadStructBytes() int {
	raw := threadStructWords * simmem.WordBytes
	if !v.Opt.PaddedThreadStructs {
		return raw
	}
	lb := v.Opt.Prof.LineBytes
	return (raw + lb - 1) / lb * lb
}

// threadStructAddr returns the fixed slot for a context id inside the
// shared thread-structure region (allocated once, lazily).
func (v *VM) threadStructAddr(id int) simmem.Addr {
	if v.threadStructsBase == 0 {
		v.threadStructsBase = v.Mem.Reserve("threadstruct", maxContexts*v.threadStructBytes())
	}
	return v.threadStructsBase + simmem.Addr(id*v.threadStructBytes())
}

// newRThread allocates the per-thread state (a simmem context, a thread
// structure, a stack-shadow region). Returns nil when the context pool is
// exhausted.
func (v *VM) newRThread(name string) *RThread {
	if len(v.ctxPool) == 0 {
		v.fail(errors.New("vm: more than 64 concurrently live Ruby threads"))
		return nil
	}
	id := v.ctxPool[len(v.ctxPool)-1]
	v.ctxPool = v.ctxPool[:len(v.ctxPool)-1]

	t := &RThread{vm: v, name: name, ctxID: id, acc: v.Mem}
	// Thread structures are carved densely from one region so that the
	// unpadded configuration exhibits the false sharing the paper fixed
	// (Reserve would line-align each struct and hide it).
	t.structBase = v.threadStructAddr(id)
	t.counterAddr = t.structBase + tsYieldCounter*simmem.WordBytes
	t.ts = heap.ThreadSlots{
		TLHead:  t.structBase + tsTLHead*simmem.WordBytes,
		TLCount: t.structBase + tsTLCount*simmem.WordBytes,
		TLArena: t.structBase + tsArena*simmem.WordBytes,
	}
	if !v.Heap.Cfg.ThreadLocalFreeLists {
		t.ts.TLHead, t.ts.TLCount = 0, 0
	}
	if !v.Heap.Cfg.ThreadLocalArenas {
		t.ts.TLArena = 0
	}
	t.stackShadow = v.Mem.Reserve("stack", 8<<10)

	if v.Opt.Mode == ModeHTM {
		if v.htmCtxs[id] == nil {
			v.htmCtxs[id] = htm.NewContext(v.Opt.Prof, v.Mem, id, v.Opt.Seed+int64(id)*7919)
			v.htmCtxs[id].Tracer = v.Opt.Trace
			// Each context keeps its own fault stream for the life of the
			// run, so context recycling never perturbs the schedule.
			v.htmCtxs[id].Faults = v.Faults.HTMContext(id)
		}
		if rt := v.Elision.OCCRT; rt != nil {
			// Hardware transactions subscribe to the software tier's
			// commit-sequence word (unless the profile sandboxes them).
			v.htmCtxs[id].OCCSeqAddr = rt.SeqAddr
		}
		t.hctx = v.htmCtxs[id]
		t.tle = v.Elision.NewThread(t.hctx)
		if t.tle.OCC != nil {
			// A mid-instruction doom must unwind immediately: the interpreter
			// recovers the sentinel at its dispatch boundary (execGuarded)
			// instead of running the rest of the instruction on a snapshot
			// that no longer exists.
			t.tle.OCC.PanicOnDoom = true
		}
		t.resume = rsBeginEntry
	} else if v.Opt.Mode == ModeGIL {
		t.resume = rsBeginEntry
	}
	v.threads = append(v.threads, t)
	return t
}

// release returns the thread's simmem context to the pool at exit.
func (t *RThread) release() {
	v := t.vm
	v.ctxPool = append(v.ctxPool, t.ctxID)
	// Wire the SMT sibling-busy callback lazily; contexts are pooled.
	for i, th := range v.threads {
		if th == t {
			v.threads = append(v.threads[:i], v.threads[i+1:]...)
			break
		}
	}
}

// spawn registers the thread with the scheduler.
func (t *RThread) spawn(startAt int64) {
	v := t.vm
	t.sth = v.Engine.Spawn(t.name, startAt, t.step)
	if t.hctx != nil {
		sib := t.sth.Ctx.Sibling()
		if sib != nil {
			t.hctx.SiblingBusy = sib.Busy
		} else {
			t.hctx.SiblingBusy = nil
		}
	}
	v.liveApp++
}

// pushEntry sets up the initial frame before the thread starts.
func (t *RThread) pushEntry(iseq *compile.ISeq, self object.Value, parentEnv object.Value, args []object.Value) {
	t.frames = t.frames[:0]
	t.sp = 0
	if err := t.pushFrame(iseq, self, parentEnv, BlockArg{}, args, 0); err != nil {
		t.vm.fail(fmt.Errorf("vm: entry frame: %w", err))
	}
	t.pendingYP = iseq.EntryYP
}

// inTx reports whether the thread currently runs inside a hardware
// transaction. (Only ModeHTM threads have a tle.)
func (t *RThread) inTx() bool {
	return t.tle != nil && !t.tle.GILMode && t.hctx.InTx()
}

// inSTx reports whether the thread currently runs inside a software (OCC)
// transaction.
func (t *RThread) inSTx() bool {
	return t.tle != nil && t.tle.OCCMode
}

// inAnyTx reports whether the thread runs inside a transaction of either
// tier.
func (t *RThread) inAnyTx() bool { return t.inTx() || t.inSTx() }

// txDoomed reports whether the thread's running transaction (either tier)
// has been doomed and must abort at the next boundary.
func (t *RThread) txDoomed(now int64) bool {
	if t.inSTx() {
		return t.tle.OCC.Doomed()
	}
	return t.inTx() && t.hctx.Doomed(now)
}

// restrictedOp dooms the running transaction — whatever its tier — because
// the program reached an operation that cannot run speculatively.
func (t *RThread) restrictedOp() {
	if t.inSTx() {
		t.tle.OCC.SelfDoom(simmem.CauseRestricted)
		return
	}
	t.hctx.RestrictedOp()
}

// inCritical reports whether the thread is in any critical section.
func (t *RThread) inCritical() bool {
	switch t.vm.Opt.Mode {
	case ModeHTM:
		return t.tle != nil && t.tle.InCriticalSection()
	case ModeGIL:
		return t.holdingGIL
	default:
		return false
	}
}

// charge adds cycles to a breakdown category.
func (t *RThread) charge(cat CycleCat, cycles int64) {
	t.stats.Cycles[cat] += cycles
	t.vm.stats.Cycles[cat] += cycles
}

// chargeExec attributes execution cycles by current criticality.
func (t *RThread) chargeExec(cycles int64) {
	switch {
	case t.inTx(), t.inSTx():
		t.txCycles += cycles
	case t.inCritical():
		t.charge(CatGILHeld, cycles)
	default:
		t.charge(CatOther, cycles)
	}
}

// collectWait attributes the just-finished blocked interval.
func (t *RThread) collectWait() {
	if t.waitPending {
		t.charge(t.waitCat, t.sth.LastWait())
		t.waitPending = false
	}
}

// park prepares to return Blocked.
func (t *RThread) park(cat CycleCat, next resumeKind) {
	t.waitCat = cat
	t.waitPending = true
	t.resume = next
}

// ---------------------------------------------------------------------------
// Transaction-private state: checkpoint, undo log, rollback.

// checkpoint records the private interpreter state at transaction begin.
func (t *RThread) checkpoint() {
	t.logging = true
	t.log = t.log[:0]
	t.ckDepth = int32(len(t.frames))
	t.ckSP = t.sp
	t.ckPC = t.frames[len(t.frames)-1].pc
}

// commitPrivate drops the undo log after a successful commit and settles
// the software tier's allocator logs: deferred buffer frees are applied
// now that the write buffer has published, and the allocation logs are
// dropped (the allocations are permanent).
func (t *RThread) commitPrivate() {
	t.logging = false
	t.log = t.log[:0]
	v := t.vm
	for _, r := range t.stxFreeBufs {
		v.Heap.FreeArena(v.Mem, t.ts, r.base, r.words)
	}
	t.stxFreeBufs = t.stxFreeBufs[:0]
	t.stxAllocObjs = t.stxAllocObjs[:0]
	t.stxAllocBufs = t.stxAllocBufs[:0]
}

// rollbackPrivate restores the private interpreter state to the checkpoint.
func (t *RThread) rollbackPrivate() {
	// Undo the software tier's non-speculative allocations and drop its
	// deferred frees (the committed state never saw the aborted buffers).
	v := t.vm
	for i := len(t.stxAllocObjs) - 1; i >= 0; i-- {
		v.Heap.FreeObject(v.Mem, t.ts, t.stxAllocObjs[i])
	}
	for i := len(t.stxAllocBufs) - 1; i >= 0; i-- {
		r := t.stxAllocBufs[i]
		v.Heap.FreeArena(v.Mem, t.ts, r.base, r.words)
	}
	t.stxAllocObjs = t.stxAllocObjs[:0]
	t.stxAllocBufs = t.stxAllocBufs[:0]
	t.stxFreeBufs = t.stxFreeBufs[:0]
	if MutSkipRollback {
		// Seeded bug (mutation builds only): the abort handler forgets to
		// roll back the private interpreter state. Execution resumes at the
		// abort point as if the transaction had committed, even though its
		// memory effects were discarded — the classic TLE abort-path bug,
		// and exactly the silent corruption the schedule explorer's
		// serializability oracle must catch.
		t.log = t.log[:0]
		t.logging = false
		return
	}
	t.frameEpoch++
	for i := len(t.log) - 1; i >= 0; i-- {
		e := &t.log[i]
		switch e.kind {
		case uStack:
			t.stack[e.a] = e.val
		case uLocal:
			t.frames[e.a].locals[e.b] = e.val
		case uPush:
			t.frames = t.frames[:len(t.frames)-1]
		case uPop:
			// The bottom frame has no caller to restore a pc into (pushFrame
			// records callerPC 0 for it); commit-time aborts — e.g. a lazy
			// subscription failing in finishThread — roll back past it.
			if len(t.frames) > 0 {
				t.frames[len(t.frames)-1].pc = e.a
			}
			t.frames = append(t.frames, *e.frame)
		}
	}
	t.log = t.log[:0]
	t.logging = false
	if int32(len(t.frames)) != t.ckDepth {
		t.vm.fail(fmt.Errorf("vm: rollback frame depth %d != checkpoint %d", len(t.frames), t.ckDepth))
		return
	}
	t.sp = t.ckSP
	t.frames[len(t.frames)-1].pc = t.ckPC
}

// ---------------------------------------------------------------------------
// Operand stack with undo logging.

func (t *RThread) push(v object.Value) {
	if t.logging && t.sp < t.ckSP {
		t.log = append(t.log, undoEntry{kind: uStack, a: t.sp, val: t.stack[t.sp]})
	}
	if int(t.sp) == len(t.stack) {
		t.stack = append(t.stack, v)
	} else {
		t.stack[t.sp] = v
	}
	t.sp++
}

func (t *RThread) pop() object.Value {
	t.sp--
	return t.stack[t.sp]
}

func (t *RThread) peek(n int32) object.Value { return t.stack[t.sp-1-n] }

func (t *RThread) setLocalHost(frameIdx int32, slot int32, v object.Value) {
	f := &t.frames[frameIdx]
	if t.logging {
		t.log = append(t.log, undoEntry{kind: uLocal, a: frameIdx, b: slot, val: f.locals[slot]})
	}
	f.locals[slot] = v
}

// ---------------------------------------------------------------------------
// Frames.

// pushFrame activates iseq. Arguments arrive in args (already popped or
// sliced by the caller). The caller must have advanced its own pc first.
func (t *RThread) pushFrame(iseq *compile.ISeq, self object.Value, parentEnv object.Value, blk BlockArg, args []object.Value, now int64) error {
	f := Frame{
		iseq:      iseq,
		self:      self,
		parentEnv: parentEnv,
		block:     blk,
		base:      t.sp,
	}
	if iseq.Escapes {
		env, err := t.allocEnv(iseq.NumLocals, parentEnv, args)
		if err != nil {
			return err
		}
		f.env = env
	} else {
		f.locals = make([]object.Value, iseq.NumLocals)
		copy(f.locals, args)
	}
	if t.logging {
		t.log = append(t.log, undoEntry{kind: uPush})
	}
	t.frames = append(t.frames, f)
	t.frameEpoch++
	// Stack-shadow write: frames occupy real memory whose lines join the
	// transaction footprint.
	depth := len(t.frames) - 1
	shadow := t.stackShadow + simmem.Addr(depth*48&^7)
	t.acc.Store(shadow, simmem.Word{Bits: uint64(depth)})
	return nil
}

// popFrame deactivates the top frame; returns false when it was the last.
func (t *RThread) popFrame() bool {
	top := len(t.frames) - 1
	if t.logging {
		saved := t.frames[top]
		callerPC := int32(0)
		if top > 0 {
			callerPC = t.frames[top-1].pc
		}
		t.log = append(t.log, undoEntry{kind: uPop, a: callerPC, frame: &saved})
	}
	t.frames = t.frames[:top]
	t.frameEpoch++
	return top > 0
}

// callAfterNative finishes a native send by pushing a bytecode frame whose
// return value is overridden with ret. argc is the original send's argument
// count (the receiver and arguments are still on the operand stack). The
// native must return errFramePushed afterwards.
func (t *RThread) callAfterNative(iseq *compile.ISeq, self object.Value, blk BlockArg, args []object.Value, argc int, ret object.Value, now int64) error {
	caller := &t.frames[len(t.frames)-1]
	caller.pc++
	t.sp -= int32(argc) + 1
	if err := t.pushFrame(iseq, self, object.Nil, blk, args, now); err != nil {
		caller.pc--
		t.sp += int32(argc) + 1
		return err
	}
	r := ret
	t.frames[len(t.frames)-1].retOverride = &r
	return nil
}

// allocEnv allocates a TEnv heap object with its buffer.
func (t *RThread) allocEnv(nlocals int, parent object.Value, args []object.Value) (object.Value, error) {
	v := t.vm
	o, err := t.allocObject(object.TEnv, v.typeClass[object.TEnv])
	if err != nil {
		return object.Nil, err
	}
	buf, err := t.allocArena(nlocals + 1)
	if err != nil {
		return object.Nil, err
	}
	t.acc.Store(o.AddrOf(object.SlotA), simmem.Word{Bits: uint64(buf)})
	t.acc.Store(o.AddrOf(object.SlotB), simmem.Word{Bits: uint64(nlocals + 1)})
	t.acc.Store(o.AddrOf(object.SlotC), simmem.Word{Bits: uint64(roundClass(nlocals + 1))})
	t.acc.Store(buf, parent.Word())
	for i := 0; i < nlocals; i++ {
		val := object.Nil
		if i < len(args) {
			val = args[i]
		}
		t.acc.Store(buf+simmem.Addr((i+1)*simmem.WordBytes), val.Word())
	}
	return object.RefVal(o), nil
}

// roundClass mirrors the heap's size-class rounding for capacity metadata.
func roundClass(n int) int {
	c := 2
	for c < n {
		c *= 2
	}
	return c
}

// allocAcc returns the accessor for allocator metadata. Hardware
// transactions allocate speculatively — the paper's free-list conflicts
// depend on it — but the software tier must not: its write buffer hides a
// free-list pop from every other allocator until commit, and NOrec's
// value-based validation cannot see the resulting collision when the
// interleaved allocators leave identical list words behind, so two threads
// would initialize the same host-side object shell (Type, Class, Native)
// as different types. As in real STMs, software transactions therefore
// allocate directly and compensate on abort (see commitPrivate and
// rollbackPrivate).
func (t *RThread) allocAcc() heap.Accessor {
	if t.inSTx() {
		return t.vm.Mem
	}
	return t.acc
}

// freeArena releases an arena buffer. Inside a software transaction the
// release is deferred to commit: the committed state still references the
// buffer until the write buffer publishes, so freeing it eagerly would
// hand live memory to a concurrent allocator — and an abort would
// resurrect the buffer after its reuse.
func (t *RThread) freeArena(base simmem.Addr, words int) {
	if t.inSTx() {
		t.stxFreeBufs = append(t.stxFreeBufs, arenaRec{base: base, words: words})
		return
	}
	t.vm.Heap.FreeArena(t.acc, t.ts, base, words)
}

// allocObject allocates a heap object, handling GC-needed conditions per
// the current execution mode.
func (t *RThread) allocObject(typ object.RType, cls *object.RClass) (*object.RObject, error) {
	v := t.vm
	o, err := v.Heap.AllocObject(t.allocAcc(), t.ts, typ, cls)
	if err == nil {
		t.tempRoots = append(t.tempRoots, o)
		if t.inSTx() {
			t.stxAllocObjs = append(t.stxAllocObjs, o)
		}
		return o, nil
	}
	if !errors.Is(err, heap.ErrNeedGC) {
		return nil, err
	}
	if t.inAnyTx() {
		// GC cannot run inside a transaction: abort to the GIL and redo.
		t.restrictedOp()
		return nil, errRedo
	}
	if err := t.runGC(); err != nil {
		return nil, err
	}
	o, err = v.Heap.AllocObject(t.acc, t.ts, typ, cls)
	if err != nil {
		return nil, fmt.Errorf("vm: out of heap after GC (%d slots): %w", v.Opt.HeapSlots, err)
	}
	t.tempRoots = append(t.tempRoots, o)
	return o, nil
}

// allocArena allocates an arena buffer with the same GC protocol.
func (t *RThread) allocArena(words int) (simmem.Addr, error) {
	v := t.vm
	a, err := v.Heap.AllocArena(t.allocAcc(), t.ts, words)
	if err == nil {
		if t.inSTx() {
			t.stxAllocBufs = append(t.stxAllocBufs, arenaRec{base: a, words: words})
		}
		return a, nil
	}
	if t.inAnyTx() {
		t.restrictedOp()
		return 0, errRedo
	}
	if gerr := t.runGC(); gerr != nil {
		return 0, gerr
	}
	a, err = v.Heap.AllocArena(t.acc, t.ts, words)
	if err != nil {
		return 0, fmt.Errorf("vm: arena exhausted: %w", err)
	}
	return a, nil
}

// ---------------------------------------------------------------------------
// Local variable access through the environment chain.

// envAt returns the TEnv object `depth` hops up from the current frame
// (depth >= 1; depth 0 is the frame itself).
func (t *RThread) envAt(f *Frame, depth int32) (*object.RObject, error) {
	var cur object.Value
	if depth == 0 {
		cur = f.env
	} else {
		cur = f.parentEnv
		for i := int32(1); i < depth; i++ {
			if cur.Kind != object.KRef {
				return nil, fmt.Errorf("vm: broken environment chain at depth %d", depth)
			}
			base := simmem.Addr(t.acc.Load(cur.Ref.AddrOf(object.SlotA)).Bits)
			cur = object.FromWord(t.acc.Load(base))
		}
	}
	if cur.Kind != object.KRef || cur.Ref.Type != object.TEnv {
		return nil, fmt.Errorf("vm: missing environment at depth %d", depth)
	}
	return cur.Ref, nil
}

func (t *RThread) getLocal(f *Frame, slot, depth int32) (object.Value, int64, error) {
	if depth == 0 && f.locals != nil {
		return f.locals[slot], t.vm.Costs.LocalGo, nil
	}
	env, err := t.envAt(f, depth)
	if err != nil {
		return object.Nil, 0, err
	}
	base := simmem.Addr(t.acc.Load(env.AddrOf(object.SlotA)).Bits)
	w := t.acc.Load(base + simmem.Addr((slot+1)*simmem.WordBytes))
	return object.FromWord(w), t.vm.Costs.LocalEnv, nil
}

func (t *RThread) setLocal(f *Frame, slot, depth int32, val object.Value) (int64, error) {
	if depth == 0 && f.locals != nil {
		idx := int32(len(t.frames) - 1)
		t.setLocalHost(idx, slot, val)
		return t.vm.Costs.LocalGo, nil
	}
	env, err := t.envAt(f, depth)
	if err != nil {
		return 0, err
	}
	base := simmem.Addr(t.acc.Load(env.AddrOf(object.SlotA)).Bits)
	t.acc.Store(base+simmem.Addr((slot+1)*simmem.WordBytes), val.Word())
	return t.vm.Costs.LocalEnv, nil
}

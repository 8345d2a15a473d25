package vm

import (
	"fmt"
	"strconv"
	"strings"

	"htmgil/internal/compile"
	"htmgil/internal/object"
	"htmgil/internal/occ"
	"htmgil/internal/sched"
	"htmgil/internal/simmem"
)

// dispatch executes in, the instruction at f's pc; f must be the top frame
// (see RThread.top).
func (t *RThread) dispatch(f *Frame, in *compile.Instr, now int64) sched.StepResult {
	v := t.vm
	c := &v.Costs
	cycles := v.opCost[in.Op]
	t.stats.Bytecodes++
	// Objects allocated by the previous instruction are reachable from
	// program state now; release the temporary pins.
	if len(t.tempRoots) > 0 {
		t.tempRoots = t.tempRoots[:0]
	}

	if in.YP >= 0 && t.yieldEnabled(in.YPKind) {
		cycles += c.YieldCheck
		if t.skipYieldOnce {
			t.skipYieldOnce = false
		} else if r := t.atYieldPoint(in, now); r != nil {
			r.Cycles += cycles
			return *r
		}
	}

	var extra int64
	var err error
	if t.inSTx() {
		extra, err = t.execGuarded(f, in, now)
	} else {
		extra, err = t.exec(f, in, now)
	}
	cycles += extra
	switch err {
	case nil:
	case errRedo:
		// pc untouched; the doom check at the next step aborts and retries.
		t.chargeExec(cycles)
		return sched.StepResult{Cycles: cycles, Status: sched.Running}
	case ErrBlocked:
		t.chargeExec(cycles)
		return t.blockForNative(now, cycles)
	case errGCWait:
		// Parked for a safepoint collection; re-execute on wake.
		t.chargeExec(cycles)
		t.park(CatIOWait, rsDispatch)
		return sched.StepResult{Cycles: cycles, Status: sched.Blocked}
	default:
		if (t.inTx() && t.hctx.Tx.Doomed()) || (t.inSTx() && t.tle.OCC.Doomed()) {
			// Sandboxing: a doomed transaction may have executed on
			// inconsistent reads — e.g. a lazy-subscription transaction
			// racing the GIL holder through a half-filled inline cache —
			// and its misbehaviour is architecturally squashed by the
			// abort. Re-execution from the checkpoint sees sane state; a
			// genuine program error recurs there and fails the VM then.
			t.chargeExec(cycles)
			res := t.doAbort(now + cycles)
			res.Cycles += cycles
			return res
		}
		v.fail(fmt.Errorf("%s:%d: %w", f.iseq.Name, in.Line, err))
		return sched.StepResult{Cycles: cycles, Status: sched.Done}
	}
	t.chargeExec(cycles)
	if t.pendingGC > 0 {
		cycles += t.pendingGC
		t.pendingGC = 0
	}
	if t.resume == rsFinish && t.sth != nil {
		res := t.finishThread(now + cycles)
		res.Cycles += cycles
		return res
	}
	return sched.StepResult{Cycles: cycles, Status: sched.Running}
}

// execGuarded runs one instruction of a software (OCC) transaction,
// converting the tier's doom-on-inconsistent-read panic (occ.ErrDoomed) into
// errRedo: the transaction is already doomed, so the doom check at the next
// step rolls everything — operand stack, locals, frames, pc — back to the
// checkpoint and retries. The partial instruction's speculative writes were
// buffered in the write log and its private-state mutations are in the undo
// log, so unwinding mid-instruction leaves no residue. Nothing else panics
// with that sentinel, so dispatch calls exec directly outside the tier.
func (t *RThread) execGuarded(f *Frame, in *compile.Instr, now int64) (cycles int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			if r == occ.ErrDoomed {
				err = errRedo
				return
			}
			panic(r)
		}
	}()
	return t.exec(f, in, now)
}

// blockForNative parks the thread after a native returned ErrBlocked,
// releasing the GIL around the wait as CRuby does for blocking operations.
func (t *RThread) blockForNative(now int64, sofar int64) sched.StepResult {
	v := t.vm
	switch v.Opt.Mode {
	case ModeHTM:
		if t.tle.GILMode {
			v.Elision.ReleaseLock(t.tle, t.sth, now+sofar)
		}
		t.park(CatIOWait, rsReacquireGIL)
	case ModeGIL:
		if t.holdingGIL {
			v.GIL.Release(t.sth, now+sofar)
			t.holdingGIL = false
		}
		t.park(CatIOWait, rsReacquireGIL)
	default:
		t.park(CatIOWait, rsNativeRetry)
	}
	return sched.StepResult{Cycles: sofar, Status: sched.Blocked}
}

// exec executes one instruction. Handlers advance pc themselves. The frame
// pointer f is invalid after any operation that grows t.frames.
func (t *RThread) exec(f *Frame, in *compile.Instr, now int64) (int64, error) {
	v := t.vm
	c := &v.Costs
	switch in.Op {
	case compile.OpNop:
		f.pc++
		return 0, nil
	case compile.OpPutNil:
		t.push(object.Nil)
		f.pc++
	case compile.OpPutTrue:
		t.push(object.True)
		f.pc++
	case compile.OpPutFalse:
		t.push(object.False)
		f.pc++
	case compile.OpPutSelf:
		t.push(f.self)
		f.pc++
	case compile.OpPutInt:
		t.push(object.FixVal(in.Imm))
		f.pc++
	case compile.OpPutFloat:
		t.push(v.floats[f.iseq][in.A])
		f.pc++
	case compile.OpPutSym:
		t.push(object.SymVal(object.SymID(in.A)))
		f.pc++
	case compile.OpPutStr:
		o, cost, err := t.allocString(f.iseq.Strings[in.A])
		if err != nil {
			return cost, err
		}
		t.push(object.RefVal(o))
		f.pc++
		return cost, nil
	case compile.OpStrCat:
		n := int(in.A)
		var sb strings.Builder
		var cost int64
		parts := make([]string, n)
		for i := n - 1; i >= 0; i-- {
			s, cs := t.toS(t.pop())
			cost += cs
			parts[i] = s
		}
		for _, p := range parts {
			sb.WriteString(p)
		}
		o, ac, err := t.allocString(sb.String())
		cost += ac
		if err != nil {
			return cost, err
		}
		t.push(object.RefVal(o))
		f.pc++
		return cost, nil
	case compile.OpGetLocal:
		val, cost, err := t.getLocal(f, in.A, in.B)
		if err != nil {
			return cost, err
		}
		t.push(val)
		f.pc++
		return cost, nil
	case compile.OpSetLocal:
		val := t.pop()
		cost, err := t.setLocal(f, in.A, in.B, val)
		if err != nil {
			return cost, err
		}
		f.pc++
		return cost, nil
	case compile.OpGetIvar:
		val, cost, err := t.getIvar(f, object.SymID(in.A), in.B)
		if err != nil {
			return cost, err
		}
		t.push(val)
		f.pc++
		return cost, nil
	case compile.OpSetIvar:
		val := t.pop()
		cost, err := t.setIvar(f, object.SymID(in.A), in.B, val)
		if err != nil {
			return cost, err
		}
		f.pc++
		return cost, nil
	case compile.OpGetCvar:
		val, cost, err := t.getCvar(f, object.SymID(in.A))
		if err != nil {
			return cost, err
		}
		t.push(val)
		f.pc++
		return cost, nil
	case compile.OpSetCvar:
		val := t.pop()
		cost, err := t.setCvar(f, object.SymID(in.A), val)
		if err != nil {
			return cost, err
		}
		f.pc++
		return cost, nil
	case compile.OpGetGlobal:
		addr := v.globalAddr(object.SymID(in.A))
		t.push(object.FromWord(t.acc.Load(addr)))
		f.pc++
		return c.LocalEnv, nil
	case compile.OpSetGlobal:
		addr := v.globalAddr(object.SymID(in.A))
		t.acc.Store(addr, t.pop().Word())
		f.pc++
		return c.LocalEnv, nil
	case compile.OpGetConst:
		val, ok := v.consts[object.SymID(in.A)]
		if !ok {
			return 0, fmt.Errorf("uninitialized constant %s", v.Syms.Name(object.SymID(in.A)))
		}
		t.push(val)
		f.pc++
		return c.LocalGo, nil
	case compile.OpSetConst:
		if t.inAnyTx() {
			t.restrictedOp()
			return 0, errRedo
		}
		v.consts[object.SymID(in.A)] = t.pop()
		f.pc++
		return c.LocalGo, nil
	case compile.OpNewArray:
		n := int(in.A)
		o, cost, err := t.allocArray(n)
		if err != nil {
			return cost, err
		}
		base := simmem.Addr(t.acc.Load(o.AddrOf(object.SlotA)).Bits)
		for i := n - 1; i >= 0; i-- {
			t.acc.Store(base+simmem.Addr(i*simmem.WordBytes), t.pop().Word())
		}
		t.acc.Store(o.AddrOf(object.SlotB), simmem.Word{Bits: uint64(n)})
		t.push(object.RefVal(o))
		f.pc++
		return cost + int64(n)*4, nil
	case compile.OpNewHash:
		n := int(in.A)
		o, cost, err := t.allocHash(n * 2)
		if err != nil {
			return cost, err
		}
		// Pairs are on the stack in order; insert from the bottom.
		basePairs := t.sp - int32(n*2)
		for i := 0; i < n; i++ {
			key := t.stack[basePairs+int32(i*2)]
			val := t.stack[basePairs+int32(i*2)+1]
			hc, err := t.hashSet(o, key, val)
			cost += hc
			if err != nil {
				return cost, err
			}
		}
		t.sp = basePairs
		t.push(object.RefVal(o))
		f.pc++
		return cost, nil
	case compile.OpNewRange:
		hi := t.pop()
		lo := t.pop()
		o, err := t.allocObject(object.TRange, v.typeClass[object.TRange])
		if err != nil {
			return c.Alloc, err
		}
		t.acc.Store(o.AddrOf(object.SlotA), lo.Word())
		t.acc.Store(o.AddrOf(object.SlotB), hi.Word())
		t.acc.Store(o.AddrOf(object.SlotC), simmem.Word{Bits: uint64(in.A)})
		t.push(object.RefVal(o))
		f.pc++
		return c.Alloc, nil
	case compile.OpPop:
		t.pop()
		f.pc++
	case compile.OpDup:
		t.push(t.peek(0))
		f.pc++
	case compile.OpJump:
		f.pc = in.A
	case compile.OpBranchIf:
		if t.pop().Truthy() {
			f.pc = in.A
		} else {
			f.pc++
		}
	case compile.OpBranchUnless:
		if !t.pop().Truthy() {
			f.pc = in.A
		} else {
			f.pc++
		}
	case compile.OpOptNot:
		val := t.pop()
		t.push(object.BoolVal(!val.Truthy()))
		f.pc++
		return c.FixnumOp, nil
	case compile.OpOptNeg:
		return t.execNeg(f)
	case compile.OpOptPlus, compile.OpOptMinus, compile.OpOptMult, compile.OpOptDiv,
		compile.OpOptMod, compile.OpOptEq, compile.OpOptNeq, compile.OpOptLt,
		compile.OpOptLe, compile.OpOptGt, compile.OpOptGe:
		return t.execBinop(f, in, now)
	case compile.OpOptLtLt:
		return t.execShovel(f, in, now)
	case compile.OpOptAref:
		return t.execAref(f, in, now)
	case compile.OpOptAset:
		return t.execAset(f, in, now)
	case compile.OpSend:
		return t.doSend(f, in, now)
	case compile.OpInvokeBlock:
		return t.doInvokeBlock(f, in, now)
	case compile.OpLeave:
		val := t.pop()
		if f.retOverride != nil {
			val = *f.retOverride
		}
		t.sp = f.base
		if len(t.frames) == 1 {
			t.result = val
			t.popFrame()
			t.resume = rsFinish
			return 0, nil
		}
		t.popFrame()
		t.push(val)
	case compile.OpDefineMethod:
		if t.inAnyTx() {
			t.restrictedOp()
			return 0, errRedo
		}
		cls := v.defTarget(f.self)
		child := f.iseq.Children[in.C]
		cls.Define(object.SymID(in.A), &object.Method{
			Name:  object.SymID(in.A),
			Arity: child.Params,
			Code:  child,
		})
		// Bump the VM-wide method state: inline caches filled under the old
		// serial must miss, or a redefined method would keep dispatching
		// its stale body through warm call sites.
		v.methodSerial++
		f.pc++
		return c.HashOp, nil
	case compile.OpDefineClass:
		if t.inAnyTx() {
			t.restrictedOp()
			return 0, errRedo
		}
		var super *object.RClass
		if in.B >= 0 {
			sv, ok := v.consts[object.SymID(in.B)]
			if !ok || sv.Kind != object.KRef || sv.Ref.Type != object.TClass {
				return 0, fmt.Errorf("undefined superclass %s", v.Syms.Name(object.SymID(in.B)))
			}
			super = sv.Ref.Cls
		}
		cls := v.DefineClass(v.Syms.Name(object.SymID(in.A)), super)
		child := f.iseq.Children[in.C]
		f.pc++
		if err := t.pushFrame(child, object.RefVal(cls.Obj), object.Nil, BlockArg{}, nil, now); err != nil {
			f.pc--
			return 0, err
		}
		return c.SendBase, nil
	default:
		return 0, fmt.Errorf("unimplemented opcode %v", in.Op)
	}
	return 0, nil
}

// rsFinish marks a thread whose last frame returned.
const rsFinish resumeKind = 200

// defTarget returns the class a `def` inside self's context targets.
func (v *VM) defTarget(self object.Value) *object.RClass {
	if self.Kind == object.KRef && self.Ref.Type == object.TClass {
		return self.Ref.Cls
	}
	return v.ObjectClass
}

// ---------------------------------------------------------------------------
// Numeric and polymorphic operators.

func (t *RThread) floatOf(val object.Value) (float64, bool) {
	switch val.Kind {
	case object.KFixnum:
		return float64(val.Fix), true
	case object.KRef:
		if val.Ref.Type == object.TFloat {
			return floatFromBits(t.acc.Load(val.Ref.AddrOf(object.SlotA)).Bits), true
		}
	}
	return 0, false
}

func (t *RThread) isFloat(val object.Value) bool {
	return val.Kind == object.KRef && val.Ref.Type == object.TFloat
}

// allocFloat boxes a float (the allocation traffic central to the paper's
// NPB results: CRuby 1.9 heap-allocates every Float result).
func (t *RThread) allocFloat(fl float64) (object.Value, int64, error) {
	o, err := t.allocObject(object.TFloat, t.vm.typeClass[object.TFloat])
	if err != nil {
		return object.Nil, t.vm.Costs.Alloc, err
	}
	t.acc.Store(o.AddrOf(object.SlotA), simmem.Word{Bits: floatBits(fl)})
	return object.RefVal(o), t.vm.Costs.Alloc + t.vm.Costs.FloatOp, nil
}

func (t *RThread) execNeg(f *Frame) (int64, error) {
	val := t.peek(0)
	switch {
	case val.Kind == object.KFixnum:
		t.pop()
		t.push(object.FixVal(-val.Fix))
		f.pc++
		return t.vm.Costs.FixnumOp, nil
	case t.isFloat(val):
		fl, _ := t.floatOf(val)
		t.pop()
		res, cost, err := t.allocFloat(-fl)
		if err != nil {
			return cost, err
		}
		t.push(res)
		f.pc++
		return cost, nil
	default:
		return 0, fmt.Errorf("cannot negate %s", t.typeName(val))
	}
}

func (t *RThread) execBinop(f *Frame, in *compile.Instr, now int64) (int64, error) {
	c := &t.vm.Costs
	b := t.peek(0)
	a := t.peek(1)
	// Fixnum fast path.
	if a.Kind == object.KFixnum && b.Kind == object.KFixnum {
		var res object.Value
		switch in.Op {
		case compile.OpOptPlus:
			res = object.FixVal(a.Fix + b.Fix)
		case compile.OpOptMinus:
			res = object.FixVal(a.Fix - b.Fix)
		case compile.OpOptMult:
			res = object.FixVal(a.Fix * b.Fix)
		case compile.OpOptDiv:
			if b.Fix == 0 {
				return 0, fmt.Errorf("divided by 0")
			}
			res = object.FixVal(floorDiv(a.Fix, b.Fix))
		case compile.OpOptMod:
			if b.Fix == 0 {
				return 0, fmt.Errorf("divided by 0")
			}
			res = object.FixVal(floorMod(a.Fix, b.Fix))
		case compile.OpOptEq:
			res = object.BoolVal(a.Fix == b.Fix)
		case compile.OpOptNeq:
			res = object.BoolVal(a.Fix != b.Fix)
		case compile.OpOptLt:
			res = object.BoolVal(a.Fix < b.Fix)
		case compile.OpOptLe:
			res = object.BoolVal(a.Fix <= b.Fix)
		case compile.OpOptGt:
			res = object.BoolVal(a.Fix > b.Fix)
		case compile.OpOptGe:
			res = object.BoolVal(a.Fix >= b.Fix)
		}
		t.pop()
		t.pop()
		t.push(res)
		f.pc++
		return c.FixnumOp, nil
	}
	// Float path (with Fixnum coercion).
	if t.isFloat(a) || t.isFloat(b) {
		af, aok := t.floatOf(a)
		bf, bok := t.floatOf(b)
		if aok && bok {
			var boolRes object.Value
			isBool := true
			switch in.Op {
			case compile.OpOptEq:
				boolRes = object.BoolVal(af == bf)
			case compile.OpOptNeq:
				boolRes = object.BoolVal(af != bf)
			case compile.OpOptLt:
				boolRes = object.BoolVal(af < bf)
			case compile.OpOptLe:
				boolRes = object.BoolVal(af <= bf)
			case compile.OpOptGt:
				boolRes = object.BoolVal(af > bf)
			case compile.OpOptGe:
				boolRes = object.BoolVal(af >= bf)
			default:
				isBool = false
			}
			if isBool {
				t.pop()
				t.pop()
				t.push(boolRes)
				f.pc++
				return c.FloatOp, nil
			}
			var fl float64
			switch in.Op {
			case compile.OpOptPlus:
				fl = af + bf
			case compile.OpOptMinus:
				fl = af - bf
			case compile.OpOptMult:
				fl = af * bf
			case compile.OpOptDiv:
				fl = af / bf
			case compile.OpOptMod:
				fl = floatMod(af, bf)
			}
			res, cost, err := t.allocFloat(fl)
			if err != nil {
				return cost, err
			}
			t.pop()
			t.pop()
			t.push(res)
			f.pc++
			return cost, nil
		}
	}
	// String paths.
	if t.isString(a) && t.isString(b) {
		switch in.Op {
		case compile.OpOptPlus:
			o, cost, err := t.allocString(a.Ref.Str + b.Ref.Str)
			if err != nil {
				return cost, err
			}
			t.pop()
			t.pop()
			t.push(object.RefVal(o))
			f.pc++
			return cost, nil
		case compile.OpOptEq, compile.OpOptNeq, compile.OpOptLt, compile.OpOptLe, compile.OpOptGt, compile.OpOptGe:
			cmp := strings.Compare(a.Ref.Str, b.Ref.Str)
			var res bool
			switch in.Op {
			case compile.OpOptEq:
				res = cmp == 0
			case compile.OpOptNeq:
				res = cmp != 0
			case compile.OpOptLt:
				res = cmp < 0
			case compile.OpOptLe:
				res = cmp <= 0
			case compile.OpOptGt:
				res = cmp > 0
			case compile.OpOptGe:
				res = cmp >= 0
			}
			t.pop()
			t.pop()
			t.push(object.BoolVal(res))
			f.pc++
			return int64(len(a.Ref.Str)/8) + c.FixnumOp, nil
		}
	}
	// Generic equality on identical kinds.
	if in.Op == compile.OpOptEq || in.Op == compile.OpOptNeq {
		eq := valueEq(a, b)
		t.pop()
		t.pop()
		if in.Op == compile.OpOptEq {
			t.push(object.BoolVal(eq))
		} else {
			t.push(object.BoolVal(!eq))
		}
		f.pc++
		return c.FixnumOp, nil
	}
	// Fall back to a real method send (user-defined operators).
	return t.sendGeneric(f, object.SymID(in.A), 1, -1, in.D, now)
}

func valueEq(a, b object.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case object.KNil, object.KTrue, object.KFalse:
		return true
	case object.KFixnum, object.KSymbol:
		return a.Fix == b.Fix
	default:
		return a.Ref == b.Ref
	}
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func floorMod(a, b int64) int64 {
	m := a % b
	if m != 0 && ((a < 0) != (b < 0)) {
		m += b
	}
	return m
}

func floatMod(a, b float64) float64 {
	m := a - b*float64(int64(a/b))
	return m
}

func (t *RThread) isString(val object.Value) bool {
	return val.Kind == object.KRef && val.Ref.Type == object.TString
}

func (t *RThread) isArray(val object.Value) bool {
	return val.Kind == object.KRef && val.Ref.Type == object.TArray
}

func (t *RThread) isHash(val object.Value) bool {
	return val.Kind == object.KRef && val.Ref.Type == object.THash
}

func (t *RThread) typeName(val object.Value) string {
	switch val.Kind {
	case object.KNil:
		return "NilClass"
	case object.KTrue, object.KFalse:
		return "Boolean"
	case object.KFixnum:
		return "Fixnum"
	case object.KSymbol:
		return "Symbol"
	default:
		if val.Ref.Class != nil {
			return val.Ref.Class.Name
		}
		return "Object"
	}
}

func (t *RThread) execShovel(f *Frame, in *compile.Instr, now int64) (int64, error) {
	c := &t.vm.Costs
	val := t.peek(0)
	recv := t.peek(1)
	switch {
	case t.isArray(recv):
		cost, err := t.arrayPush(recv.Ref, val)
		if err != nil {
			return cost, err
		}
		t.pop()
		t.pop()
		t.push(recv)
		f.pc++
		return cost + c.Aset, nil
	case t.isString(recv):
		s, cost := t.toS(val)
		o, ac, err := t.allocString(recv.Ref.Str + s)
		cost += ac
		if err != nil {
			return cost, err
		}
		t.pop()
		t.pop()
		t.push(object.RefVal(o))
		f.pc++
		return cost, nil
	case recv.Kind == object.KFixnum && val.Kind == object.KFixnum:
		t.pop()
		t.pop()
		t.push(object.FixVal(recv.Fix << uint(val.Fix&63)))
		f.pc++
		return c.FixnumOp, nil
	default:
		return t.sendGeneric(f, object.SymID(in.A), 1, -1, in.D, now)
	}
}

func (t *RThread) execAref(f *Frame, in *compile.Instr, now int64) (int64, error) {
	c := &t.vm.Costs
	idx := t.peek(0)
	recv := t.peek(1)
	switch {
	case t.isArray(recv) && idx.Kind == object.KFixnum:
		val, cost := t.arrayGet(recv.Ref, idx.Fix)
		t.pop()
		t.pop()
		t.push(val)
		f.pc++
		return cost + c.Aref, nil
	case t.isHash(recv):
		val, cost, err := t.hashGet(recv.Ref, idx)
		if err != nil {
			return cost, err
		}
		t.pop()
		t.pop()
		t.push(val)
		f.pc++
		return cost, nil
	case t.isString(recv) && idx.Kind == object.KFixnum:
		s := recv.Ref.Str
		i := idx.Fix
		if i < 0 {
			i += int64(len(s))
		}
		var sub string
		if i >= 0 && i < int64(len(s)) {
			sub = s[i : i+1]
		}
		o, cost, err := t.allocString(sub)
		if err != nil {
			return cost, err
		}
		t.pop()
		t.pop()
		t.push(object.RefVal(o))
		f.pc++
		return cost, nil
	default:
		return t.sendGeneric(f, object.SymID(in.A), 1, -1, in.D, now)
	}
}

func (t *RThread) execAset(f *Frame, in *compile.Instr, now int64) (int64, error) {
	c := &t.vm.Costs
	val := t.peek(0)
	idx := t.peek(1)
	recv := t.peek(2)
	switch {
	case t.isArray(recv) && idx.Kind == object.KFixnum:
		cost, err := t.arraySet(recv.Ref, idx.Fix, val)
		if err != nil {
			return cost, err
		}
		t.pop()
		t.pop()
		t.pop()
		t.push(val)
		f.pc++
		return cost + c.Aset, nil
	case t.isHash(recv):
		cost, err := t.hashSet(recv.Ref, idx, val)
		if err != nil {
			return cost, err
		}
		t.pop()
		t.pop()
		t.pop()
		t.push(val)
		f.pc++
		return cost, nil
	default:
		return t.sendGeneric(f, object.SymID(in.A), 2, -1, in.D, now)
	}
}

// ---------------------------------------------------------------------------
// Sends.

func (t *RThread) doSend(f *Frame, in *compile.Instr, now int64) (int64, error) {
	return t.sendGeneric(f, object.SymID(in.A), in.B, in.C, in.D, now)
}

// sendGeneric dispatches mid on the receiver below argc arguments.
func (t *RThread) sendGeneric(f *Frame, mid object.SymID, argc int32, blkIdx int32, icSlot int32, now int64) (int64, error) {
	v := t.vm
	c := &v.Costs
	cost := c.SendBase + c.SendArg*int64(argc)
	recv := t.peek(argc)

	var m *object.Method
	classRecv := recv.Kind == object.KRef && recv.Ref.Type == object.TClass
	if classRecv {
		// Class-level send: the inline cache guards on the class object
		// identity (each class object is unique).
		icA := v.icAddr(f.iseq, icSlot)
		guard := t.acc.Load(icA)
		if guard.Ref == any(recv.Ref) && guard.Bits == v.methodSerial {
			m = t.acc.Load(icA + simmem.WordBytes).Ref.(*object.Method)
		} else {
			cost += c.SendMiss
			if sm, ok := statics(recv.Ref.Cls)[mid]; ok {
				m = sm
			} else if v.ClassClass != nil {
				m = v.ClassClass.Lookup(mid)
			}
			if m != nil && (!v.Opt.FillOnceInlineCaches || guard.Ref == nil) {
				t.acc.Store(icA, simmem.Word{Bits: v.methodSerial, Ref: recv.Ref})
				t.acc.Store(icA+simmem.WordBytes, simmem.Word{Ref: m})
			}
		}
	} else {
		cls := v.classOf(recv)
		if cls == nil {
			return cost, fmt.Errorf("no class for receiver in call to %s", v.Syms.Name(mid))
		}
		icA := v.icAddr(f.iseq, icSlot)
		guard := t.acc.Load(icA)
		hit := guard.Ref == any(cls) && guard.Bits == v.methodSerial
		if MutUnguardedIC && v.Opt.Mode == ModeHTM && guard.Ref != nil {
			// Seeded bug (mutation builds only): use whatever the cache
			// holds without comparing the guard — a racily shared call
			// site dispatches another class's method.
			hit = true
		}
		if hit {
			m = t.acc.Load(icA + simmem.WordBytes).Ref.(*object.Method)
		} else {
			cost += c.SendMiss
			m = cls.Lookup(mid)
			if m != nil && (!v.Opt.FillOnceInlineCaches || guard.Ref == nil) {
				t.acc.Store(icA, simmem.Word{Bits: v.methodSerial, Ref: cls})
				t.acc.Store(icA+simmem.WordBytes, simmem.Word{Ref: m})
			}
		}
	}
	if m == nil {
		// Proc#call is dispatched inline: the proc's body runs as a frame.
		if recv.Kind == object.KRef && recv.Ref.Type == object.TProc && v.Syms.Name(mid) == "call" {
			pd := recv.Ref.Native.(*procData)
			args := make([]object.Value, argc)
			copy(args, t.stack[t.sp-argc:t.sp])
			t.sp -= argc + 1
			f.pc++
			if err := t.pushFrame(pd.iseq, pd.self, pd.env, BlockArg{}, args, now); err != nil {
				f.pc--
				t.sp += argc + 1
				return cost, err
			}
			return cost + c.BlockInvoke, nil
		}
		return cost, fmt.Errorf("undefined method `%s' for %s", v.Syms.Name(mid), t.typeName(recv))
	}

	var blk BlockArg
	if blkIdx >= 0 {
		blk = BlockArg{iseq: f.iseq.Children[blkIdx], env: f.env, self: f.self}
		if !f.iseq.Escapes {
			return cost, fmt.Errorf("internal: block in non-escaping iseq %s", f.iseq.Name)
		}
	}

	if nm, ok := m.Native.(*NativeMethod); ok {
		if nm.Blocking && t.inAnyTx() {
			t.restrictedOp()
			return cost, errRedo
		}
		if m.Arity >= 0 && int32(m.Arity) != argc {
			return cost, fmt.Errorf("wrong number of arguments to %s (given %d, expected %d)",
				v.Syms.Name(mid), argc, m.Arity)
		}
		args := t.stack[t.sp-argc : t.sp]
		ret, err := nm.Fn(t, recv, args, blk, now)
		cost += nm.Cycles
		if err == errFramePushed {
			// The native completed the send itself (see callAfterNative).
			return cost, nil
		}
		if err != nil {
			return cost, err
		}
		t.sp -= argc + 1
		t.push(ret)
		f.pc++
		return cost, nil
	}

	iseq := m.Code.(*compile.ISeq)
	if int(argc) != iseq.Params {
		return cost, fmt.Errorf("wrong number of arguments to %s (given %d, expected %d)",
			v.Syms.Name(mid), argc, iseq.Params)
	}
	args := make([]object.Value, argc)
	copy(args, t.stack[t.sp-argc:t.sp])
	t.sp -= argc + 1
	f.pc++
	if err := t.pushFrame(iseq, recv, object.Nil, blk, args, now); err != nil {
		f.pc--
		t.sp += argc + 1
		return cost, err
	}
	return cost, nil
}

// doInvokeBlock implements yield.
func (t *RThread) doInvokeBlock(f *Frame, in *compile.Instr, now int64) (int64, error) {
	c := &t.vm.Costs
	blk := f.block
	if !blk.valid() {
		return 0, fmt.Errorf("no block given (yield) in %s", f.iseq.Name)
	}
	argc := in.A
	args := make([]object.Value, argc)
	copy(args, t.stack[t.sp-argc:t.sp])
	t.sp -= argc
	f.pc++
	if err := t.pushFrame(blk.iseq, blk.self, blk.env, BlockArg{}, args, now); err != nil {
		f.pc--
		t.sp += argc
		return 0, err
	}
	return c.BlockInvoke, nil
}

// callProcValue invokes a TProc object (thread bodies). Used at thread
// start; normal block invocation goes through BlockArg.
type procData struct {
	iseq *compile.ISeq
	env  object.Value
	self object.Value
}

// toS converts a value to its display string, charging cycles for the
// traversal (float reads go through simulated memory).
func (t *RThread) toS(val object.Value) (string, int64) {
	switch val.Kind {
	case object.KNil:
		return "", 2
	case object.KTrue:
		return "true", 2
	case object.KFalse:
		return "false", 2
	case object.KFixnum:
		return strconv.FormatInt(val.Fix, 10), 8
	case object.KSymbol:
		return t.vm.Syms.Name(object.SymID(val.Fix)), 4
	default:
		switch val.Ref.Type {
		case object.TString:
			return val.Ref.Str, 2
		case object.TFloat:
			fl, _ := t.floatOf(val)
			s := strconv.FormatFloat(fl, 'g', -1, 64)
			if !strings.ContainsAny(s, ".eE") {
				s += ".0"
			}
			return s, 12
		case object.TArray:
			n := t.arrayLen(val.Ref)
			parts := make([]string, n)
			var cost int64 = 8
			for i := int64(0); i < n; i++ {
				el, _ := t.arrayGet(val.Ref, i)
				s, cs := t.toS(el)
				parts[i] = s
				cost += cs
			}
			return "[" + strings.Join(parts, ", ") + "]", cost
		case object.TRange:
			lo := object.FromWord(t.acc.Load(val.Ref.AddrOf(object.SlotA)))
			hi := object.FromWord(t.acc.Load(val.Ref.AddrOf(object.SlotB)))
			ls, c1 := t.toS(lo)
			hs, c2 := t.toS(hi)
			return ls + ".." + hs, c1 + c2
		default:
			return "#<" + t.typeName(val) + ">", 4
		}
	}
}

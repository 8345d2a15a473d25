package vm

import "htmgil/internal/compile"

// Costs is the virtual-cycle cost model of the interpreter. The absolute
// numbers are calibrated so that the *ratios* the paper depends on hold:
// bytecode dispatch in CRuby costs on the order of 50–200 cycles, so a
// transaction begin+end pair (~200 cycles) is crippling at length 1 and
// negligible at length 16+ (Section 5.4), and the yield-point check itself
// costs a few percent (Section 5.6 reports 5–14% for the checks plus new
// yield points).
type Costs struct {
	DispatchBase int64 // every bytecode pays this
	YieldCheck   int64 // extra cost on yield-point-flagged bytecodes

	LocalGo     int64 // local access in host frame storage
	LocalEnv    int64 // local access through a heap environment
	IvarHit     int64 // inline-cache hit
	IvarMiss    int64 // hash lookup + cache fill
	SendBase    int64 // method dispatch (plus per-argument cost)
	SendArg     int64
	SendMiss    int64 // method-table walk on inline-cache miss
	NativeBase  int64 // native method invocation overhead
	BlockInvoke int64
	FixnumOp    int64 // fixnum fast path arithmetic
	FloatOp     int64 // float op excluding the boxing allocation
	Alloc       int64 // object allocation fast path
	ArenaAlloc  int64 // buffer allocation
	Aref        int64
	Aset        int64
	Branch      int64
	PutLit      int64
	StrPerWord  int64 // string payload shadow-write per 8 bytes
	HashOp      int64
}

// DefaultCosts returns the calibrated cost model.
func DefaultCosts() Costs {
	return Costs{
		DispatchBase: 45,
		YieldCheck:   4,
		LocalGo:      6,
		LocalEnv:     14,
		IvarHit:      18,
		IvarMiss:     90,
		SendBase:     110,
		SendArg:      6,
		SendMiss:     160,
		NativeBase:   60,
		BlockInvoke:  80,
		FixnumOp:     10,
		FloatOp:      22,
		Alloc:        35,
		ArenaAlloc:   40,
		Aref:         16,
		Aset:         18,
		Branch:       5,
		PutLit:       5,
		StrPerWord:   4,
		HashOp:       45,
	}
}

// baseCosts returns the flat cost of every opcode — DispatchBase plus the
// per-class extra — as the table the dispatcher indexes; the dynamic costs
// are added during execution.
func (c *Costs) baseCosts() (tab [compile.NumOps]int64) {
	for op := range tab {
		tab[op] = c.DispatchBase
		switch compile.Op(op) {
		case compile.OpJump, compile.OpBranchIf, compile.OpBranchUnless:
			tab[op] += c.Branch
		case compile.OpPutNil, compile.OpPutTrue, compile.OpPutFalse,
			compile.OpPutSelf, compile.OpPutInt, compile.OpPutSym,
			compile.OpPutFloat, compile.OpPop, compile.OpDup:
			tab[op] += c.PutLit
		}
	}
	return tab
}

// Package compile translates the mini-Ruby AST into YARV-style stack
// bytecode and marks yield points.
//
// Yield points are where the GIL can be yielded and where HTM transactions
// may end and begin. Following the paper:
//
//   - original CRuby yield points: loop back-edges (backward jumps) and
//     method/block exits (leave);
//   - the paper's additional fine-grained yield points (Section 4.2):
//     getlocal, getinstancevariable, getclassvariable, send, opt_plus,
//     opt_minus, opt_mult and opt_aref.
//
// Every yield-point instruction receives a globally dense id used by the
// dynamic transaction-length adjustment to keep per-yield-point statistics,
// and every send/ivar-access site receives an inline-cache slot which the
// VM materializes in simulated memory.
package compile

import (
	"fmt"

	"htmgil/internal/object"
)

// Op is a bytecode opcode.
type Op uint8

// Opcodes.
const (
	OpNop Op = iota
	OpPutNil
	OpPutTrue
	OpPutFalse
	OpPutSelf
	OpPutInt   // Imm: the integer
	OpPutFloat // A: float pool index (pooled object, allocated at load)
	OpPutStr   // A: string pool index (allocates a fresh string)
	OpPutSym   // A: symbol id
	OpGetLocal // A: slot, B: depth   [extended yield point]
	OpSetLocal // A: slot, B: depth
	OpGetIvar  // A: symbol, B: inline cache slot  [extended yield point]
	OpSetIvar  // A: symbol, B: inline cache slot
	OpGetCvar  // A: symbol           [extended yield point]
	OpSetCvar  // A: symbol
	OpGetGlobal
	OpSetGlobal
	OpGetConst
	OpSetConst
	OpNewArray // A: element count
	OpNewHash  // A: pair count
	OpNewRange // A: 1 = exclusive
	OpPop
	OpDup
	OpStrCat      // A: segment count; converts segments with to_s and concatenates
	OpSend        // A: symbol, B: argc, C: child block index or -1, D: IC slot [extended yield point]
	OpInvokeBlock // A: argc (yield)
	OpLeave       // return from the current iseq [original yield point]
	OpReturnVal   // return from the current method (block bodies disallow it)
	OpJump        // A: target pc [original yield point when backward]
	OpBranchIf    // A: target pc
	OpBranchUnless
	OpOptPlus  // A: fallback symbol, D: IC [extended yield point]
	OpOptMinus // [extended yield point]
	OpOptMult  // [extended yield point]
	OpOptDiv
	OpOptMod
	OpOptEq
	OpOptNeq
	OpOptLt
	OpOptLe
	OpOptGt
	OpOptGe
	OpOptAref // [extended yield point]
	OpOptAset
	OpOptLtLt // << shovel: array push / string concat
	OpOptNot
	OpOptNeg
	OpDefineMethod // A: symbol, C: child iseq index
	OpDefineClass  // A: name symbol, B: super symbol or -1, C: child iseq index

	NumOps // number of opcodes; sizes per-opcode tables
)

// YPKind classifies a yield point.
type YPKind uint8

// Yield-point kinds.
const (
	YPNone     YPKind = iota
	YPOriginal        // back-edges and leaves: CRuby's original yield points
	YPExtended        // the paper's additional per-bytecode yield points
)

// Instr is one bytecode instruction.
type Instr struct {
	Op     Op
	A, B   int32
	C, D   int32
	Imm    int64
	YP     int32 // dense yield-point id, -1 when not a yield point
	YPKind YPKind
	Line   int32
}

// ISeq is a compiled instruction sequence: a method body, block body,
// class body, or top-level program.
type ISeq struct {
	Name      string
	Params    int
	NumLocals int
	IsBlock   bool
	// Escapes marks iseqs whose locals live in a heap environment because
	// a block captures them.
	Escapes bool
	Code    []Instr

	Floats   []float64
	Strings  []string
	Children []*ISeq // block bodies, method bodies, class bodies

	NumICs int // inline-cache slots used by this iseq

	// EntryYP is the pseudo-yield-point id for beginning a transaction at
	// iseq entry (thread starts).
	EntryYP int32

	LocalNames []string
}

// YPAlloc hands out globally dense yield-point ids.
type YPAlloc struct{ next int32 }

// Next returns a fresh id.
func (a *YPAlloc) Next() int32 { v := a.next; a.next++; return v }

// Count returns the number of ids allocated so far.
func (a *YPAlloc) Count() int { return int(a.next) }

// Compiler compiles programs, interning symbols into a shared table and
// drawing yield-point ids from a shared allocator so that multiple files
// loaded into one runtime never collide.
type Compiler struct {
	Syms *object.SymTable
	YPs  *YPAlloc
}

// New creates a compiler.
func New(syms *object.SymTable, yps *YPAlloc) *Compiler {
	return &Compiler{Syms: syms, YPs: yps}
}

func (op Op) String() string {
	names := map[Op]string{
		OpNop: "nop", OpPutNil: "putnil", OpPutTrue: "puttrue",
		OpPutFalse: "putfalse", OpPutSelf: "putself", OpPutInt: "putint",
		OpPutFloat: "putfloat", OpPutStr: "putstring", OpPutSym: "putsym",
		OpGetLocal: "getlocal", OpSetLocal: "setlocal",
		OpGetIvar: "getinstancevariable", OpSetIvar: "setinstancevariable",
		OpGetCvar: "getclassvariable", OpSetCvar: "setclassvariable",
		OpGetGlobal: "getglobal", OpSetGlobal: "setglobal",
		OpGetConst: "getconstant", OpSetConst: "setconstant",
		OpNewArray: "newarray", OpNewHash: "newhash", OpNewRange: "newrange",
		OpPop: "pop", OpDup: "dup", OpStrCat: "strcat", OpSend: "send",
		OpInvokeBlock: "invokeblock", OpLeave: "leave", OpReturnVal: "returnval",
		OpJump: "jump", OpBranchIf: "branchif", OpBranchUnless: "branchunless",
		OpOptPlus: "opt_plus", OpOptMinus: "opt_minus", OpOptMult: "opt_mult",
		OpOptDiv: "opt_div", OpOptMod: "opt_mod", OpOptEq: "opt_eq",
		OpOptNeq: "opt_neq", OpOptLt: "opt_lt", OpOptLe: "opt_le",
		OpOptGt: "opt_gt", OpOptGe: "opt_ge", OpOptAref: "opt_aref",
		OpOptAset: "opt_aset", OpOptLtLt: "opt_ltlt", OpOptNot: "opt_not",
		OpOptNeg: "opt_neg", OpDefineMethod: "definemethod",
		OpDefineClass: "defineclass",
	}
	if s, ok := names[op]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

package policy

import (
	"fmt"

	"htmgil/internal/htm"
	"htmgil/internal/simmem"
)

// Params are the tuning constants of Figures 1 and 3, with the paper's
// published values as defaults (see Section 5.1).
type Params struct {
	TransientRetryMax int     // retries of transiently aborted transactions (3)
	GILRetryMax       int     // spin-wait rounds on GIL conflicts before acquiring (16)
	InitialLength     int32   // INITIAL_TRANSACTION_LENGTH (255)
	ProfilingPeriod   int32   // transactions profiled per yield point (300)
	AdjustThreshold   int32   // aborts tolerated within a profiling period (3 or 18)
	AttenuationRate   float64 // length multiplier on adjustment (0.75)

	// ConstantLength, when > 0, disables the dynamic adjustment and runs
	// every transaction with this fixed length (the paper's HTM-1, HTM-16
	// and HTM-256 configurations).
	ConstantLength int32
}

// DefaultParams returns the paper's constants for the given machine profile
// (the adjustment threshold differs between zEC12 and Xeon).
func DefaultParams(prof *htm.Profile) Params {
	return Params{
		TransientRetryMax: 3,
		GILRetryMax:       16,
		InitialLength:     255,
		ProfilingPeriod:   int32(prof.ProfilingPeriod),
		AdjustThreshold:   int32(prof.AdjustmentThreshold),
		AttenuationRate:   0.75,
	}
}

// Paper is the paper's contention-management algorithm: Figure 1's retry
// state machine combined with Figure 3's dynamic per-yield-point
// transaction-length adjustment. With Params.ConstantLength > 0 it becomes
// the fixed-length HTM-N configuration (the length table stays untouched).
type Paper struct {
	Params Params
	name   string

	lengths    []int32
	txCounter  []int32
	abortCount []int32
}

// NewPaperDynamic builds the dynamic-length policy of the paper.
func NewPaperDynamic(p Params) *Paper {
	p.ConstantLength = 0
	return &Paper{Params: p, name: "paper-dynamic"}
}

// NewFixedLength builds the fixed-length HTM-N configuration.
func NewFixedLength(p Params, n int32) *Paper {
	if n < 1 {
		panic(fmt.Sprintf("policy: invalid fixed length %d", n))
	}
	p.ConstantLength = n
	return &Paper{Params: p, name: fmt.Sprintf("fixed-%d", n)}
}

// paperThread is the per-thread retry state of Figure 1.
type paperThread struct {
	transientRetry int
	gilRetry       int
	firstRetry     bool
}

// Name implements Policy.
func (p *Paper) Name() string { return p.name }

// NewThread implements Policy.
func (p *Paper) NewThread() ThreadState { return &paperThread{} }

// grow ensures the per-PC tables cover pc (programs can load code at
// runtime, adding yield points).
func (p *Paper) grow(pc int) {
	for pc >= len(p.lengths) {
		p.lengths = append(p.lengths, 0)
		p.txCounter = append(p.txCounter, 0)
		p.abortCount = append(p.abortCount, 0)
	}
}

// LengthAt returns the current transaction length for a yield point
// (Figure 3 semantics: 0 means not yet initialized).
func (p *Paper) LengthAt(pc int) int32 {
	if pc < len(p.lengths) {
		return p.lengths[pc]
	}
	return 0
}

// Lengths implements Policy: a copy of the per-yield-point length table.
func (p *Paper) Lengths() []int32 {
	out := make([]int32, len(p.lengths))
	copy(out, p.lengths)
	return out
}

// setLength implements set_transaction_length of Figure 3 and returns the
// chosen length.
func (p *Paper) setLength(pc int) int32 {
	if p.Params.ConstantLength > 0 {
		return p.Params.ConstantLength
	}
	p.grow(pc)
	if p.lengths[pc] == 0 {
		p.lengths[pc] = p.Params.InitialLength
	}
	l := p.lengths[pc]
	if p.txCounter[pc] < p.Params.ProfilingPeriod {
		p.txCounter[pc]++
	}
	return l
}

// adjust implements adjust_transaction_length of Figure 3, called on the
// first retry of an aborted transaction.
func (p *Paper) adjust(rt Runtime, pc int) {
	if p.Params.ConstantLength > 0 {
		return
	}
	p.grow(pc)
	// Figure 3 line 14 as written never ends the profiling period because
	// line 8 caps the counter at PROFILING_PERIOD; the text makes the
	// intent clear ("before the PROFILING_PERIOD number of transactions
	// began"), so monitoring stops once the counter saturates.
	if p.lengths[pc] <= 1 || p.txCounter[pc] >= p.Params.ProfilingPeriod {
		return
	}
	if p.abortCount[pc] <= p.Params.AdjustThreshold {
		p.abortCount[pc]++
		return
	}
	old := p.lengths[pc]
	nl := int32(float64(old) * p.Params.AttenuationRate)
	if nl < 1 {
		nl = 1
	}
	p.lengths[pc] = nl
	p.txCounter[pc] = 0
	p.abortCount[pc] = 0
	if rt != nil {
		rt.EmitLenAdjust(pc, old, nl)
	}
}

// OnBegin implements Policy: lines 2-11 of Figure 1.
func (p *Paper) OnBegin(rt Runtime, ts ThreadState, pc, live int) BeginDecision {
	// Lines 2-3: a lone thread needs no concurrency; use the GIL.
	if live <= 1 {
		return BeginDecision{Reason: "single-thread"}
	}
	// Line 5.
	length := p.setLength(pc)
	// Lines 9-11.
	t := ts.(*paperThread)
	t.transientRetry = p.Params.TransientRetryMax
	t.gilRetry = p.Params.GILRetryMax
	t.firstRetry = true
	return BeginDecision{Elide: true, Length: length}
}

// onFirstRetry is lines 17-20 of Figure 1: adjust the length on the first
// retry of a section only.
func (p *Paper) onFirstRetry(rt Runtime, t *paperThread, pc int) {
	if t.firstRetry {
		t.firstRetry = false
		p.adjust(rt, pc)
	}
}

// spinOnGIL is lines 21-27 of Figure 1: the lock at fault is held, so spin
// until its release a bounded number of times, then acquire it.
func (t *paperThread) spinOnGIL() AbortDecision {
	t.gilRetry--
	if t.gilRetry > 0 {
		return AbortDecision{Kind: AbortSpinRetry}
	}
	return AbortDecision{Kind: AbortFallback, Reason: "gil-contention"}
}

// retryTransient is lines 31-35 of Figure 1: retry a transient abort a
// bounded number of times, then take the exhausted decision.
func (t *paperThread) retryTransient(exhausted AbortDecision) AbortDecision {
	t.transientRetry--
	if t.transientRetry > 0 {
		return AbortDecision{Kind: AbortRetry}
	}
	return exhausted
}

// OnAbort implements Policy: lines 16-37 of Figure 1.
func (p *Paper) OnAbort(rt Runtime, ts ThreadState, pc int, tier Tier, cause simmem.AbortCause, gilHeld bool) AbortDecision {
	t := ts.(*paperThread)
	p.onFirstRetry(rt, t, pc)
	switch {
	case gilHeld:
		return t.spinOnGIL()
	case !cause.Transient():
		// Lines 28-29: persistent abort; retrying cannot succeed.
		return AbortDecision{Kind: AbortFallback, Reason: "persistent-abort"}
	default:
		return t.retryTransient(AbortDecision{Kind: AbortFallback, Reason: "retry-exhausted"})
	}
}

// OnCommit implements Policy (the paper's algorithm keeps no success
// statistics beyond the profiling counters maintained at begin time).
func (p *Paper) OnCommit(rt Runtime, ts ThreadState, pc int) {}

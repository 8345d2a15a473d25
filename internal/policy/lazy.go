package policy

import (
	"htmgil/internal/simmem"
)

// Lazy is lock elision with lazy GIL subscription after Dice et al.
// ("Hardware extensions to make lazy subscription safe"): the transaction
// does not read the GIL word at begin time, so a GIL acquisition elsewhere
// does not doom it. Only at commit is the GIL word read into the read set;
// a held GIL then aborts the transaction (and a release between that read
// and retry dooms nothing, because the retry re-subscribes).
//
// The price is the hazard Dice et al. analyse: between begin and commit the
// transaction can read state a GIL-holding thread is mutating non-atomically
// and act on it. The simulator models this with simmem's hazard window
// (Memory.StartHazard/EndHazard, armed by the GIL while HazardTrack is on):
// a transactional access to any line the GIL holder wrote non-transactionally
// dooms the transaction with a conflict, which is the hardware-extension
// behaviour the paper's follow-up work proposes, and keeps the simulated
// execution safe while preserving the policy's concurrency profile.
//
// Length management is the paper's dynamic algorithm unchanged.
type Lazy struct {
	*Paper
}

// NewLazySubscription builds the lazy-subscription policy with the paper's
// length constants.
func NewLazySubscription(p Params) *Lazy {
	return &Lazy{Paper: &Paper{Params: p, name: "lazy-subscription"}}
}

// Name implements Policy.
func (l *Lazy) Name() string { return l.Paper.name }

// LazySubscribes implements LazySubscriber.
func (l *Lazy) LazySubscribes() bool { return true }

// OnBegin implements Policy: paper-style decisions with lazy subscription
// whenever the section is elided.
func (l *Lazy) OnBegin(rt Runtime, ts ThreadState, pc, live int) BeginDecision {
	d := l.Paper.OnBegin(rt, ts, pc, live)
	d.Lazy = d.Elide
	return d
}

// OnAbort implements Policy. A commit-time subscription failure surfaces as
// an explicit abort (the runtime reads the GIL word, sees it held, and
// aborts); it is really a GIL conflict, so it draws on the GIL retry budget
// rather than the transient one. If the GIL is still held we spin on its
// release like Figure 1; if it was already released we retry immediately.
func (l *Lazy) OnAbort(rt Runtime, ts ThreadState, pc int, tier Tier, cause simmem.AbortCause, gilHeld bool) AbortDecision {
	if gilHeld || cause != simmem.CauseExplicit {
		return l.Paper.OnAbort(rt, ts, pc, tier, cause, gilHeld)
	}
	// Commit-time subscription failure, but the holder is gone: retry.
	t := ts.(*paperThread)
	l.onFirstRetry(rt, t, pc)
	t.gilRetry--
	if t.gilRetry > 0 {
		return AbortDecision{Kind: AbortRetry}
	}
	return AbortDecision{Kind: AbortFallback, Reason: "gil-contention"}
}

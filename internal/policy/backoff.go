package policy

import (
	"htmgil/internal/simmem"
)

// Backoff tuning defaults: the first backoff is about the cost of a GIL
// handoff, doubling per attempt up to a cap of a few context switches.
const (
	defaultBackoffBase     = 200
	defaultBackoffCap      = 12800
	defaultBackoffRetryMax = 6
)

// Backoff is an abort-code-aware exponential-backoff policy. It keeps the
// paper's dynamic per-PC length table, but reacts to transient data
// conflicts by parking the aborted thread for an exponentially growing
// number of virtual cycles before retrying, instead of retrying
// immediately. Under simmem's eager requester-wins conflict detection this
// is the friendly reaction: the doomed victim that backs off gives the
// requester that won the line time to commit, instead of immediately
// re-touching the line and dooming it right back.
//
// GIL conflicts keep Figure 1's spin-until-release reaction (backing off a
// fixed duration against a lock is worse than subscribing to its release),
// and persistent aborts fall back to the GIL directly.
type Backoff struct {
	*Paper
	Base     int64 // first backoff duration in virtual cycles
	Cap      int64 // backoff saturation in virtual cycles
	RetryMax int   // backed-off retries before falling back to the GIL
}

// NewExponentialBackoff builds the backoff policy with the paper's length
// constants and the default backoff ladder.
func NewExponentialBackoff(p Params) *Backoff {
	return &Backoff{
		Paper:    &Paper{Params: p, name: "backoff"},
		Base:     defaultBackoffBase,
		Cap:      defaultBackoffCap,
		RetryMax: defaultBackoffRetryMax,
	}
}

type backoffThread struct {
	paperThread
	attempt int
}

// Name implements Policy.
func (b *Backoff) Name() string { return b.Paper.name }

// NewThread implements Policy.
func (b *Backoff) NewThread() ThreadState { return &backoffThread{} }

// OnBegin implements Policy: paper-style length selection plus a reset of
// the backoff ladder.
func (b *Backoff) OnBegin(rt Runtime, ts ThreadState, pc, live int) BeginDecision {
	t := ts.(*backoffThread)
	t.attempt = 0
	return b.Paper.OnBegin(rt, &t.paperThread, pc, live)
}

// OnAbort implements Policy: Figure 1's reactions, except that a transient
// abort parks for an exponentially growing backoff before it retries.
func (b *Backoff) OnAbort(rt Runtime, ts ThreadState, pc int, tier Tier, cause simmem.AbortCause, gilHeld bool) AbortDecision {
	t := ts.(*backoffThread)
	if gilHeld || !cause.Transient() {
		return b.Paper.OnAbort(rt, &t.paperThread, pc, tier, cause, gilHeld)
	}
	b.onFirstRetry(rt, &t.paperThread, pc)
	t.attempt++
	if t.attempt > b.RetryMax {
		return AbortDecision{Kind: AbortFallback, Reason: "retry-exhausted"}
	}
	d := b.Base << uint(t.attempt-1)
	if d > b.Cap {
		d = b.Cap
	}
	return AbortDecision{Kind: AbortBackoff, Backoff: d}
}

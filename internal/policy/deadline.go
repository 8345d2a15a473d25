package policy

import "htmgil/internal/simmem"

// DeadlineReason labels GIL fallbacks forced by an imminent request
// deadline. Like the breaker's forced fallbacks and GIL artifacts, these are
// kept out of the elision breaker's outcome window: the section did not fail
// to elide — its request ran out of clock.
const DeadlineReason = "deadline"

// DeadlineRuntime is the optional Runtime extension the deadline gate
// probes: the remaining virtual cycles until the deadline of the request the
// current thread is serving. Implemented by core.Elision when a deadline
// table is wired; ok is false when the thread serves no deadline-carrying
// request (or the runtime has no deadline source at all).
type DeadlineRuntime interface {
	DeadlineRemaining() (remaining int64, ok bool)
}

// DeadlineGate wraps any Policy with request-deadline awareness: when the
// current request is within slack cycles of its deadline (or already past
// it), speculative execution is no longer worth the gamble — an abort-retry
// cycle could eat the whole remaining budget — so begins are downgraded to
// the GIL and abort reactions to immediate fallback. Guaranteed progress
// beats optimistic throughput when the clock is short, the request-level
// echo of the paper's retry budget bounding optimism inside one transaction.
//
// All other decisions are delegated unchanged, and the inner policy's hooks
// run first so its estimators observe every event.
type DeadlineGate struct {
	inner Policy
	slack int64
}

// NewDeadlineGate wraps inner; slack <= 0 takes a 100k-cycle default
// (resilience.DefaultDeadlineSlack — the value is mirrored here to keep the
// package dependency-free).
func NewDeadlineGate(inner Policy, slack int64) *DeadlineGate {
	if slack <= 0 {
		slack = 100_000
	}
	return &DeadlineGate{inner: inner, slack: slack}
}

// Inner returns the wrapped policy (tests, introspection).
func (g *DeadlineGate) Inner() Policy { return g.inner }

// near reports whether the current request is inside the no-speculation
// window. extra widens the window (a planned backoff must also fit).
func (g *DeadlineGate) near(rt Runtime, extra int64) bool {
	dr, ok := rt.(DeadlineRuntime)
	if !ok {
		return false
	}
	rem, ok := dr.DeadlineRemaining()
	return ok && rem <= g.slack+extra
}

// Name returns "deadline+" plus the inner policy's name.
func (g *DeadlineGate) Name() string { return "deadline+" + g.inner.Name() }

// NewThread delegates to the inner policy.
func (g *DeadlineGate) NewThread() ThreadState { return g.inner.NewThread() }

// OnBegin delegates, then downgrades elision to the GIL when the request is
// near its deadline.
func (g *DeadlineGate) OnBegin(rt Runtime, ts ThreadState, pc, live int) BeginDecision {
	d := g.inner.OnBegin(rt, ts, pc, live)
	if d.Elide && g.near(rt, 0) {
		return BeginDecision{Elide: false, Reason: DeadlineReason}
	}
	return d
}

// OnAbort delegates, then downgrades any retry (including one whose backoff
// alone would overrun the deadline) to the GIL fallback.
func (g *DeadlineGate) OnAbort(rt Runtime, ts ThreadState, pc int, tier Tier, cause simmem.AbortCause, gilHeld bool) AbortDecision {
	d := g.inner.OnAbort(rt, ts, pc, tier, cause, gilHeld)
	if d.Kind != AbortFallback && g.near(rt, d.Backoff) {
		return AbortDecision{Kind: AbortFallback, Reason: DeadlineReason}
	}
	return d
}

// OnCommit delegates to the inner policy.
func (g *DeadlineGate) OnCommit(rt Runtime, ts ThreadState, pc int) {
	g.inner.OnCommit(rt, ts, pc)
}

// Lengths delegates to the inner policy.
func (g *DeadlineGate) Lengths() []int32 { return g.inner.Lengths() }

// LazySubscribes forwards the lazy-subscription probe.
func (g *DeadlineGate) LazySubscribes() bool { return UsesLazySubscription(g.inner) }

// UsesOCC forwards the software-tier probe.
func (g *DeadlineGate) UsesOCC() bool { return UsesOCCTier(g.inner) }

package policy

import (
	"fmt"

	"htmgil/internal/simmem"
)

// OCC tuning defaults.
const (
	defaultOCCLength  = 64  // fixed transaction length in yield points
	defaultOCCWindow  = 100 // outcomes sampled per decision window
	defaultOCCMinRate = 0.5 // minimum commit rate to keep eliding
	defaultOCCCooloff = 50  // GIL-mode sections served before re-probing
)

// OCC is an optimistic-concurrency-control-style adaptive gate after Zhang
// et al. ("Optimistic Concurrency Control for Real-world Go Programs"):
// each yield point is classified by its observed commit rate over a sliding
// window of outcomes. While a site commits often enough it runs hardware-
// elided at a fixed transaction length; when the commit rate of a window
// drops below MinRate the site turns pessimistic and its next Cooloff
// critical sections run in the software-transaction tier (internal/occ) —
// still concurrent, but immune to capacity overflows and interrupts —
// after which the site is probed with hardware elision again.
//
// Hardware aborts that retrying cannot cure (capacity, learning, exhausted
// transient retries) also route the failing section into the software tier
// instead of the GIL; only restricted operations and sustained GIL
// contention still serialize. The result is a three-tier pipeline:
// HTM while it works, OCC while optimism still pays, the GIL only when it
// must.
//
// Unlike the paper's algorithm, which adapts the *length* of transactions,
// OCC adapts the *admission* of transactions — the two react to different
// pathologies (capacity pressure vs. inherent data contention).
type OCC struct {
	*Paper
	Window  int     // outcomes per decision window
	MinRate float64 // commit-rate floor for staying optimistic
	Cooloff int32   // pessimistic sections after a failed window

	sites []occSite
}

// occSite is the per-yield-point admission state.
type occSite struct {
	commits int32
	aborts  int32
	gilLeft int32 // pending pessimistic executions
}

// NewOCCAdaptive builds the OCC admission-gate policy. The fixed length
// rides on Paper's ConstantLength, which also disables length adjustment.
func NewOCCAdaptive(p Params) *OCC {
	p.ConstantLength = defaultOCCLength
	return &OCC{
		Paper:   &Paper{Params: p, name: "occ-adaptive"},
		Window:  defaultOCCWindow,
		MinRate: defaultOCCMinRate,
		Cooloff: defaultOCCCooloff,
	}
}

// Name implements Policy.
func (o *OCC) Name() string { return o.Paper.name }

// site returns the admission state for pc, growing the table on demand.
func (o *OCC) site(pc int) *occSite {
	for pc >= len(o.sites) {
		o.sites = append(o.sites, occSite{})
	}
	return &o.sites[pc]
}

// record folds one outcome into pc's window and closes the window when it
// is full, turning the site pessimistic if the commit rate fell short.
func (o *OCC) record(pc int, committed bool) {
	s := o.site(pc)
	if committed {
		s.commits++
	} else {
		s.aborts++
	}
	total := s.commits + s.aborts
	if int(total) < o.Window {
		return
	}
	if float64(s.commits) < o.MinRate*float64(total) {
		s.gilLeft = o.Cooloff
	}
	s.commits, s.aborts = 0, 0
}

// resetBudgets re-arms the Figure 1 retry budgets for a fresh section.
func resetBudgets(ts ThreadState, p Params) *paperThread {
	t := ts.(*paperThread)
	t.transientRetry = p.TransientRetryMax
	t.gilRetry = p.GILRetryMax
	t.firstRetry = true
	return t
}

// OnBegin implements Policy: the admission gate in front of the paper's
// begin path. Pessimistic sites run in the software tier instead of
// grabbing the GIL.
func (o *OCC) OnBegin(rt Runtime, ts ThreadState, pc, live int) BeginDecision {
	if live <= 1 {
		return BeginDecision{Reason: "single-thread"}
	}
	if s := o.site(pc); s.gilLeft > 0 {
		s.gilLeft--
		resetBudgets(ts, o.Params)
		return BeginDecision{Elide: true, OCC: true, Length: o.Params.ConstantLength}
	}
	return o.Paper.OnBegin(rt, ts, pc, live)
}

// OnAbort implements Policy for both tiers. A held lock keeps Figure 1's
// spin semantics and restricted operations must serialize (the software tier
// cannot run them either). What hardware retry cannot cure — capacity
// overflows, learning dooms, exhausted transient retries — degrades to the
// software tier rather than the GIL; software-tier aborts retry a bounded
// number of times before serializing.
func (o *OCC) OnAbort(rt Runtime, ts ThreadState, pc int, tier Tier, cause simmem.AbortCause, gilHeld bool) AbortDecision {
	o.record(pc, false)
	return tierAbort(ts.(*paperThread), tier, cause, gilHeld)
}

// tierAbort is the abort reaction shared by the policies that use the
// software tier.
func tierAbort(t *paperThread, tier Tier, cause simmem.AbortCause, gilHeld bool) AbortDecision {
	switch {
	case gilHeld:
		return t.spinOnGIL()
	case tier == TierOCC && cause == simmem.CauseRestricted:
		return AbortDecision{Kind: AbortFallback, Reason: "restricted"}
	case tier == TierOCC:
		return t.retryTransient(AbortDecision{Kind: AbortFallback, Reason: "occ-retry-exhausted"})
	case cause == simmem.CauseRestricted:
		return AbortDecision{Kind: AbortFallback, Reason: "persistent-abort"}
	case !cause.Transient():
		// Capacity / learning / explicit: hardware is out of its depth,
		// but the section can still run optimistically in software.
		return AbortDecision{Kind: AbortOCC}
	default:
		return t.retryTransient(AbortDecision{Kind: AbortOCC})
	}
}

// OnCommit implements Policy.
func (o *OCC) OnCommit(rt Runtime, ts ThreadState, pc int) {
	o.record(pc, true)
}

// UsesOCC implements OCCPolicy.
func (o *OCC) UsesOCC() bool { return true }

// OCCFirst routes every multi-thread critical section into the software-
// transaction tier: no hardware transactions at all, the GIL only for
// single-thread execution, restricted operations and retry exhaustion.
// It is the software-TM baseline of the hybrid experiments ("occ-first",
// or "occ-N" for an explicit transaction length) and the explorer's
// handle for forcing software-tier schedules.
type OCCFirst struct {
	Params Params
	name   string
	length int32
}

// NewOCCFirst builds the software-tier-only policy with the given
// transaction length in yield points.
func NewOCCFirst(p Params, length int32) *OCCFirst {
	if length < 1 {
		panic(fmt.Sprintf("policy: invalid occ length %d", length))
	}
	name := "occ-first"
	if length != defaultOCCLength {
		name = fmt.Sprintf("occ-%d", length)
	}
	return &OCCFirst{Params: p, name: name, length: length}
}

// Name implements Policy.
func (o *OCCFirst) Name() string { return o.name }

// NewThread implements Policy.
func (o *OCCFirst) NewThread() ThreadState { return &paperThread{} }

// OnBegin implements Policy: every contended section runs in the tier.
func (o *OCCFirst) OnBegin(rt Runtime, ts ThreadState, pc, live int) BeginDecision {
	if live <= 1 {
		return BeginDecision{Reason: "single-thread"}
	}
	resetBudgets(ts, o.Params)
	return BeginDecision{Elide: true, OCC: true, Length: o.length}
}

// OnAbort implements Policy: bounded retries in the tier, Figure 1's spin
// when the commit was blocked by a held lock, the lock as the last resort.
// The policy never begins hardware transactions, so a hardware abort can only
// come from a hand-driven runtime; serialize.
func (o *OCCFirst) OnAbort(rt Runtime, ts ThreadState, pc int, tier Tier, cause simmem.AbortCause, gilHeld bool) AbortDecision {
	if tier == TierHTM {
		return AbortDecision{Kind: AbortFallback, Reason: "persistent-abort"}
	}
	return tierAbort(ts.(*paperThread), tier, cause, gilHeld)
}

// OnCommit implements Policy.
func (o *OCCFirst) OnCommit(rt Runtime, ts ThreadState, pc int) {}

// Lengths implements Policy.
func (o *OCCFirst) Lengths() []int32 { return nil }

// UsesOCC implements OCCPolicy.
func (o *OCCFirst) UsesOCC() bool { return true }

package policy

import (
	"testing"

	"htmgil/internal/htm"
	"htmgil/internal/simmem"
)

// deadlineRT is a Runtime with a controllable deadline answer.
type deadlineRT struct {
	rem    int64
	hasRem bool
}

func (r *deadlineRT) Now() int64                                 { return 0 }
func (r *deadlineRT) EmitLenAdjust(pc int, oldLen, newLen int32) {}
func (r *deadlineRT) DeadlineRemaining() (int64, bool)           { return r.rem, r.hasRem }

func newGate(t *testing.T, slack int64) (*DeadlineGate, ThreadState) {
	t.Helper()
	inner, err := New("paper-dynamic", htm.ZEC12())
	if err != nil {
		t.Fatal(err)
	}
	g := NewDeadlineGate(inner, slack)
	return g, g.NewThread()
}

func TestDeadlineGateDowngradesNearDeadline(t *testing.T) {
	g, ts := newGate(t, 1_000)
	far := &deadlineRT{rem: 50_000, hasRem: true}
	if d := g.OnBegin(far, ts, 0, 4); !d.Elide {
		t.Fatal("far from deadline: inner elision decision must pass through")
	}
	near := &deadlineRT{rem: 500, hasRem: true}
	d := g.OnBegin(near, ts, 0, 4)
	if d.Elide || d.Reason != DeadlineReason {
		t.Fatalf("near deadline: got %+v, want GIL fallback with deadline reason", d)
	}
	past := &deadlineRT{rem: -10, hasRem: true}
	if d := g.OnBegin(past, ts, 0, 4); d.Elide {
		t.Fatal("past deadline must not speculate")
	}
}

func TestDeadlineGateAbortDowngrade(t *testing.T) {
	inner, err := New("backoff", htm.ZEC12())
	if err != nil {
		t.Fatal(err)
	}
	g := NewDeadlineGate(inner, 1_000)
	ts := g.NewThread()
	near := &deadlineRT{rem: 900, hasRem: true}
	d := g.OnAbort(near, ts, 0, TierHTM, simmem.CauseConflict, false)
	if d.Kind != AbortFallback || d.Reason != DeadlineReason {
		t.Fatalf("near-deadline abort: got %+v, want deadline fallback", d)
	}
	far := &deadlineRT{rem: 1 << 30, hasRem: true}
	if d := g.OnAbort(far, ts, 0, TierHTM, simmem.CauseConflict, false); d.Kind == AbortFallback && d.Reason == DeadlineReason {
		t.Fatal("far-from-deadline abort must keep the inner decision")
	}
}

func TestDeadlineGateNoDeadlineNoChange(t *testing.T) {
	g, ts := newGate(t, 1_000)
	idle := &deadlineRT{hasRem: false}
	if d := g.OnBegin(idle, ts, 0, 4); !d.Elide {
		t.Fatal("no deadline on this thread: inner decision must pass through")
	}
	// A Runtime that is not a DeadlineRuntime at all (nil included) must
	// also pass through.
	if d := g.OnBegin(nil, ts, 0, 4); !d.Elide {
		t.Fatal("non-deadline runtime: inner decision must pass through")
	}
}

func TestDeadlineGateForwardsProbes(t *testing.T) {
	lazy, err := New("lazy-subscription", htm.ZEC12())
	if err != nil {
		t.Fatal(err)
	}
	if !UsesLazySubscription(NewDeadlineGate(lazy, 0)) {
		t.Fatal("gate must forward the lazy-subscription probe")
	}
	occ, err := New("occ-adaptive", htm.ZEC12())
	if err != nil {
		t.Fatal(err)
	}
	if !UsesOCCTier(NewDeadlineGate(occ, 0)) {
		t.Fatal("gate must forward the OCC-tier probe")
	}
	plain, err := New("fixed-16", htm.ZEC12())
	if err != nil {
		t.Fatal(err)
	}
	pg := NewDeadlineGate(plain, 0)
	if UsesLazySubscription(pg) || UsesOCCTier(pg) {
		t.Fatal("gate must not invent capabilities the inner policy lacks")
	}
	if pg.Name() != "deadline+fixed-16" {
		t.Fatalf("Name = %q", pg.Name())
	}
}

package policy

import (
	"strings"
	"testing"

	"htmgil/internal/htm"
	"htmgil/internal/simmem"
)

func TestRegistryResolvesEveryName(t *testing.T) {
	prof := htm.ZEC12()
	for _, name := range Names() {
		p, err := New(name, prof)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, p.Name())
		}
	}
}

func TestRegistryUnknownNameListsKnown(t *testing.T) {
	_, err := New("bogus", htm.ZEC12())
	if err == nil {
		t.Fatalf("unknown policy accepted")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list %q", err, name)
		}
	}
}

func TestRegistryErrorPaths(t *testing.T) {
	prof := htm.ZEC12()
	unknown := []struct {
		name  string
		input string
	}{
		{"misspelled", "paper-dynamik"},
		{"fixed without length", "fixed-"},
		{"fixed negative", "fixed--3"},
		{"occ without length", "occ-"},
		{"occ zero length", "occ-0"},
		{"occ garbage length", "occ-x"},
		{"case sensitive", "Paper-Dynamic"},
	}
	for _, tc := range unknown {
		t.Run("unknown/"+tc.name, func(t *testing.T) {
			p, err := New(tc.input, prof)
			if err == nil {
				t.Fatalf("New(%q) accepted: %v", tc.input, p.Name())
			}
			if !strings.Contains(err.Error(), tc.input) {
				t.Fatalf("error %q does not name the rejected input %q", err, tc.input)
			}
		})
	}

	mk := func(p *htm.Profile) Policy { return NewPaperDynamic(DefaultParams(p)) }
	register := []struct {
		name    string
		regName string
		wantErr string
	}{
		{"empty name", "", "empty name"},
		{"duplicate builtin", "paper-dynamic", `duplicate registration of "paper-dynamic"`},
		{"duplicate occ tier", "occ-first", `duplicate registration of "occ-first"`},
	}
	for _, tc := range register {
		t.Run("register/"+tc.name, func(t *testing.T) {
			err := Register(tc.regName, "test entry", mk)
			if err == nil {
				t.Fatalf("Register(%q) succeeded", tc.regName)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Register(%q) error %q, want substring %q", tc.regName, err, tc.wantErr)
			}
		})
	}

	// A successful registration resolves through New and rejects a rerun.
	fresh := "test-registered-policy"
	if err := Register(fresh, "registry round-trip test", mk); err != nil {
		t.Fatalf("Register(%q): %v", fresh, err)
	}
	if _, err := New(fresh, prof); err != nil {
		t.Fatalf("New(%q) after Register: %v", fresh, err)
	}
	if err := Register(fresh, "registry round-trip test", mk); err == nil {
		t.Fatalf("re-registration of %q accepted", fresh)
	}
}

func TestRegistryDefaultsAndFixedN(t *testing.T) {
	prof := htm.ZEC12()
	p, err := New("", prof)
	if err != nil || p.Name() != "paper-dynamic" {
		t.Fatalf("empty name -> %v, %v", p, err)
	}
	p, err = New("fixed-37", prof)
	if err != nil || p.Name() != "fixed-37" {
		t.Fatalf("fixed-37 -> %v, %v", p, err)
	}
	if _, err := New("fixed-0", prof); err == nil {
		t.Fatalf("fixed-0 accepted")
	}
}

// beginElided runs OnBegin with enough live threads to elide and returns
// the decision.
func beginElided(t *testing.T, p Policy, ts ThreadState, pc int) BeginDecision {
	t.Helper()
	d := p.OnBegin(nil, ts, pc, 4)
	if !d.Elide {
		t.Fatalf("%s: OnBegin did not elide: %+v", p.Name(), d)
	}
	return d
}

func TestPaperSingleThreadTakesGIL(t *testing.T) {
	p := NewPaperDynamic(DefaultParams(htm.ZEC12()))
	d := p.OnBegin(nil, p.NewThread(), 0, 1)
	if d.Elide || d.Reason != "single-thread" {
		t.Fatalf("single-thread decision: %+v", d)
	}
}

func TestPaperAbortSequence(t *testing.T) {
	params := DefaultParams(htm.ZEC12())
	p := NewPaperDynamic(params)
	ts := p.NewThread()

	// Transient aborts: TransientRetryMax-1 immediate retries, then fallback.
	beginElided(t, p, ts, 0)
	for i := 0; i < params.TransientRetryMax-1; i++ {
		d := p.OnAbort(nil, ts, 0, TierHTM, simmem.CauseConflict, false)
		if d.Kind != AbortRetry {
			t.Fatalf("transient abort %d: %+v", i, d)
		}
	}
	d := p.OnAbort(nil, ts, 0, TierHTM, simmem.CauseConflict, false)
	if d.Kind != AbortFallback || d.Reason != "retry-exhausted" {
		t.Fatalf("exhausted transient: %+v", d)
	}

	// GIL conflicts: GILRetryMax-1 spin rounds, then fallback.
	beginElided(t, p, ts, 0)
	for i := 0; i < params.GILRetryMax-1; i++ {
		d := p.OnAbort(nil, ts, 0, TierHTM, simmem.CauseConflict, true)
		if d.Kind != AbortSpinRetry {
			t.Fatalf("gil abort %d: %+v", i, d)
		}
	}
	d = p.OnAbort(nil, ts, 0, TierHTM, simmem.CauseConflict, true)
	if d.Kind != AbortFallback || d.Reason != "gil-contention" {
		t.Fatalf("exhausted gil spin: %+v", d)
	}

	// Persistent aborts fall back immediately.
	beginElided(t, p, ts, 0)
	d = p.OnAbort(nil, ts, 0, TierHTM, simmem.CauseWriteOverflow, false)
	if d.Kind != AbortFallback || d.Reason != "persistent-abort" {
		t.Fatalf("persistent abort: %+v", d)
	}
}

func TestBackoffLadder(t *testing.T) {
	b := NewExponentialBackoff(DefaultParams(htm.ZEC12()))
	ts := b.NewThread()
	beginElided(t, b, ts, 0)
	want := b.Base
	for i := 0; i < b.RetryMax; i++ {
		d := b.OnAbort(nil, ts, 0, TierHTM, simmem.CauseConflict, false)
		if d.Kind != AbortBackoff {
			t.Fatalf("attempt %d: %+v", i, d)
		}
		if d.Backoff != want {
			t.Fatalf("attempt %d: backoff %d, want %d", i, d.Backoff, want)
		}
		if want < b.Cap {
			want *= 2
			if want > b.Cap {
				want = b.Cap
			}
		}
	}
	d := b.OnAbort(nil, ts, 0, TierHTM, simmem.CauseConflict, false)
	if d.Kind != AbortFallback || d.Reason != "retry-exhausted" {
		t.Fatalf("exhausted backoff: %+v", d)
	}

	// A fresh begin resets the ladder.
	beginElided(t, b, ts, 0)
	d = b.OnAbort(nil, ts, 0, TierHTM, simmem.CauseConflict, false)
	if d.Kind != AbortBackoff || d.Backoff != b.Base {
		t.Fatalf("ladder not reset: %+v", d)
	}

	// GIL conflicts spin rather than back off; persistent aborts fall back.
	d = b.OnAbort(nil, ts, 0, TierHTM, simmem.CauseConflict, true)
	if d.Kind != AbortSpinRetry {
		t.Fatalf("gil conflict under backoff: %+v", d)
	}
	d = b.OnAbort(nil, ts, 0, TierHTM, simmem.CauseReadOverflow, false)
	if d.Kind != AbortFallback || d.Reason != "persistent-abort" {
		t.Fatalf("persistent under backoff: %+v", d)
	}
}

func TestLazyDecisionsAndCommitTimeAborts(t *testing.T) {
	l := NewLazySubscription(DefaultParams(htm.ZEC12()))
	if !UsesLazySubscription(l) {
		t.Fatalf("lazy policy does not report lazy subscription")
	}
	if UsesLazySubscription(NewPaperDynamic(DefaultParams(htm.ZEC12()))) {
		t.Fatalf("paper policy reports lazy subscription")
	}
	ts := l.NewThread()
	d := beginElided(t, l, ts, 0)
	if !d.Lazy {
		t.Fatalf("lazy policy issued eager decision: %+v", d)
	}
	// Commit-time subscription failure with the GIL already released:
	// immediate retry on the GIL budget.
	ad := l.OnAbort(nil, ts, 0, TierHTM, simmem.CauseExplicit, false)
	if ad.Kind != AbortRetry {
		t.Fatalf("commit-time subscription failure: %+v", ad)
	}
	// With the GIL still held: spin like Figure 1.
	ad = l.OnAbort(nil, ts, 0, TierHTM, simmem.CauseExplicit, true)
	if ad.Kind != AbortSpinRetry {
		t.Fatalf("held-GIL subscription failure: %+v", ad)
	}
	// The GIL budget is shared across both shapes and exhausts into fallback.
	for i := 0; i < 100; i++ {
		ad = l.OnAbort(nil, ts, 0, TierHTM, simmem.CauseExplicit, false)
		if ad.Kind == AbortFallback {
			break
		}
	}
	if ad.Kind != AbortFallback || ad.Reason != "gil-contention" {
		t.Fatalf("gil budget never exhausted: %+v", ad)
	}
}

func TestOCCGateTurnsPessimisticAndRecovers(t *testing.T) {
	o := NewOCCAdaptive(DefaultParams(htm.ZEC12()))
	ts := o.NewThread()
	const pc = 0

	// An all-abort window must trip the gate.
	for i := 0; i < o.Window; i++ {
		beginElided(t, o, ts, pc)
		o.OnAbort(nil, ts, pc, TierHTM, simmem.CauseConflict, false)
	}
	for i := int32(0); i < o.Cooloff; i++ {
		d := o.OnBegin(nil, ts, pc, 4)
		if !d.Elide || !d.OCC {
			t.Fatalf("pessimistic section %d not routed to the software tier: %+v", i, d)
		}
	}
	// Cooloff spent: the site probes hardware elision again.
	if d := beginElided(t, o, ts, pc); d.OCC {
		t.Fatalf("post-cooloff probe stayed in the software tier: %+v", d)
	}

	// A healthy window keeps the site optimistic.
	o2 := NewOCCAdaptive(DefaultParams(htm.ZEC12()))
	ts2 := o2.NewThread()
	for i := 0; i < o2.Window; i++ {
		beginElided(t, o2, ts2, pc)
		o2.OnCommit(nil, ts2, pc)
	}
	beginElided(t, o2, ts2, pc)

	// Admission state is per-PC: tripping pc 0 leaves pc 1 optimistic.
	beginElided(t, o, ts, 1)
}

func TestFixedPoliciesKeepNoLengthTable(t *testing.T) {
	for _, name := range []string{"fixed-1", "fixed-16", "fixed-256", "occ-adaptive"} {
		p, err := New(name, htm.ZEC12())
		if err != nil {
			t.Fatal(err)
		}
		ts := p.NewThread()
		beginElided(t, p, ts, 7)
		if ls := p.Lengths(); len(ls) != 0 {
			t.Fatalf("%s: non-empty length table %v", name, ls)
		}
	}
}

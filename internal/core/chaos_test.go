package core

import (
	"fmt"
	"testing"

	"htmgil/internal/fault"
	"htmgil/internal/htm"
	"htmgil/internal/policy"
	"htmgil/internal/trace"
)

// mustSpec parses a fault spec or fails the test.
func mustSpec(t *testing.T, text string) *fault.Spec {
	t.Helper()
	s, err := fault.ParseSpec(text)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", text, err)
	}
	return s
}

// TestPoliciesUnderSpuriousStorm drives every registered contention policy
// through the TLE protocol on a contended counter while the fault harness
// delivers a heavy spurious-abort storm. Whatever mix of retries, backoff
// parking and GIL fallbacks the policy chooses, no update may be lost, and
// the storm must actually bite (faults injected, sections falling back).
func TestPoliciesUnderSpuriousStorm(t *testing.T) {
	cases := []struct {
		name string
		spec string
		seed int64
	}{
		{"storm-heavy", "spurious=2000", 1},
		{"storm-light", "spurious=20000", 2},
		{"storm-capacity", "spurious=8000,capjitter=0.5:0.1", 3},
	}
	for _, name := range policy.Names() {
		for _, c := range cases {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				prof := htm.ZEC12()
				p, err := policy.New(name, prof)
				if err != nil {
					t.Fatal(err)
				}
				const n, iters = 4, 200
				r := newRigPolicy(t, prof, p, n)
				inj := fault.NewInjector(mustSpec(t, c.spec), c.seed, nil)
				for i := 0; i < n; i++ {
					hctx := r.worker(t, prof, i, iters, 0, 0)
					hctx.Faults = inj.HTMContext(i)
				}
				if err := r.eng.Run(); err != nil {
					t.Fatal(err)
				}
				if got := r.mem.Peek(r.ctrAdr).Bits; got != uint64(n*iters) {
					t.Fatalf("policy %s under %s: counter = %d, want %d (lost updates!)",
						name, c.spec, got, n*iters)
				}
				// occ-first never begins hardware transactions, so an
				// HTM-channel storm cannot bite it; the lost-update check
				// above still exercises the software tier under contention.
				if inj.Total() == 0 && name != "occ-first" {
					t.Fatalf("storm injected nothing; test is vacuous")
				}
			})
		}
	}
}

// TestSpuriousStormForcesFallbacks pins the retry/fallback dynamics of the
// paper policy under a storm dense enough that transactions rarely survive:
// the retry budget must exhaust and sections must complete under the GIL.
func TestSpuriousStormForcesFallbacks(t *testing.T) {
	prof := htm.ZEC12()
	r := newRig(t, prof, 4)
	inj := fault.NewInjector(mustSpec(t, "spurious=500"), 1, nil)
	const iters = 100
	for i := 0; i < 4; i++ {
		r.worker(t, prof, i, iters, 0, 0).Faults = inj.HTMContext(i)
	}
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.mem.Peek(r.ctrAdr).Bits; got != 4*iters {
		t.Fatalf("counter = %d, want %d", got, 4*iters)
	}
	if r.el.Fallbacks == 0 {
		t.Fatalf("dense storm never forced a GIL fallback")
	}
	if r.gil.Stats.Acquisitions == 0 {
		t.Fatalf("fallbacks recorded but the GIL was never acquired")
	}
}

// TestDeterministicChaosRun: the whole stack — TLE, policy, fault streams —
// replays byte-identically from the same seed.
func TestDeterministicChaosRun(t *testing.T) {
	prof := htm.ZEC12()
	run := func() (uint64, uint64, uint64, uint64) {
		r := newRig(t, prof, 4)
		inj := fault.NewInjector(mustSpec(t, "spurious=4000,capjitter=0.3:0.2"), 7, nil)
		for i := 0; i < 4; i++ {
			r.worker(t, prof, i, 300, 0, 0).Faults = inj.HTMContext(i)
		}
		if err := r.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return r.mem.Peek(r.ctrAdr).Bits, r.gil.Stats.Acquisitions, r.el.Fallbacks, inj.Total()
	}
	c1, a1, f1, t1 := run()
	c2, a2, f2, t2 := run()
	if c1 != c2 || a1 != a2 || f1 != f2 || t1 != t2 {
		t.Fatalf("nondeterministic: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			c1, a1, f1, t1, c2, a2, f2, t2)
	}
}

// TestBreakerStormAcceptance is the end-to-end acceptance scenario of the
// chaos harness:
//
//  1. a healthy phase commits transactionally and arms the breaker;
//  2. a persistent spurious-abort storm begins; retries exhaust, sections
//     fall back, and the breaker opens — the workload degrades to GIL-only
//     but keeps producing correct results;
//  3. the storm clears (until=); cooldown expires, half-open probes commit,
//     and the breaker settles closed — elision recovers.
//
// Everything is seeded, so the transition history is checked exactly and the
// whole scenario must replay byte-for-byte.
func TestBreakerStormAcceptance(t *testing.T) {
	// A clean 4x3000 run lasts ~750k virtual cycles (~60 cycles/section),
	// so the timeline below leaves a healthy arming phase, a storm long
	// enough to trip the breaker through several cooldown probes, and ample
	// post-storm work for the recovery to settle.
	const (
		nthreads   = 4
		iters      = 3000
		stormStart = 100_000
		stormEnd   = 400_000
	)
	type result struct {
		counter     uint64
		opens       uint64
		final       string
		transitions string
		faults      uint64
	}
	run := func() result {
		prof := htm.ZEC12()
		r := newRig(t, prof, nthreads)
		r.el.Breaker = NewBreaker(BreakerConfig{
			Window: 32, TripFallbacks: 24, CooldownCycles: 50_000, ProbeTarget: 8,
		})
		// Storm: mean 300 cycles between spurious aborts per context — far
		// shorter than a critical section, so while it lasts essentially no
		// transaction survives to commit.
		spec := mustSpec(t, fmt.Sprintf("spurious=300,until=%d", stormEnd))
		inj := fault.NewInjector(spec, 1, nil)
		var ctxs []*htm.Context
		for i := 0; i < nthreads; i++ {
			ctxs = append(ctxs, r.worker(t, prof, i, iters, 0, 0))
		}
		// The storm begins mid-run: attach the per-context fault hooks at
		// stormStart, after the healthy phase has armed the breaker.
		r.eng.At(stormStart, func(now int64) {
			for i, c := range ctxs {
				c.Faults = inj.HTMContext(i)
			}
		})
		if err := r.eng.Run(); err != nil {
			t.Fatal(err)
		}
		b := r.el.Breaker
		var hist string
		for _, tr := range b.Transitions {
			hist += tr.State + ";"
		}
		return result{
			counter:     r.mem.Peek(r.ctrAdr).Bits,
			opens:       b.Opens,
			final:       b.State().String(),
			transitions: hist,
			faults:      inj.Total(),
		}
	}

	res := run()
	if res.counter != nthreads*iters {
		t.Fatalf("counter = %d, want %d — degraded mode corrupted results", res.counter, nthreads*iters)
	}
	if res.faults == 0 {
		t.Fatalf("storm injected nothing")
	}
	if res.opens == 0 {
		t.Fatalf("breaker never opened under a persistent storm (transitions: %s)", res.transitions)
	}
	if res.final != "closed" {
		t.Fatalf("breaker state = %s after the fault cleared, want closed (transitions: %s)",
			res.final, res.transitions)
	}
	// The history must end with a recovery: ... open -> half-open -> closed.
	const tail = "open;half-open;closed;"
	if len(res.transitions) < len(tail) || res.transitions[len(res.transitions)-len(tail):] != tail {
		t.Fatalf("transition history does not end in a recovery: %s", res.transitions)
	}

	if res2 := run(); res != res2 {
		t.Fatalf("acceptance scenario not reproducible:\n  %+v\n  %+v", res, res2)
	}
}

// TestBreakerOpenRoutesAroundPolicy: while the breaker is open every section
// must take the GIL with the breaker-open fallback reason, without
// consulting the policy.
func TestBreakerOpenRoutesAroundPolicy(t *testing.T) {
	prof := htm.ZEC12()
	agg := trace.NewAggregator()
	r := newRig(t, prof, 2)
	r.el.Tracer = trace.NewRecorder(agg)
	b := NewBreaker(BreakerConfig{Window: 8, TripFallbacks: 6, CooldownCycles: 1 << 60, ProbeTarget: 2})
	r.el.Breaker = b
	// Trip it by hand; the cooldown never expires within the run.
	for i := 0; i < b.Cfg.Window; i++ {
		b.RecordCommit(0)
	}
	for i := 0; i < b.Cfg.TripFallbacks; i++ {
		b.RecordFallback(0)
	}
	const iters = 50
	for i := 0; i < 2; i++ {
		r.worker(t, prof, i, iters, 0, 0)
	}
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.mem.Peek(r.ctrAdr).Bits; got != 2*iters {
		t.Fatalf("counter = %d, want %d", got, 2*iters)
	}
	if agg.Begins != 0 {
		t.Fatalf("open breaker admitted %d transaction begins", agg.Begins)
	}
	if agg.FallbackReasons[BreakerReason] != 2*iters {
		t.Fatalf("fallback reasons = %v, want %d %s", agg.FallbackReasons, 2*iters, BreakerReason)
	}
}

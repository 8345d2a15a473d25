package core

import (
	"testing"

	"htmgil/internal/gil"
	"htmgil/internal/htm"
	"htmgil/internal/occ"
	"htmgil/internal/policy"
	"htmgil/internal/sched"
	"htmgil/internal/simmem"
)

// rig wires a simulated machine for TLE tests.
type rig struct {
	mem    *simmem.Memory
	eng    *sched.Engine
	gil    *gil.GIL
	el     *Elision
	live   int
	ctrAdr simmem.Addr
}

// newRig wires the rig around the paper's algorithm with its constants.
func newRig(t *testing.T, prof *htm.Profile, nthreads int) *rig {
	t.Helper()
	return newRigPolicy(t, prof, policy.NewPaperDynamic(policy.DefaultParams(prof)), nthreads)
}

// newRigPolicy wires the rig around an arbitrary contention policy.
func newRigPolicy(t *testing.T, prof *htm.Profile, p policy.Policy, nthreads int) *rig {
	t.Helper()
	prof.InterruptMeanCycles = 0
	mem := simmem.NewMemory(simmem.Config{LineBytes: prof.LineBytes}, prof.HWThreads())
	eng := sched.NewEngine(sched.Config{HWThreads: prof.HWThreads(), SMTWays: prof.SMTWays, SMTPenalty: 1.9})
	g := gil.New(mem, eng, gil.DefaultCosts())
	el := NewWithPolicy(p, g, eng)
	if policy.UsesOCCTier(p) {
		el.OCCRT = occ.NewRuntime(mem)
	}
	r := &rig{mem: mem, eng: eng, gil: g, el: el, live: nthreads}
	el.LiveAppThreads = func() int { return r.live }
	r.ctrAdr = mem.Reserve("counter", 64)
	return r
}

// worker runs `iters` critical sections, each incrementing the shared
// counter once, beginning/ending a TLE critical section per iteration.
// It follows the exact protocol the interpreter uses. Returns the worker's
// HTM context so chaos tests can hang fault hooks on it.
func (r *rig) worker(t *testing.T, prof *htm.Profile, ctxID int, iters int, extraLines int, scratch simmem.Addr) *htm.Context {
	hctx := htm.NewContext(prof, r.mem, ctxID, int64(ctxID+1))
	tle := r.el.NewThread(hctx)
	var sth *sched.Thread
	done := 0
	const (
		phBegin = iota
		phResume
		phWork
		phEnd
	)
	phase := phBegin
	step := func(now int64) sched.StepResult {
		var cycles int64
		switch phase {
		case phBegin, phResume:
			var out Outcome
			if phase == phBegin {
				cycles, out = r.el.TransactionBegin(tle, sth, now, 1)
			} else {
				cycles, out = r.el.ResumeBegin(tle, sth, now)
			}
			if out == Block {
				phase = phResume
				return sched.StepResult{Cycles: cycles, Status: sched.Blocked}
			}
			phase = phWork
			return sched.StepResult{Cycles: cycles, Status: sched.Running}
		case phWork:
			if !tle.GILMode && !tle.OCCMode && hctx.Doomed(now) {
				c, out := r.el.HandleAbort(tle, sth, now)
				if out == Block {
					phase = phResume
					return sched.StepResult{Cycles: c, Status: sched.Blocked}
				}
				return sched.StepResult{Cycles: c, Status: sched.Running}
			}
			if tle.GILMode {
				v := r.mem.Load(r.ctrAdr)
				r.mem.Store(r.ctrAdr, simmem.Word{Bits: v.Bits + 1})
			} else if tle.OCCMode {
				v := tle.OCC.Load(r.ctrAdr)
				tle.OCC.Store(r.ctrAdr, simmem.Word{Bits: v.Bits + 1})
				for l := 0; l < extraLines; l++ {
					tle.OCC.Store(scratch+simmem.Addr(l*prof.LineBytes), simmem.Word{Bits: 1})
				}
				if tle.OCC.Doomed() {
					c, out := r.el.HandleAbort(tle, sth, now)
					if out == Block {
						phase = phResume
						return sched.StepResult{Cycles: c, Status: sched.Blocked}
					}
					return sched.StepResult{Cycles: c, Status: sched.Running}
				}
			} else {
				v := hctx.Tx.Load(r.ctrAdr)
				hctx.Tx.Store(r.ctrAdr, simmem.Word{Bits: v.Bits + 1})
				for l := 0; l < extraLines; l++ {
					hctx.Tx.Store(scratch+simmem.Addr(l*prof.LineBytes), simmem.Word{Bits: 1})
				}
				if hctx.Doomed(now) {
					// Increment rolled back; undo our private bookkeeping too.
					c, out := r.el.HandleAbort(tle, sth, now)
					if out == Block {
						phase = phResume
						return sched.StepResult{Cycles: c, Status: sched.Blocked}
					}
					return sched.StepResult{Cycles: c, Status: sched.Running}
				}
			}
			phase = phEnd
			return sched.StepResult{Cycles: 40, Status: sched.Running}
		case phEnd:
			c, ok := r.el.TransactionEnd(tle, sth, now)
			if !ok {
				c2, out := r.el.HandleAbort(tle, sth, now+c)
				phase = phWork
				if out == Block {
					phase = phResume
					return sched.StepResult{Cycles: c + c2, Status: sched.Blocked}
				}
				return sched.StepResult{Cycles: c + c2, Status: sched.Running}
			}
			done++
			if done == iters {
				r.live--
				return sched.StepResult{Cycles: c, Status: sched.Done}
			}
			phase = phBegin
			return sched.StepResult{Cycles: c, Status: sched.Running}
		}
		panic("unreachable")
	}
	sth = r.eng.Spawn("w", 0, step)
	return hctx
}

func TestSingleThreadUsesGIL(t *testing.T) {
	prof := htm.ZEC12()
	r := newRig(t, prof, 1)
	r.worker(t, prof, 0, 100, 0, 0)
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.mem.Peek(r.ctrAdr).Bits; got != 100 {
		t.Fatalf("counter = %d, want 100", got)
	}
	if r.gil.Stats.Acquisitions != 100 {
		t.Fatalf("single thread did not use the GIL: %d acquisitions", r.gil.Stats.Acquisitions)
	}
}

func TestMultiThreadAtomicity(t *testing.T) {
	prof := htm.ZEC12()
	for _, n := range []int{2, 4, 8, 12} {
		r := newRig(t, prof, n)
		scratch := r.mem.Reserve("scratch", 1<<20)
		iters := 500
		for i := 0; i < n; i++ {
			// Each worker writes private scratch lines too, to vary footprints.
			r.worker(t, prof, i, iters, i%3, scratch+simmem.Addr(i*64*256))
		}
		if err := r.eng.Run(); err != nil {
			t.Fatal(err)
		}
		if got := r.mem.Peek(r.ctrAdr).Bits; got != uint64(n*iters) {
			t.Fatalf("n=%d: counter = %d, want %d (lost updates!)", n, got, n*iters)
		}
	}
}

// TestAllPoliciesPreserveAtomicity drives every registered policy through
// the full TLE protocol on a contended counter: whatever the policy decides
// (immediate retries, backoff parking, lazy commit-time subscription, OCC
// pessimistic phases), no update may be lost. The mixed footprints force
// capacity aborts too, exercising every OnAbort branch.
func TestAllPoliciesPreserveAtomicity(t *testing.T) {
	for _, name := range policy.Names() {
		t.Run(name, func(t *testing.T) {
			prof := htm.ZEC12()
			p, err := policy.New(name, prof)
			if err != nil {
				t.Fatal(err)
			}
			const n, iters = 6, 400
			r := newRigPolicy(t, prof, p, n)
			scratch := r.mem.Reserve("scratch", 1<<20)
			for i := 0; i < n; i++ {
				r.worker(t, prof, i, iters, i%3, scratch+simmem.Addr(i*64*256))
			}
			if err := r.eng.Run(); err != nil {
				t.Fatal(err)
			}
			if got := r.mem.Peek(r.ctrAdr).Bits; got != uint64(n*iters) {
				t.Fatalf("policy %s: counter = %d, want %d (lost updates!)", name, got, n*iters)
			}
		})
	}
}

// TestLazySubscriptionArmsHazardTracking guards the wiring that keeps lazy
// subscription safe: building the runtime with the lazy policy must arm the
// GIL's hazard window.
func TestLazySubscriptionArmsHazardTracking(t *testing.T) {
	prof := htm.ZEC12()
	p, err := policy.New("lazy-subscription", prof)
	if err != nil {
		t.Fatal(err)
	}
	r := newRigPolicy(t, prof, p, 2)
	if !r.gil.HazardTrack {
		t.Fatalf("lazy-subscription policy did not arm GIL hazard tracking")
	}
	r2 := newRig(t, prof, 2)
	if r2.gil.HazardTrack {
		t.Fatalf("paper policy armed GIL hazard tracking")
	}
}

func TestPersistentAbortFallsBackToGIL(t *testing.T) {
	prof := htm.ZEC12()
	r := newRig(t, prof, 2)
	// One worker whose transaction always overflows the write capacity.
	scratch := r.mem.Reserve("big", 1<<22)
	capLines := prof.WriteCapBytes / prof.LineBytes
	r.worker(t, prof, 0, 50, capLines+8, scratch)
	r.worker(t, prof, 1, 50, 0, 0)
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.mem.Peek(r.ctrAdr).Bits; got != 100 {
		t.Fatalf("counter = %d, want 100", got)
	}
	if r.gil.Stats.Acquisitions == 0 {
		t.Fatalf("persistent aborts never acquired the GIL")
	}
}

func TestDeterministicTLERun(t *testing.T) {
	prof := htm.ZEC12()
	run := func() (uint64, uint64) {
		r := newRig(t, prof, 4)
		for i := 0; i < 4; i++ {
			r.worker(t, prof, i, 300, 0, 0)
		}
		if err := r.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return r.mem.Peek(r.ctrAdr).Bits, r.gil.Stats.Acquisitions
	}
	c1, a1 := run()
	c2, a2 := run()
	if c1 != c2 || a1 != a2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", c1, a1, c2, a2)
	}
}

func TestGILRetrySpinPath(t *testing.T) {
	// A thread whose transactions repeatedly collide with a GIL holder must
	// spin (WaitFree) up to GILRetryMax times and then acquire the GIL.
	prof := htm.ZEC12()
	r := newRig(t, prof, 2)
	// Worker 0 takes the GIL frequently by doing restricted-style work: we
	// emulate it by a worker with a transaction that always overflows (so
	// it always falls back to the GIL).
	scratch := r.mem.Reserve("big", 1<<22)
	capLines := prof.WriteCapBytes / prof.LineBytes
	r.worker(t, prof, 0, 200, capLines+8, scratch)
	r.worker(t, prof, 1, 200, 0, 0)
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.mem.Peek(r.ctrAdr).Bits; got != 400 {
		t.Fatalf("counter = %d, want 400", got)
	}
	if r.gil.Stats.Contended == 0 {
		t.Fatalf("expected contended GIL acquisitions")
	}
}

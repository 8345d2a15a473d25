package core

import (
	"strings"
	"testing"

	"htmgil/internal/gil"
	"htmgil/internal/htm"
	"htmgil/internal/policy"
	"htmgil/internal/sched"
	"htmgil/internal/simmem"
	"htmgil/internal/trace"
)

// scriptPolicy is a hand-steered contention policy: every section elides
// (in the software tier when occ is set) and every abort takes the decision
// onAbort returns, so a test reaches one state-machine transition without
// depending on retry budgets. It records what the abort hook was told.
type scriptPolicy struct {
	occ     bool
	onAbort func(tier policy.Tier, held bool) policy.AbortDecision
	tiers   []policy.Tier
	helds   []bool
}

func (p *scriptPolicy) Name() string                  { return "script" }
func (p *scriptPolicy) NewThread() policy.ThreadState { return nil }
func (p *scriptPolicy) Lengths() []int32              { return nil }
func (p *scriptPolicy) UsesOCC() bool                 { return p.occ }
func (p *scriptPolicy) OnBegin(rt policy.Runtime, ts policy.ThreadState, pc, live int) policy.BeginDecision {
	return policy.BeginDecision{Elide: true, OCC: p.occ, Length: 8}
}
func (p *scriptPolicy) OnAbort(rt policy.Runtime, ts policy.ThreadState, pc int, tier policy.Tier, cause simmem.AbortCause, held bool) policy.AbortDecision {
	p.tiers, p.helds = append(p.tiers, tier), append(p.helds, held)
	return p.onAbort(tier, held)
}
func (p *scriptPolicy) OnCommit(rt policy.Runtime, ts policy.ThreadState, pc int) {}

// alwaysFallback sends every aborted section to its fallback lock.
func alwaysFallback(policy.Tier, bool) policy.AbortDecision {
	return policy.AbortDecision{Kind: policy.AbortFallback, Reason: "script"}
}

// shardedRig is a rig whose Elision runs over a 4-shard coordinator.
type shardedRig struct {
	*rig
	prof *htm.Profile
	evs  []trace.Event // every event the Elision emitted
}

func newShardedRig(t *testing.T, p policy.Policy) *shardedRig {
	t.Helper()
	prof := htm.ZEC12()
	r := &shardedRig{rig: newRigPolicy(t, prof, p, 2), prof: prof}
	r.el.Tracer = trace.NewRecorder(sinkFunc(func(ev trace.Event) { r.evs = append(r.evs, ev) }))
	r.el.AttachSharded(gil.NewSharded(r.gil, 4))
	return r
}

// thread is one TLE thread of a scripted test; sth is set by spawn.
type thread struct {
	hctx *htm.Context
	tle  *Thread
	sth  *sched.Thread
}

func (r *shardedRig) thread(id int) *thread {
	hctx := htm.NewContext(r.prof, r.mem, id, int64(id+1))
	return &thread{hctx: hctx, tle: r.el.NewThread(hctx)}
}

// spawn runs steps in order on a scheduler thread starting at startAt: each
// step returns the cycles it took and whether the thread parks afterwards;
// the thread finishes after the last one.
func (r *shardedRig) spawn(th *thread, startAt int64, steps ...func(now int64) (int64, bool)) {
	i := 0
	th.sth = r.eng.Spawn("t", startAt, func(now int64) sched.StepResult {
		cycles, park := steps[i](now)
		i++
		switch {
		case park:
			return sched.StepResult{Cycles: cycles, Status: sched.Blocked}
		case i == len(steps):
			return sched.StepResult{Cycles: cycles, Status: sched.Done}
		}
		return sched.StepResult{Cycles: cycles, Status: sched.Running}
	})
}

func (r *shardedRig) run(t *testing.T) {
	t.Helper()
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// fallBack runs one section of th that touches shards and then hits a
// restricted operation, so the (alwaysFallback) policy sends it to a lock.
func (r *shardedRig) fallBack(t *testing.T, th *thread, now int64, shards ...int) int64 {
	t.Helper()
	c, out := r.el.TransactionBegin(th.tle, th.sth, now, 1)
	if out != Proceed || th.tle.GILMode || th.tle.OCCMode {
		t.Fatalf("begin: outcome %d, GILMode %v, OCCMode %v; want a hardware transaction", out, th.tle.GILMode, th.tle.OCCMode)
	}
	for _, s := range shards {
		r.el.TouchShard(th.tle, s)
	}
	th.hctx.RestrictedOp()
	c2, out := r.el.HandleAbort(th.tle, th.sth, now+c)
	if out != Proceed || !th.tle.GILMode {
		t.Fatalf("abort: outcome %d, GILMode %v; want the fallback lock acquired", out, th.tle.GILMode)
	}
	return c + c2
}

func (r *shardedRig) end(t *testing.T, th *thread, now int64) int64 {
	t.Helper()
	c, ok := r.el.TransactionEnd(th.tle, th.sth, now)
	if !ok || th.tle.InCriticalSection() {
		t.Fatalf("end: committed %v, still in a critical section %v", ok, th.tle.InCriticalSection())
	}
	return c
}

// TestShardRoutingAndLeaks: a fallback whose aborted attempt touched exactly
// one shard takes that shard's GIL for a single yield interval; any other
// footprint takes the root. Under a shard GIL every *other* shard touched
// counts one cross-shard leak per section.
func TestShardRoutingAndLeaks(t *testing.T) {
	r := newShardedRig(t, &scriptPolicy{onAbort: alwaysFallback})
	a := r.thread(0)
	r.spawn(a, 0, func(now int64) (int64, bool) {
		el, sh := r.el, r.el.Sharded
		now += r.fallBack(t, a, now, 2)
		if !sh.Shards[2].HeldBy(a.sth) || r.gil.Acquired() {
			t.Fatalf("single-shard fallback: shard 2 held %v, root held %v", sh.Shards[2].HeldBy(a.sth), r.gil.Acquired())
		}
		if a.tle.ChosenLength != 1 || el.ShardFallbacks[2] != 1 || el.Fallbacks != 1 {
			t.Fatalf("single-shard fallback: length %d, ShardFallbacks %v, Fallbacks %d", a.tle.ChosenLength, el.ShardFallbacks, el.Fallbacks)
		}
		for _, s := range []int{2, 1, 1, 3, 2, 3, 99, -1} {
			el.TouchShard(a.tle, s)
		}
		if el.CrossShardLeaks != 2 {
			t.Fatalf("leaks under shard 2 after touching 1 and 3 repeatedly = %d, want 2", el.CrossShardLeaks)
		}
		now += r.end(t, a, now)
		if sh.Shards[2].Acquired() {
			t.Fatal("TransactionEnd left shard 2 held")
		}

		now += r.fallBack(t, a, now, 0, 3)
		if !r.gil.HeldBy(a.sth) || sh.Shards[0].Acquired() || sh.Shards[3].Acquired() {
			t.Fatal("two-shard fallback did not take the root alone")
		}
		if a.tle.ChosenLength != 8 || el.ShardFallbacks[0]+el.ShardFallbacks[3] != 0 || el.Fallbacks != 2 {
			t.Fatalf("two-shard fallback: length %d, ShardFallbacks %v, Fallbacks %d", a.tle.ChosenLength, el.ShardFallbacks, el.Fallbacks)
		}
		el.TouchShard(a.tle, 1)
		if el.CrossShardLeaks != 2 {
			t.Fatalf("a touch under the root counted a leak: %d", el.CrossShardLeaks)
		}
		now += r.end(t, a, now)

		now += r.fallBack(t, a, now, 2)
		el.TouchShard(a.tle, 1)
		if el.CrossShardLeaks != 3 {
			t.Fatalf("leaks = %d, want 3: a new section counts shard 1 again", el.CrossShardLeaks)
		}
		return r.end(t, a, now), false
	})
	r.run(t)
	var shards []int
	for _, ev := range r.evs {
		if ev.Kind == trace.KindGILFallback {
			shards = append(shards, ev.Shard)
		}
	}
	if len(shards) != 3 || shards[0] != 3 || shards[1] != 0 || shards[2] != 3 {
		t.Fatalf("gil-fallback events carry shards %v, want [3 0 3] (1-based, 0 = root)", shards)
	}
}

// TestGateWakeReacquires: a shard fallback gated behind a root hold is woken
// by the root's release owning nothing; ResumeBegin must run the shard
// acquisition again (paying for it) instead of proceeding.
func TestGateWakeReacquires(t *testing.T) {
	r := newShardedRig(t, &scriptPolicy{onAbort: alwaysFallback})
	a, b := r.thread(0), r.thread(1)
	shard := r.el.Sharded.Shards[1]
	var wokeAt int64
	r.spawn(b, 0,
		func(now int64) (int64, bool) {
			c, _ := r.el.TransactionBegin(b.tle, b.sth, now, 1)
			r.el.TouchShard(b.tle, 1)
			return c + 100, false
		},
		func(now int64) (int64, bool) { // a took the root at 50: doomed on its word
			if !b.hctx.Doomed(now) {
				t.Fatal("root acquisition did not doom the subscribed transaction")
			}
			c, out := r.el.HandleAbort(b.tle, b.sth, now)
			if out != Block || b.tle.GILMode || shard.Acquired() {
				t.Fatalf("shard fallback under a held root: outcome %d, GILMode %v, shard held %v; want gated", out, b.tle.GILMode, shard.Acquired())
			}
			return c, true
		},
		func(now int64) (int64, bool) {
			wokeAt = now
			if shard.Acquired() {
				t.Fatal("gate wake already owns the shard lock")
			}
			c, out := r.el.ResumeBegin(b.tle, b.sth, now)
			if out != Proceed || !b.tle.GILMode || !shard.HeldBy(b.sth) {
				t.Fatalf("resume: outcome %d, GILMode %v, shard held %v", out, b.tle.GILMode, shard.HeldBy(b.sth))
			}
			if want := r.gil.CostModel().Acquire; c != want {
				t.Fatalf("resume cost %d, want one acquisition (%d)", c, want)
			}
			return c + r.end(t, b, now+c), false
		})
	var releasedAt int64
	r.spawn(a, 50,
		func(now int64) (int64, bool) { return r.fallBack(t, a, now) + 1000, false },
		func(now int64) (int64, bool) {
			releasedAt = now
			return r.end(t, a, now), false
		})
	r.run(t)
	if want := releasedAt + r.gil.CostModel().Release; wokeAt != want {
		t.Fatalf("gated thread woke at %d, want the root's release at %d", wokeAt, want)
	}
	if shard.Stats.Acquisitions != 1 || r.el.ShardFallbacks[1] != 1 || r.el.Fallbacks != 2 {
		t.Fatalf("shard acquisitions %d, ShardFallbacks %v, Fallbacks %d", shard.Stats.Acquisitions, r.el.ShardFallbacks, r.el.Fallbacks)
	}
}

// TestReacquireRootDrainsShardHold: a thread back from a blocking native
// retakes the root through ReacquireRoot. Under a live shard hold it parks
// on the drain queue, wakes owning nothing and acquires on resume — with no
// fallback accounting and no gil-fallback event.
func TestReacquireRootDrainsShardHold(t *testing.T) {
	r := newShardedRig(t, &scriptPolicy{onAbort: alwaysFallback})
	holder, native := r.thread(0), r.thread(1)
	r.spawn(holder, 0,
		func(now int64) (int64, bool) { return r.fallBack(t, holder, now, 1) + 1000, false },
		func(now int64) (int64, bool) { return r.end(t, holder, now), false })
	r.spawn(native, 100,
		func(now int64) (int64, bool) {
			c, out := r.el.ReacquireRoot(native.tle, native.sth, now)
			if out != Block || native.tle.GILMode || r.gil.Acquired() {
				t.Fatalf("reacquire under a shard hold: outcome %d, GILMode %v, root held %v; want parked on the drain", out, native.tle.GILMode, r.gil.Acquired())
			}
			return c, true
		},
		func(now int64) (int64, bool) {
			if r.gil.Acquired() || r.el.Sharded.Shards[1].Acquired() {
				t.Fatal("drain wake: a lock is still (or already) held")
			}
			c, out := r.el.ResumeBegin(native.tle, native.sth, now)
			if out != Proceed || !native.tle.GILMode || !r.gil.HeldBy(native.sth) {
				t.Fatalf("resume: outcome %d, GILMode %v, root held %v", out, native.tle.GILMode, r.gil.HeldBy(native.sth))
			}
			if want := r.gil.CostModel().Acquire; c != want {
				t.Fatalf("resume cost %d, want one acquisition (%d)", c, want)
			}
			rel := r.el.ReleaseLock(native.tle, native.sth, now+c)
			if native.tle.GILMode || r.gil.Acquired() {
				t.Fatal("ReleaseLock left the thread in GIL mode or the root held")
			}
			return c + rel, false
		})
	r.run(t)
	if r.el.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want only the holder's", r.el.Fallbacks)
	}
	for _, ev := range r.evs {
		if ev.Kind == trace.KindGILFallback && ev.Thread == native.sth.ID {
			t.Fatalf("ReacquireRoot emitted a gil-fallback event: %+v", ev)
		}
	}
}

// TestOCCCommitSpinsOnShardLock: a software transaction whose touch mask
// names a held shard GIL is refused at commit, reports the tier and the held
// lock to the policy, spins on *that* lock (the root is never released here,
// so a spin on the root would deadlock the run) and re-begins in the tier.
func TestOCCCommitSpinsOnShardLock(t *testing.T) {
	pol := &scriptPolicy{occ: true, onAbort: func(tier policy.Tier, held bool) policy.AbortDecision {
		return policy.AbortDecision{Kind: policy.AbortSpinRetry}
	}}
	r := newShardedRig(t, pol)
	holder, o := r.thread(0), r.thread(1)
	shard := r.el.Sharded.Shards[1]
	var releasedAt, wokeAt int64
	r.spawn(holder, 0,
		func(now int64) (int64, bool) {
			c, ok := r.el.Sharded.AcquireShard(holder.sth, 1, now)
			if !ok {
				t.Fatal("free shard not acquired")
			}
			return c + 1000, false
		},
		func(now int64) (int64, bool) {
			releasedAt = now
			return r.el.Sharded.ReleaseShard(holder.sth, 1, now), false
		})
	section := func(now int64) (int64, bool) {
		if !o.tle.OCCMode || o.tle.GILMode {
			t.Fatalf("section not in the software tier: OCCMode %v, GILMode %v", o.tle.OCCMode, o.tle.GILMode)
		}
		r.el.TouchShard(o.tle, 1)
		o.tle.OCC.Store(r.ctrAdr, simmem.Word{Bits: 7})
		c, ok := r.el.TransactionEnd(o.tle, o.sth, now)
		if ok == shard.Acquired() {
			t.Fatalf("commit returned %v with the shard lock held %v", ok, shard.Acquired())
		}
		if ok {
			return c, false
		}
		c2, out := r.el.HandleAbort(o.tle, o.sth, now+c)
		if out != Block || !o.tle.OCCMode {
			t.Fatalf("blocked commit: outcome %d, OCCMode %v; want parked in the tier", out, o.tle.OCCMode)
		}
		return c + c2, true
	}
	r.spawn(o, 100,
		func(now int64) (int64, bool) {
			c, out := r.el.TransactionBegin(o.tle, o.sth, now, 1)
			if out != Proceed {
				t.Fatal("software-tier begin blocked")
			}
			return c, false
		},
		section,
		func(now int64) (int64, bool) {
			wokeAt = now
			c, out := r.el.ResumeBegin(o.tle, o.sth, now)
			if out != Proceed {
				t.Fatal("re-begin blocked")
			}
			return c, false
		},
		section)
	r.run(t)
	if want := releasedAt + r.gil.CostModel().Release; wokeAt != want {
		t.Fatalf("spinner woke at %d, want the shard lock's release at %d", wokeAt, want)
	}
	if len(pol.tiers) != 1 || pol.tiers[0] != policy.TierOCC || !pol.helds[0] {
		t.Fatalf("policy saw tiers %v, held %v; want one software-tier abort under a held lock", pol.tiers, pol.helds)
	}
	st := r.el.OCCRT.Stats
	if st.Begins != 2 || st.Commits != 1 || st.GILBlockedCommits != 1 {
		t.Fatalf("occ stats %+v, want 2 begins, 1 commit, 1 blocked commit", st)
	}
	if got := r.mem.Peek(r.ctrAdr).Bits; got != 7 {
		t.Fatalf("committed value %d, want 7", got)
	}
}

// TestZeroShardWakeWithoutOwnershipPanics: without shards there is no gate
// or drain queue, so nothing can wake a non-owner out of an acquisition;
// ResumeBegin treats it as the bug it would be.
func TestZeroShardWakeWithoutOwnershipPanics(t *testing.T) {
	prof := htm.ZEC12()
	r := newRig(t, prof, 1) // one live thread: sections go straight to the GIL
	hctx := htm.NewContext(prof, r.mem, 0, 1)
	tle := r.el.NewThread(hctx)
	owner := r.eng.Spawn("owner", 0, func(int64) sched.StepResult { return sched.StepResult{Status: sched.Done} })
	me := r.eng.Spawn("me", 0, func(int64) sched.StepResult { return sched.StepResult{Status: sched.Done} })
	if _, ok := r.gil.TryAcquire(owner, 0); !ok {
		t.Fatal("free GIL not acquired")
	}
	if _, out := r.el.TransactionBegin(tle, me, 0, 1); out != Block {
		t.Fatal("begin under a held GIL did not block")
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "without ownership") {
			t.Fatalf("ResumeBegin without ownership: recovered %q, want the ownership panic", msg)
		}
	}()
	r.el.ResumeBegin(tle, me, 10)
}

// TestNewThreadNeedsOCCRuntime: a policy that uses the software tier on a
// runtime without one fails at thread creation, not section by section.
func TestNewThreadNeedsOCCRuntime(t *testing.T) {
	prof := htm.ZEC12()
	r := newRigPolicy(t, prof, &scriptPolicy{occ: true}, 2)
	r.el.OCCRT = nil
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "OCCRT is nil") {
			t.Fatalf("NewThread: recovered %q, want the missing-runtime panic", msg)
		}
	}()
	r.el.NewThread(htm.NewContext(prof, r.mem, 0, 1))
}

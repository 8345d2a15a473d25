package gil

import (
	"testing"

	"htmgil/internal/sched"
	"htmgil/internal/simmem"
)

func setup() (*simmem.Memory, *sched.Engine, *GIL) {
	mem := simmem.NewMemory(simmem.Config{LineBytes: 64}, 4)
	eng := sched.NewEngine(sched.Config{HWThreads: 4})
	g := New(mem, eng, DefaultCosts())
	return mem, eng, g
}

func TestUncontendedAcquireRelease(t *testing.T) {
	mem, eng, g := setup()
	var th *sched.Thread
	th = eng.Spawn("t", 0, func(now int64) sched.StepResult {
		c, ok := g.TryAcquire(th, now)
		if !ok || c != DefaultCosts().Acquire {
			t.Fatalf("TryAcquire = %d, %v", c, ok)
		}
		if !g.HeldBy(th) || !g.Acquired() {
			t.Fatalf("ownership wrong")
		}
		if mem.Peek(g.Addr).Bits != 1 {
			t.Fatalf("GIL word not published")
		}
		c2 := g.Release(th, now+100)
		if c2 != DefaultCosts().Release {
			t.Fatalf("release cost = %d", c2)
		}
		if g.Acquired() || mem.Peek(g.Addr).Bits != 0 {
			t.Fatalf("release not published")
		}
		return sched.StepResult{Cycles: c + c2 + 100, Status: sched.Done}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if g.Stats.Acquisitions != 1 || g.Stats.HoldCycles != 100 {
		t.Fatalf("stats = %+v", g.Stats)
	}
}

func TestContendedHandoffFIFO(t *testing.T) {
	_, eng, g := setup()
	var order []string
	mk := func(name string, holdFor int64) {
		var th *sched.Thread
		phase := 0
		th = eng.Spawn(name, 0, func(now int64) sched.StepResult {
			switch phase {
			case 0:
				phase = 1
				if c, ok := g.BlockingAcquire(th, now); ok {
					order = append(order, name)
					return sched.StepResult{Cycles: c + holdFor, Status: sched.Running}
				}
				return sched.StepResult{Cycles: 1, Status: sched.Blocked}
			case 1:
				// Either just acquired inline, or woken owning the GIL.
				if !g.HeldBy(th) {
					if len(order) == 0 || order[len(order)-1] != name {
						order = append(order, name)
					}
					t.Fatalf("%s resumed without ownership", name)
				}
				if order[len(order)-1] != name {
					order = append(order, name)
				}
				phase = 2
				return sched.StepResult{Cycles: holdFor, Status: sched.Running}
			default:
				g.Release(th, now)
				return sched.StepResult{Cycles: 1, Status: sched.Done}
			}
		})
	}
	mk("a", 100)
	mk("b", 100)
	mk("c", 100)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("handoff order = %v", order)
	}
	if g.Stats.Contended != 2 {
		t.Fatalf("contended = %d, want 2", g.Stats.Contended)
	}
}

func TestAcquisitionDoomsSubscribedTransactions(t *testing.T) {
	mem, eng, g := setup()
	tx := mem.Tx(0)
	tx.Begin(1024, 1024)
	tx.Load(g.Addr) // subscribe, as TLE transactions do
	var th *sched.Thread
	th = eng.Spawn("t", 0, func(now int64) sched.StepResult {
		g.TryAcquire(th, now)
		return sched.StepResult{Cycles: 1, Status: sched.Done}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !tx.Doomed() || tx.DoomCause() != simmem.CauseConflict {
		t.Fatalf("subscribed transaction not doomed by GIL acquisition")
	}
	tx.Rollback()
}

func TestWaitFreeWakesOnRelease(t *testing.T) {
	_, eng, g := setup()
	var holder, spinner *sched.Thread
	spinnerWoke := false
	holder = eng.Spawn("holder", 0, func(now int64) sched.StepResult {
		if !g.HeldBy(holder) {
			c, _ := g.TryAcquire(holder, now)
			return sched.StepResult{Cycles: c + 500, Status: sched.Running}
		}
		g.Release(holder, now)
		return sched.StepResult{Cycles: 1, Status: sched.Done}
	})
	phase := 0
	spinner = eng.Spawn("spinner", 10, func(now int64) sched.StepResult {
		if phase == 0 {
			phase = 1
			g.WaitFree(spinner)
			return sched.StepResult{Cycles: 1, Status: sched.Blocked}
		}
		if g.Acquired() {
			t.Fatalf("spinner woke while GIL still held")
		}
		spinnerWoke = true
		return sched.StepResult{Cycles: 1, Status: sched.Done}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !spinnerWoke {
		t.Fatalf("spinner never woke")
	}
}

func TestTimerFlagsOwner(t *testing.T) {
	_, eng, g := setup()
	var th *sched.Thread
	sawFlag := false
	n := 0
	th = eng.Spawn("t", 0, func(now int64) sched.StepResult {
		if !g.HeldBy(th) {
			c, _ := g.TryAcquire(th, now)
			return sched.StepResult{Cycles: c, Status: sched.Running}
		}
		n++
		if g.ConsumeInterrupt(th) {
			sawFlag = true
			g.Release(th, now)
			return sched.StepResult{Cycles: 1, Status: sched.Done}
		}
		if n > 10000 {
			t.Fatalf("timer never flagged the owner")
		}
		return sched.StepResult{Cycles: 100, Status: sched.Running}
	})
	g.StartTimer(5000, func() bool { return !sawFlag })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawFlag {
		t.Fatalf("interrupt flag never observed")
	}
}

// TestInterruptFlagClearedOnThreadExit is the regression test for the
// interrupt-flag leak: a thread that exits between being flagged by the
// timer and reaching its next yield point must not leave its entry in the
// flag map behind (one leaked entry per flagged-then-finished request
// thread on a long server run).
func TestInterruptFlagClearedOnThreadExit(t *testing.T) {
	_, eng, g := setup()
	var th *sched.Thread
	th = eng.Spawn("t", 0, func(now int64) sched.StepResult {
		if !g.HeldBy(th) {
			c, _ := g.TryAcquire(th, now)
			return sched.StepResult{Cycles: c, Status: sched.Running}
		}
		// Run past one timer period so the timer flags us, then exit
		// without ever consuming the flag.
		if now < 20_000 {
			return sched.StepResult{Cycles: 1000, Status: sched.Running}
		}
		g.Release(th, now)
		g.ThreadExited(th)
		return sched.StepResult{Cycles: 1, Status: sched.Done}
	})
	g.StartTimer(5000, func() bool { return g.FlaggedCount() == 0 })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if g.FlaggedCount() != 0 {
		t.Fatalf("exited thread leaked %d interrupt-flag entries", g.FlaggedCount())
	}
}

// TestThreadExitedWithoutFlagIsNoop: clearing a never-flagged thread must
// not disturb other threads' pending flags.
func TestThreadExitedWithoutFlagIsNoop(t *testing.T) {
	_, eng, g := setup()
	a := eng.Spawn("a", 0, func(now int64) sched.StepResult {
		return sched.StepResult{Cycles: 1, Status: sched.Done}
	})
	b := eng.Spawn("b", 0, func(now int64) sched.StepResult {
		return sched.StepResult{Cycles: 1, Status: sched.Done}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	g.FlagInterrupt(a)
	g.ThreadExited(b)
	if g.FlaggedCount() != 1 || !g.ConsumeInterrupt(a) {
		t.Fatalf("ThreadExited(b) disturbed a's flag (count=%d)", g.FlaggedCount())
	}
	g.ThreadExited(a)
	if g.FlaggedCount() != 0 {
		t.Fatalf("count = %d after all exits", g.FlaggedCount())
	}
}

// TestRetireKeepsCountersOnly: a retired lock is what a caller holding
// &g.Stats keeps alive, so it must hold the counters, the address and the
// shard id and nothing that leads back to the machine.
func TestRetireKeepsCountersOnly(t *testing.T) {
	_, eng, g := setup()
	g.ShardID = 3
	var th *sched.Thread
	th = eng.Spawn("t", 0, func(now int64) sched.StepResult {
		g.TryAcquire(th, now)
		return sched.StepResult{Cycles: g.Release(th, now+100), Status: sched.Done}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	kept, addr := &g.Stats, g.Addr
	g.Retire()
	if kept.Acquisitions != 1 || kept.HoldCycles != 100 || g.Addr != addr || g.ShardID != 3 {
		t.Fatalf("Retire lost state: %+v addr %d shard %d", *kept, g.Addr, g.ShardID)
	}
	if g.mem != nil || g.engine != nil || g.interruptFlagged != nil || g.Acquired() {
		t.Fatal("a retired lock still references its machine")
	}
}

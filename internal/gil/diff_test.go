package gil

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"htmgil/internal/sched"
	"htmgil/internal/simmem"
)

// lockOps is the acquire/release surface the differential script drives:
// either a bare GIL or the root of a Sharded coordinator.
type lockOps struct {
	acquire func(th *sched.Thread, now int64) (int64, bool)
	release func(th *sched.Thread, now int64) int64
}

// diffScript runs a seeded script of blocking acquisitions, timed holds,
// releases and WaitFree spins by several threads against one lock and
// returns its observable behaviour: every acquisition, wake and release as
// "kind thread@time", the engine's final clock, and the lock's Stats.
func diffScript(t *testing.T, seed int64, zeroShard bool) ([]string, int64, Stats) {
	t.Helper()
	const threads, rounds = 5, 40
	mem := simmem.NewMemory(simmem.Config{LineBytes: 64}, threads)
	eng := sched.NewEngine(sched.Config{HWThreads: threads})
	g := New(mem, eng, DefaultCosts())
	ops := lockOps{acquire: g.BlockingAcquire, release: g.Release}
	if zeroShard {
		s := NewSharded(g, 0)
		ops = lockOps{acquire: s.AcquireRoot, release: s.ReleaseRoot}
	}

	var log []string
	for i := 0; i < threads; i++ {
		id := i
		rng := rand.New(rand.NewSource(seed*131 + int64(i)))
		var th *sched.Thread
		const (
			phIdle = iota
			phWake
			phHold
			phSpun
		)
		phase, done := phIdle, 0
		th = eng.Spawn("w", int64(rng.Intn(50)), func(now int64) sched.StepResult {
			switch phase {
			case phIdle:
				if g.Acquired() && rng.Intn(3) == 0 {
					// Spin like an aborted transaction: wait for a release
					// without queueing for ownership.
					g.WaitFree(th)
					phase = phSpun
					return sched.StepResult{Cycles: 2, Status: sched.Blocked}
				}
				c, ok := ops.acquire(th, now)
				if !ok {
					phase = phWake
					return sched.StepResult{Cycles: 1, Status: sched.Blocked}
				}
				log = append(log, fmt.Sprintf("acq %d@%d", id, now))
				phase = phHold
				return sched.StepResult{Cycles: c, Status: sched.Running}
			case phSpun:
				log = append(log, fmt.Sprintf("spun %d@%d", id, now))
				phase = phIdle
				return sched.StepResult{Cycles: int64(1 + rng.Intn(30)), Status: sched.Running}
			case phWake:
				// With no shard there is no gate or drain queue: every wake
				// out of an acquisition is the handoff and owns the lock.
				if !g.HeldBy(th) {
					t.Fatalf("thread %d woke at %d without ownership", id, now)
				}
				log = append(log, fmt.Sprintf("wake %d@%d", id, now))
				phase = phHold
				return sched.StepResult{Cycles: 0, Status: sched.Running}
			default: // phHold
				hold := int64(1 + rng.Intn(900))
				c := ops.release(th, now+hold)
				log = append(log, fmt.Sprintf("rel %d@%d", id, now+hold))
				done++
				if done == rounds {
					return sched.StepResult{Cycles: hold + c, Status: sched.Done}
				}
				phase = phIdle
				return sched.StepResult{Cycles: hold + c + int64(rng.Intn(200)), Status: sched.Running}
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return log, eng.Now(), g.Stats
}

// TestZeroShardCoordinatorEqualsBareGIL is the licence for running the
// unsharded configuration through gil.Sharded: with no shards there are no
// holds to drain and the gate never fills, so AcquireRoot/ReleaseRoot must be
// step-for-step BlockingAcquire/Release — same cycles, same wake order, same
// Stats — on every seeded script.
func TestZeroShardCoordinatorEqualsBareGIL(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		bareLog, bareEnd, bareStats := diffScript(t, seed, false)
		zeroLog, zeroEnd, zeroStats := diffScript(t, seed, true)
		if bareStats.Contended == 0 {
			t.Fatalf("seed %d: script never contended the lock", seed)
		}
		if !reflect.DeepEqual(bareLog, zeroLog) {
			for i := range bareLog {
				if i >= len(zeroLog) || bareLog[i] != zeroLog[i] {
					t.Fatalf("seed %d: scripts diverge at event %d: bare %q, zero-shard %q",
						seed, i, bareLog[i], append(zeroLog, "<end>")[i])
				}
			}
			t.Fatalf("seed %d: zero-shard log has %d extra events", seed, len(zeroLog)-len(bareLog))
		}
		if bareEnd != zeroEnd || bareStats != zeroStats {
			t.Fatalf("seed %d: end %d vs %d, stats %+v vs %+v", seed, bareEnd, zeroEnd, bareStats, zeroStats)
		}
	}
}

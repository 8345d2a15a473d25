package gil

import (
	"fmt"

	"htmgil/internal/sched"
	"htmgil/internal/simmem"
)

// Sharded coordinates one root GIL plus one GIL per keyspace shard. It
// implements the multi-GIL mode of the sharded-datastore experiments:
// transactions whose footprint stays inside a single shard may fall back to
// that shard's lock, so fallbacks of disjoint shards serialize against each
// other instead of against the whole VM, while everything that needs global
// mutual exclusion (interpreter-level natives, cross-shard fallbacks,
// restricted operations) still takes the root GIL.
//
// The two lock levels form a strict hierarchy with no lock-ordering
// obligations on callers:
//
//   - A shard acquisition is gated on the root: while the root GIL is held
//     or a root acquisition is draining, AcquireShard parks the caller on
//     the gate queue instead of touching its shard lock.
//   - A root acquisition first drains the shards: while any shard GIL is
//     held, AcquireRoot parks the caller on the drain queue; the release of
//     the last shard hold wakes it. New shard acquisitions are gated as soon
//     as a drain begins, so the drain is bounded by the in-flight holds
//     (each of which covers a single yield interval — see internal/core).
//
// Threads woken from the gate or drain queues do not own anything; they
// re-run their acquisition, which keeps the protocol deadlock-free and
// deterministic (queues are FIFO and wakes go through the engine clock).
type Sharded struct {
	Root   *GIL
	Shards []*GIL

	engine *sched.Engine
	drain  []*sched.Thread // root requesters waiting for shard holds to drain
	gate   []*sched.Thread // shard requesters gated behind a root hold/drain
}

// MaxShards bounds the shard count; shard masks are uint64 bitmaps.
const MaxShards = 64

// NewSharded wraps root with n per-shard GILs sharing its cost model. Each
// shard lock's state word lives in its own cache line, so transactional
// subscriptions to different shards never conflict. The shard locks inherit
// the root's Tracer, Chooser and HazardTrack as they stand now (their
// holders publish non-transactional writes like the root's do), so wire the
// root first.
//
// n == 0 is the unsharded configuration: with no holds to drain and a gate
// that never fills, AcquireRoot/ReleaseRoot are step-for-step
// BlockingAcquire/Release (TestZeroShardCoordinatorEqualsBareGIL).
func NewSharded(root *GIL, n int) *Sharded {
	if n < 0 || n > MaxShards {
		panic(fmt.Sprintf("gil: shard count %d out of range [0,%d]", n, MaxShards))
	}
	s := &Sharded{Root: root, engine: root.engine}
	for i := 0; i < n; i++ {
		g := newLock(root.mem, root.engine, root.costs, fmt.Sprintf("gil-shard%02d", i))
		g.ShardID = i + 1
		g.Tracer, g.Chooser, g.HazardTrack = root.Tracer, root.Chooser, root.HazardTrack
		s.Shards = append(s.Shards, g)
	}
	return s
}

// holds counts currently-held shard GILs. Shard counts are small (≤64), so a
// scan is cheaper than maintaining a counter across the handoff paths.
func (s *Sharded) holds() int {
	n := 0
	for _, g := range s.Shards {
		if g.Acquired() {
			n++
		}
	}
	return n
}

// ByAddr returns the GIL whose state word is addr (root or shard), or nil
// when addr is not a lock word. Fallback-abort attribution uses it to tell
// lock-word dooms (TLE artifacts) from data conflicts.
func (s *Sharded) ByAddr(addr simmem.Addr) *GIL {
	if addr == s.Root.Addr {
		return s.Root
	}
	for _, g := range s.Shards {
		if addr == g.Addr {
			return g
		}
	}
	return nil
}

// AcquireShard acquires shard lock sh for th. Returns (cycles, true) on
// immediate acquisition. (0, false) means th must return sched.Blocked; when
// woken it either owns the shard lock (FIFO handoff from the previous
// holder) or was parked on the root gate and must retry the acquisition —
// callers distinguish the two with Shards[sh].HeldBy(th).
func (s *Sharded) AcquireShard(th *sched.Thread, sh int, now int64) (int64, bool) {
	if s.Root.Acquired() || len(s.drain) > 0 {
		// Root held or a root requester is draining the shards: gate the
		// acquisition so the drain stays bounded.
		s.gate = append(s.gate, th)
		return 0, false
	}
	return s.Shards[sh].BlockingAcquire(th, now)
}

// AcquireRoot acquires the root GIL for th, draining shard holds first.
// Returns like AcquireShard: a woken thread owns the root iff
// Root.HeldBy(th), otherwise it was parked on the drain queue and retries.
func (s *Sharded) AcquireRoot(th *sched.Thread, now int64) (int64, bool) {
	if s.Root.Acquired() {
		// Queue on the root lock itself; the handoff wakes th owning it.
		// Shard holds cannot accumulate behind a held root (the gate blocks
		// them), so the no-shard-holds invariant carries over the handoff.
		return s.Root.BlockingAcquire(th, now)
	}
	if s.holds() > 0 {
		s.drain = append(s.drain, th)
		return 0, false
	}
	return s.Root.BlockingAcquire(th, now)
}

// ReleaseShard releases shard lock sh held by th. When the last shard hold
// drains and root requesters are queued, they are woken to retry.
func (s *Sharded) ReleaseShard(th *sched.Thread, sh int, now int64) int64 {
	c := s.Shards[sh].Release(th, now)
	if len(s.drain) > 0 && s.holds() == 0 {
		for _, d := range s.drain {
			s.engine.Wake(d, now+c)
		}
		s.drain = s.drain[:0]
	}
	return c
}

// ReleaseRoot releases the root GIL held by th. If the root handed off to a
// queued root waiter the gate stays closed; otherwise gated shard requesters
// are woken to retry their shard acquisitions.
func (s *Sharded) ReleaseRoot(th *sched.Thread, now int64) int64 {
	c := s.Root.Release(th, now)
	if !s.Root.Acquired() && len(s.gate) > 0 {
		for _, g := range s.gate {
			s.engine.Wake(g, now+c)
		}
		s.gate = s.gate[:0]
	}
	return c
}

// Package occ implements the software-transaction tier of the hybrid TM
// system: optimistic concurrency control with per-thread read/write logs
// over internal/simmem and commit-time validation.
//
// When hardware elision keeps failing at a site (capacity overflow, the
// learning model, retry exhaustion), the paper's runtime falls back to the
// GIL and serializes every concurrent thread. The OCC tier is a middle
// ground: the fallback thread keeps running optimistically, buffering its
// writes and logging the values it read, and publishes atomically at the
// yield point only if every logged read still holds its logged value.
//
// The design is NOrec-flavored (Dalessandro et al.), adapted to the
// deterministic single-stepped simulator:
//
//   - Reads are value-logged, not line-registered: an OCC transaction is
//     invisible to the coherence machinery, so it never dooms an HTM
//     transaction by merely reading (its Loads still doom a dirty HTM
//     *writer*, matching the strong isolation every real STM sees from
//     hardware transactions).
//   - A global memory version (simmem.Memory.Version) gates revalidation:
//     whenever the version moved since the snapshot was last validated, the
//     whole read log is re-checked before the next value is consumed.
//     Zombie transactions — continuing on an inconsistent snapshot after a
//     concurrent commit — are therefore killed at their next read, before
//     the inconsistency can reach the interpreter.
//   - Commit re-validates (if the version moved), then publishes the write
//     buffer with direct Stores inside one scheduler step. Publication is
//     atomic by construction — the simulator is single-threaded — and each
//     Store dooms conflicting HTM readers/writers exactly like any
//     non-transactional write (strong isolation, requester wins).
//   - Before publishing its data writes, a committing transaction bumps a
//     dedicated sequence word. Hardware transactions subscribe to it at
//     begin time (unless the profile opts into Dice-style sandboxing, see
//     htm.Profile.OCCSandbox), modelling conservative hardware that aborts
//     all concurrent HTM on any software commit.
//   - While the GIL is held, OCC commits must not publish (the GIL holder
//     assumes exclusion). The elision layer refuses the commit (BlockCommit)
//     and the thread retries or falls back; reads during a GIL hold are
//     protected by the hazard window (Memory.HazardHit): a value written by
//     the lock holder mid-hold dooms the reader.
//
// Serializability argument: a committed OCC transaction's reads all held
// their logged values at the commit step (validation), its writes were
// published at that same step, and no other thread runs within a step — so
// the whole transaction is equivalent to one executed entirely at the
// commit point. ABA reuse of a value between validation passes is benign
// for exactly the same reason: validation only asserts the *value* the
// transaction consumed is the value at its linearization point.
package occ

import (
	"errors"

	"htmgil/internal/simmem"
)

// ErrDoomed is the sentinel a Load panics with under Tx.PanicOnDoom when
// the transaction dooms mid-read: its logged reads and current memory no
// longer form one consistent snapshot, so no value can safely be returned.
// The interpreter recovers it at the instruction boundary and aborts.
var ErrDoomed = errors.New("occ: transaction doomed on inconsistent read")

// Deterministic cost model, in simulated cycles. The software tier pays
// bookkeeping on every access and validation work proportional to the read
// log — that is its handicap against raw HTM — but it has no capacity
// limits and survives interrupts, which is its advantage over the GIL
// fallback on overflow- and interrupt-heavy workloads.
const (
	// BeginCycles initializes the logs (cheaper than a GIL acquisition,
	// far cheaper than a zEC12 TBEGIN).
	BeginCycles = 40
	// ReadLogCycles is the bookkeeping per first read of a location.
	ReadLogCycles = 4
	// WriteLogCycles is the bookkeeping per first write of a location.
	WriteLogCycles = 6
	// ValidateEntryCycles is the cost per read-log entry per validation
	// pass (a Peek and a compare).
	ValidateEntryCycles = 3
	// PublishCycles is the cost per buffered write published at commit.
	PublishCycles = 10
	// CommitCycles is the fixed commit overhead (fence + sequence bump).
	CommitCycles = 30
	// AbortCycles is the fixed rollback penalty.
	AbortCycles = 150
)

// Stats counts software-transaction outcomes for per-tier attribution in
// vm.Stats, trace summaries and bench reports.
type Stats struct {
	Begins             uint64
	Commits            uint64
	Aborts             uint64
	Validations        uint64 // validation passes (incremental + commit)
	ValidationFailures uint64 // passes that found a stale read
	GILBlockedCommits  uint64 // commits refused because the GIL was held
	ByCause            map[simmem.AbortCause]uint64
}

// NewStats returns a zeroed Stats with its cause map allocated.
func NewStats() *Stats {
	return &Stats{ByCause: make(map[simmem.AbortCause]uint64)}
}

// Clone returns a deep copy (for snapshotting into vm.Stats at run end).
func (s *Stats) Clone() *Stats {
	c := *s
	c.ByCause = make(map[simmem.AbortCause]uint64, len(s.ByCause))
	for k, v := range s.ByCause {
		c.ByCause[k] = v
	}
	return &c
}

// Runtime is the per-VM state of the OCC tier: the memory it runs over,
// the sequence word hardware transactions subscribe to, and the shared
// statistics. Created by the VM only when the active policy uses the tier.
type Runtime struct {
	Mem     *simmem.Memory
	SeqAddr simmem.Addr
	Stats   *Stats
}

// NewRuntime reserves the sequence word and returns the tier runtime.
func NewRuntime(mem *simmem.Memory) *Runtime {
	return &Runtime{
		Mem:     mem,
		SeqAddr: mem.Reserve("occ-seq", simmem.WordBytes),
		Stats:   NewStats(),
	}
}

// NewTx returns a fresh software-transaction context for one thread.
func (rt *Runtime) NewTx(id int) *Tx {
	return &Tx{rt: rt, id: id, gen: 1, index: make([]indexSlot, 64)}
}

// logEntry is one read-log or write-buffer entry.
type logEntry struct {
	addr simmem.Addr
	val  simmem.Word
}

// indexSlot is one slot of a Tx's address index. It is live while its gen
// equals the Tx's, so ending a transaction empties the index by bumping the
// generation, whatever size it has grown to. A live slot says addr is
// buffered at writes[wi-1] or, with wi 0, that it is in the read log (where
// is never asked, and a buffered address is never read from memory again).
type indexSlot struct {
	addr simmem.Addr
	gen  uint32
	wi   int32
}

// Tx is one thread's software-transaction context. It implements the same
// Load/Store accessor shape as simmem.Tx, so the interpreter runs over it
// unchanged (heap.Accessor).
type Tx struct {
	rt *Runtime
	id int

	// PanicOnDoom makes a Load that dooms the transaction (validation
	// failure or hazard hit) panic with ErrDoomed instead of returning a
	// value. After such a doom the transaction's logged reads and current
	// memory no longer form one consistent snapshot, so letting the caller
	// continue — even for a single interpreter instruction — can feed host
	// code impossible states (a torn free-list pointer, a half-updated
	// collection). The interpreter recovers the sentinel at its dispatch
	// boundary and aborts; direct users (tests, the core rig) that check
	// Doomed() after every access leave it off.
	PanicOnDoom bool

	active     bool
	doomed     bool
	doomCause  simmem.AbortCause
	gilBlocked bool

	reads  []logEntry
	writes []logEntry // first-write order, for deterministic publication

	// index finds an address in the two logs: open addressing, linear
	// probing, a power-of-two size kept at most half full.
	index []indexSlot
	gen   uint32
	live  int // slots of the current generation

	// validatedAt is the memory version the read log was last validated
	// against (or the begin-time version while the log is empty).
	validatedAt uint64

	// overhead accumulates per-access bookkeeping cycles; charged at the
	// commit/abort boundary so the accessor interface can stay cost-free.
	overhead int64
}

// ID returns the owning thread's transactional context id.
func (t *Tx) ID() int { return t.id }

// Active reports whether a software transaction is running in this context.
func (t *Tx) Active() bool { return t.active }

// Doomed reports whether the running transaction has failed validation (or
// was self-doomed) and must abort at its next boundary.
func (t *Tx) Doomed() bool { return t.doomed }

// DoomCause returns the cause recorded when the transaction was doomed.
func (t *Tx) DoomCause() simmem.AbortCause { return t.doomCause }

// GILBlocked reports whether the doom came from a commit refused under a
// held GIL (the retry should wait for the lock to clear, not back off).
func (t *Tx) GILBlocked() bool { return t.gilBlocked }

// ReadLogLen returns the current read-log length in entries.
func (t *Tx) ReadLogLen() int { return len(t.reads) }

// WriteLogLen returns the current write-buffer size in entries.
func (t *Tx) WriteLogLen() int { return len(t.writes) }

// Begin starts a software transaction and returns its fixed startup cost.
func (t *Tx) Begin() int64 {
	if t.active {
		panic("occ: nested Tx.Begin")
	}
	t.active = true
	t.validatedAt = t.rt.Mem.Version()
	t.rt.Stats.Begins++
	return BeginCycles
}

// SelfDoom dooms the running transaction from software (restricted
// operation, explicit abort).
func (t *Tx) SelfDoom(cause simmem.AbortCause) {
	if !t.active || t.doomed {
		return
	}
	t.doomed = true
	t.doomCause = cause
}

// doomConflict marks the transaction conflict-doomed (stale read, hazard
// hit, or GIL-blocked commit).
func (t *Tx) doomConflict() {
	t.doomed = true
	t.doomCause = simmem.CauseConflict
}

// panicDoomed raises the doom sentinel when PanicOnDoom is armed; see the
// field's comment. Called only on Load paths that would otherwise hand an
// inconsistent value to the caller.
func (t *Tx) panicDoomed() {
	if t.PanicOnDoom {
		panic(ErrDoomed)
	}
}

// revalidate re-checks the whole read log against current memory and
// advances validatedAt on success. It must be called only when the global
// version moved. Returns false (and dooms the transaction) on a stale read.
func (t *Tx) revalidate(v uint64) bool {
	t.rt.Stats.Validations++
	t.overhead += int64(len(t.reads)) * ValidateEntryCycles
	if !t.validate() {
		t.doomConflict()
		t.rt.Stats.ValidationFailures++
		return false
	}
	t.validatedAt = v
	return true
}

// validate compares every read-log entry against current memory contents.
func (t *Tx) validate() bool {
	n := len(t.reads)
	if MutSkipLastRead && n > 0 {
		// Seeded bug (mutation builds only): the most recently first-read
		// location escapes validation, admitting lost updates. The explorer
		// must catch this as a serializability violation.
		n--
	}
	for i := 0; i < n; i++ {
		e := &t.reads[i]
		w := t.rt.Mem.Peek(e.addr)
		if w.Bits != e.val.Bits || w.Ref != e.val.Ref {
			return false
		}
	}
	return true
}

// slot returns addr's index slot, or the free slot where addr belongs when it
// is in neither log (s.gen != t.gen; claim makes it addr's).
func (t *Tx) slot(addr simmem.Addr) *indexSlot {
	mask := uint64(len(t.index) - 1)
	for i := (uint64(addr>>3) * 0x9E3779B97F4A7C15 >> 32) & mask; ; i = (i + 1) & mask {
		if s := &t.index[i]; s.gen != t.gen || s.addr == addr {
			return s
		}
	}
}

// claim turns the free slot s into addr's, doubling the index first when it
// would pass half full.
func (t *Tx) claim(s *indexSlot, addr simmem.Addr) *indexSlot {
	if t.live++; 2*t.live > len(t.index) {
		old := t.index
		t.index = make([]indexSlot, 2*len(old))
		for i := range old {
			if old[i].gen == t.gen {
				*t.slot(old[i].addr) = old[i]
			}
		}
		s = t.slot(addr)
	}
	*s = indexSlot{addr: addr, gen: t.gen}
	return s
}

// Load performs a software-transactional read. Buffered writes are read
// back directly (read-own-writes); other reads revalidate the log if the
// global version moved, refuse hazard-window lines (a GIL holder's
// intermediate state), and are value-logged on first touch.
func (t *Tx) Load(addr simmem.Addr) simmem.Word {
	if !t.active {
		panic("occ: Load without active transaction")
	}
	s := t.slot(addr)
	if s.gen == t.gen && s.wi > 0 {
		return t.writes[s.wi-1].val
	}
	m := t.rt.Mem
	if t.doomed {
		// Zombie read: side-effect-free, the value is never committed.
		t.panicDoomed()
		return m.Peek(addr)
	}
	if v := m.Version(); v != t.validatedAt && !t.revalidate(v) {
		t.panicDoomed()
		return m.Peek(addr)
	}
	if m.HazardHit(addr) {
		t.doomConflict()
		t.panicDoomed()
		return m.Peek(addr)
	}
	// A direct load: dooms a dirty HTM writer of the line (strong
	// isolation, requester wins), exactly like a plain memory access.
	w := m.Load(addr)
	if s.gen != t.gen {
		t.claim(s, addr)
		t.reads = append(t.reads, logEntry{addr: addr, val: w})
		t.overhead += ReadLogCycles
	}
	return w
}

// Store buffers a software-transactional write. Nothing is visible to
// other threads until Commit publishes.
func (t *Tx) Store(addr simmem.Addr, w simmem.Word) {
	if !t.active {
		panic("occ: Store without active transaction")
	}
	s := t.slot(addr)
	if s.gen != t.gen {
		s = t.claim(s, addr)
	}
	if s.wi == 0 {
		t.writes = append(t.writes, logEntry{addr: addr})
		s.wi = int32(len(t.writes))
		t.overhead += WriteLogCycles
	}
	t.writes[s.wi-1].val = w
}

// BlockCommit records that the commit point was reached while the GIL was
// held: publication would violate the lock holder's exclusion assumption,
// so the transaction is doomed and must retry once the lock is free.
func (t *Tx) BlockCommit() {
	if !t.active {
		panic("occ: BlockCommit without active transaction")
	}
	t.rt.Stats.GILBlockedCommits++
	if !t.doomed {
		t.doomConflict()
	}
	t.gilBlocked = true
}

// Commit validates the read log and atomically publishes the write buffer.
// It returns the cycles consumed (including the accumulated per-access
// overhead) and whether the commit succeeded; on failure the caller must
// complete the abort with Rollback.
func (t *Tx) Commit() (int64, bool) {
	if !t.active {
		panic("occ: Commit without active transaction")
	}
	cycles := t.overhead + CommitCycles
	t.overhead = 0
	if t.doomed {
		return cycles, false
	}
	if v := t.rt.Mem.Version(); v != t.validatedAt && !t.revalidate(v) {
		return cycles, false
	}
	if len(t.writes) > 0 {
		m := t.rt.Mem
		// Bump the sequence word first: subscribed hardware transactions
		// abort before any data write becomes visible to them.
		seq := m.Peek(t.rt.SeqAddr)
		m.Store(t.rt.SeqAddr, simmem.Word{Bits: seq.Bits + 1})
		for _, e := range t.writes {
			m.Store(e.addr, e.val)
			cycles += PublishCycles
		}
	}
	t.rt.Stats.Commits++
	t.cleanup()
	return cycles, true
}

// Rollback discards the speculative state of a doomed (or abandoned)
// transaction and returns the abort cause plus the rollback penalty.
func (t *Tx) Rollback() (simmem.AbortCause, int64) {
	if !t.active {
		panic("occ: Rollback without active transaction")
	}
	cause := t.doomCause
	if cause == simmem.CauseNone {
		cause = simmem.CauseExplicit
	}
	t.rt.Stats.Aborts++
	t.rt.Stats.ByCause[cause]++
	cycles := t.overhead + AbortCycles
	t.cleanup()
	return cause, cycles
}

// cleanup resets the context to idle.
func (t *Tx) cleanup() {
	t.reads = t.reads[:0]
	t.writes = t.writes[:0]
	if t.gen++; t.gen == 0 { // wrapped: slots of 2^32 transactions ago would look live
		clear(t.index)
		t.gen = 1
	}
	t.live = 0
	t.active = false
	t.doomed = false
	t.doomCause = simmem.CauseNone
	t.gilBlocked = false
	t.overhead = 0
}

// Package simmem provides a software-simulated shared memory with
// cache-line-granular transactional conflict detection.
//
// It is the substrate standing in for the HTM hardware of the IBM zEC12 and
// Intel 4th Generation Core processors used in the paper "Eliminating Global
// Interpreter Locks in Ruby through Hardware Transactional Memory"
// (PPoPP 2014). All shared interpreter state is stored in a Memory; accesses
// are performed either transactionally (tracked in per-transaction read and
// write sets, with eager requester-wins conflict detection) or directly
// (non-transactional accesses doom conflicting transactions, modelling the
// strong isolation of real HTM implementations).
//
// The simulator that drives the interpreter is single-threaded, so simmem
// performs no locking of its own: determinism comes for free and every
// experiment is exactly reproducible.
//
// Every interpreter memory access funnels through this package, so what a
// transaction needs is kept with the line, as hardware keeps it, and no
// address-keyed hash map sits on the access path:
//
//   - Lines live in a paged table (512 line structs per page, by line number;
//     the page directory grows by doubling). One lookup, locate, resolves an
//     address to its line and word index, behind a last-line cache in the
//     Memory and in each Tx. Line pointers are stable for the life of the
//     Memory, so the caches and the read and write sets hold them directly.
//   - A line's words are carved from a per-Memory slab when the line is first
//     accessed, never before: allocating a whole page's words at once was
//     measured, and the datastore workloads, which touch a few lines per page,
//     more than doubled their allocation and peak RSS. Peek and HazardHit
//     materialise nothing.
//   - A transaction's speculative stores sit in its shadow buffer, one
//     line-sized slot per write-set entry; line.wslot names the entry while
//     line.writer is that transaction, and the entry's dirty mask says which
//     words of the slot are valid. Begin, Commit and Rollback cost the size
//     of the sets, never the capacity of a table.
//   - The stolen-line rule: a transaction whose dirty line another writer
//     takes is doomed but runs on to its next boundary, and must still read
//     back what it stored. Its write-set entry outlives the theft, so a doomed
//     transaction, and only a doomed one, falls back to searching its own
//     entries, newest first (Tx.lostStore).
//   - The hazard window is an epoch stamp on the line, not a set of lines
//     (Memory.hazardEpoch).
package simmem

import (
	"fmt"
	"math/bits"
	"sort"

	"htmgil/internal/choice"
	"htmgil/internal/trace"
)

// Addr is a byte address in the simulated memory. Words are 8 bytes and all
// word accesses must be word-aligned.
type Addr uint64

// WordBytes is the size of one simulated memory word in bytes.
const WordBytes = 8

// MaxContexts is the maximum number of transactional contexts a Memory can
// host. Reader sets are tracked as 64-bit bitmaps, one bit per context.
const MaxContexts = 64

// Word is the unit of simulated storage. Bits holds immediate payloads
// (fixnums, float bits, symbol ids, simulated addresses) and Ref holds a
// reference payload for heap values. Interpretation is up to the client; the
// interpreter's value model is built directly on Word.
type Word struct {
	Bits uint64
	Ref  any
}

// AbortCause classifies why a transaction was doomed, mirroring the abort
// taxonomy of the zEC12 condition code and the Intel EAX abort status.
type AbortCause uint8

// Abort causes. Conflict and Interrupt are transient (retry may succeed);
// the overflow causes, Restricted and Explicit are persistent, and so is
// Learning, which masquerades as a capacity abort on the Intel machine.
const (
	CauseNone          AbortCause = iota
	CauseConflict                 // coherence conflict with another access
	CauseReadOverflow             // read-set footprint exceeded capacity
	CauseWriteOverflow            // write-set footprint exceeded capacity
	CauseExplicit                 // TABORT / XABORT issued by software
	CauseRestricted               // restricted operation (e.g. system call)
	CauseInterrupt                // external interrupt delivered mid-transaction
	CauseLearning                 // eager abort by the Intel-style predictor
	CauseSpurious                 // injected transient abort (fault harness)
)

// String returns a short human-readable name for the cause.
func (c AbortCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseConflict:
		return "conflict"
	case CauseReadOverflow:
		return "read-overflow"
	case CauseWriteOverflow:
		return "write-overflow"
	case CauseExplicit:
		return "explicit"
	case CauseRestricted:
		return "restricted"
	case CauseInterrupt:
		return "interrupt"
	case CauseLearning:
		return "learning"
	case CauseSpurious:
		return "spurious"
	default:
		return fmt.Sprintf("cause(%d)", uint8(c))
	}
}

// Transient reports whether retrying a transaction aborted for this cause is
// likely to succeed, following the paper's transient/persistent split.
func (c AbortCause) Transient() bool {
	return c == CauseConflict || c == CauseInterrupt || c == CauseSpurious
}

// line is one simulated cache line: its backing words plus the transactional
// metadata real hardware keeps per line (tx-read bits, tx-dirty owner).
//
// The words are chunk[off:off+wordsPerLine] of a slab chunk; a pointer and an
// offset in place of a slice keep the struct at 40 bytes, which is what the
// page table of a sparsely touched address space is made of.
type line struct {
	chunk   *[slabWords]Word // nil until the line is first accessed
	readers uint64           // bitmap of contexts with this line in their read set
	hazard  uint64           // Memory.hazardEpoch of the window that last stored here directly
	off     uint32
	writer  int32 // context with this line in its write set, or -1
	wslot   int32 // the writer's Tx.wlines entry for this line; valid while writer >= 0
}

// word returns the address of word idx of a materialised line.
func (l *line) word(idx int) *Word { return &l.chunk[l.off+uint32(idx)] }

// lineCache remembers the line an access path resolved last.
type lineCache struct {
	la Addr
	l  *line
}

// slabWords sizes the chunks line words are carved from (48 KB: 64 lines of
// 256 bytes, 256 lines of 64).
const slabWords = 2048

// pageLineShift sizes the pages of the line table: 2^9 = 512 lines per page
// (32 KB at 64-byte lines, 128 KB at 256-byte lines).
const (
	pageLineShift = 9
	pageLines     = 1 << pageLineShift
	pageLineMask  = pageLines - 1
)

// page is a fixed block of lines. Lines are stored by value so one page is
// one allocation and the line structs of hot neighbouring addresses share
// cache locality on the host, and because the backing array of a page never
// moves, &page.lines[i] is stable for the life of the Memory.
type page struct {
	lines [pageLines]line
}

func newPage() *page {
	p := &page{}
	for i := range p.lines {
		p.lines[i].writer = -1
	}
	return p
}

// Config describes the geometry of a Memory.
type Config struct {
	// LineBytes is the cache-line size in bytes (256 on zEC12, 64 on the
	// Xeon E3-1275 v3). Must be a power of two and a multiple of WordBytes.
	LineBytes int
}

// Memory is a simulated shared memory. It owns the line table, the
// transactional contexts, the region registry used for conflict attribution
// and a simple reservation-based address-space allocator.
type Memory struct {
	cfg          Config
	lineShift    uint
	wordsPerLine int

	pages  []*page
	slab   *[slabWords]Word // the chunk lines are being carved from
	carved uint32           // words of it already handed out
	txs    []*Tx

	last lineCache // for the direct (non-transactional) access path

	// address-space reservations, sorted by base (brk only grows)
	brk     Addr
	regions []region

	// version counts committed memory updates: every direct Store bumps it,
	// and every Tx.Commit that publishes writes bumps it once. The OCC tier
	// (internal/occ) uses it NOrec-style to gate read-set revalidation: a
	// software transaction whose snapshot predates the current version must
	// revalidate before consuming any further value.
	version uint64

	// hazard window for lazy-subscription elision: while one is open, every
	// non-transactional Store stamps its line with hazardEpoch, and a
	// transactional access to a line carrying the current stamp dooms the
	// accessing transaction (it would observe the lock holder's intermediate
	// state — Dice et al.'s unsafe read). Closing the last window bumps the
	// epoch, which retires every stamp at once; with no window open no line
	// carries the current epoch, so an access pays one compare. hazardDepth
	// counts overlapping window holders (e.g. several shard GILs held at
	// once): the union of all holders' lines is kept until the last window
	// closes, which is conservative but sound.
	hazardEpoch uint64
	hazardDepth int

	// statistics
	conflictCounts       map[string]uint64 // region label -> times a tx was doomed there
	conflictWriterCounts map[string]uint64 // subset of the above where the victim held the line dirty
	doomCount            uint64

	// Tracer, when non-nil, receives a doom event for every transaction
	// kill. The memory has no time source of its own, so Clock (typically
	// sched.Engine.Now) supplies event timestamps; without it events carry
	// time 0.
	Tracer *trace.Recorder
	Clock  func() int64

	// Chooser, when non-nil, picks the winner of each transactional
	// conflict: 0 keeps the hardware's eager requester-wins policy,
	// 1 dooms the requester instead. Installed by internal/explore.
	// Non-transactional accesses always win (strong isolation), so no
	// choice is offered there.
	Chooser choice.Chooser
}

type region struct {
	base, end Addr
	label     string
}

// NewMemory creates an empty simulated memory with the given geometry and
// capacity for nctx transactional contexts.
func NewMemory(cfg Config, nctx int) *Memory {
	if cfg.LineBytes <= 0 || cfg.LineBytes%WordBytes != 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("simmem: invalid line size %d", cfg.LineBytes))
	}
	if nctx <= 0 || nctx > MaxContexts {
		panic(fmt.Sprintf("simmem: invalid context count %d", nctx))
	}
	if cfg.LineBytes/WordBytes > 64 {
		panic(fmt.Sprintf("simmem: line size %d is more than 64 words, the width of a write-set entry's dirty mask", cfg.LineBytes))
	}
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	m := &Memory{
		cfg:                  cfg,
		lineShift:            shift,
		wordsPerLine:         cfg.LineBytes / WordBytes,
		brk:                  Addr(cfg.LineBytes), // keep address 0 unused
		hazardEpoch:          1,                   // untouched lines carry stamp 0
		conflictCounts:       make(map[string]uint64),
		conflictWriterCounts: make(map[string]uint64),
	}
	m.txs = make([]*Tx, nctx)
	for i := range m.txs {
		m.txs[i] = &Tx{id: int32(i), mem: m}
	}
	return m
}

// LineBytes returns the configured cache-line size.
func (m *Memory) LineBytes() int { return m.cfg.LineBytes }

// Contexts returns the number of transactional contexts.
func (m *Memory) Contexts() int { return len(m.txs) }

// Tx returns the transactional context with the given id.
func (m *Memory) Tx(id int) *Tx { return m.txs[id] }

// Reserve carves a fresh region of the simulated address space, labels it
// for conflict attribution, and returns its base address. The region is
// line-aligned so that distinct regions never share a cache line.
func (m *Memory) Reserve(label string, bytes int) Addr {
	if bytes <= 0 {
		panic("simmem: Reserve with non-positive size")
	}
	base := m.brk
	n := Addr(bytes)
	mask := Addr(m.cfg.LineBytes - 1)
	n = (n + mask) &^ mask
	m.brk += n
	m.regions = append(m.regions, region{base: base, end: base + n, label: label})
	return base
}

// RegionLabel returns the label of the region containing addr, or "unknown".
// Reservations are handed out from a monotonically growing break, so the
// region list is sorted by base and a binary search replaces the former
// linear scan.
func (m *Memory) RegionLabel(addr Addr) string {
	// First region with base > addr; the candidate is the one before it.
	i := sort.Search(len(m.regions), func(i int) bool { return m.regions[i].base > addr })
	if i > 0 {
		if r := &m.regions[i-1]; addr < r.end {
			return r.label
		}
	}
	return "unknown"
}

// StartHazard opens a hazard window: until the matching EndHazard, lines
// written by non-transactional Stores doom any transaction that later
// touches them transactionally. The GIL opens a window for the duration of
// each hold when lazy-subscription elision is active (gil.GIL.HazardTrack).
// Windows nest (sharded-GIL mode can hold several lock windows at once):
// the union of all holders' lines persists until the outermost close.
func (m *Memory) StartHazard() { m.hazardDepth++ }

// EndHazard closes one hazard window; the recorded lines are discarded only
// when the last overlapping window closes.
func (m *Memory) EndHazard() {
	if m.hazardDepth > 0 {
		if m.hazardDepth--; m.hazardDepth == 0 {
			m.hazardEpoch++
		}
	}
}

// HazardActive reports whether a hazard window is open.
func (m *Memory) HazardActive() bool { return m.hazardDepth > 0 }

// ConflictCounts returns the number of conflict-induced dooms attributed to
// each region label.
func (m *Memory) ConflictCounts() map[string]uint64 { return m.conflictCounts }

// ConflictWriterCounts returns, per region label, how many of the
// conflict-induced dooms hit a transaction that held the conflicting line
// dirty (the victim was the line's writer, not just a reader).
func (m *Memory) ConflictWriterCounts() map[string]uint64 { return m.conflictWriterCounts }

// wordIndex returns addr's word index within its line; an unaligned address
// panics.
func (m *Memory) wordIndex(addr Addr) int {
	if addr%WordBytes != 0 {
		unaligned(addr)
	}
	return int(addr>>3) & (m.wordsPerLine - 1)
}

// unaligned is kept out of line so that wordIndex stays small enough to
// inline into locate and find; with the message formatted in place it is not,
// and every access pays a call (a tenth of the direct Load/Store path).
//
//go:noinline
func unaligned(addr Addr) {
	panic(fmt.Sprintf("simmem: unaligned access at %#x", uint64(addr)))
}

// locate returns the line containing addr, materialising it on first touch,
// and addr's word index within it. c is the caller's last-line cache.
func (m *Memory) locate(c *lineCache, addr Addr) (*line, int) {
	idx := m.wordIndex(addr)
	if la := addr >> m.lineShift; la != c.la || c.l == nil {
		c.la, c.l = la, m.lineAt(la)
	}
	return c.l, idx
}

// lineAt returns (creating on demand) the line with line-number la.
func (m *Memory) lineAt(la Addr) *line {
	pi := int(la >> pageLineShift)
	if pi >= len(m.pages) {
		grown := make([]*page, max(pi+1, 2*len(m.pages)))
		copy(grown, m.pages)
		m.pages = grown
	}
	p := m.pages[pi]
	if p == nil {
		p = newPage()
		m.pages[pi] = p
	}
	l := &p.lines[la&pageLineMask]
	if l.chunk == nil {
		if m.slab == nil || m.carved == slabWords {
			m.slab, m.carved = new([slabWords]Word), 0
		}
		l.chunk, l.off = m.slab, m.carved
		m.carved += uint32(m.wordsPerLine)
	}
	return l
}

// find is the lookup that never allocates: the line is nil when nothing has
// accessed it yet.
func (m *Memory) find(addr Addr) (*line, int) {
	idx := m.wordIndex(addr)
	la := addr >> m.lineShift
	if pi := la >> pageLineShift; pi < Addr(len(m.pages)) && m.pages[pi] != nil {
		if l := &m.pages[pi].lines[la&pageLineMask]; l.chunk != nil {
			return l, idx
		}
	}
	return nil, idx
}

// LineAddr returns the line-number (address divided by the line size) of a
// byte address. Two addresses with equal LineAddr share a cache line.
func (m *Memory) LineAddr(addr Addr) Addr { return addr >> m.lineShift }

// doom marks the transaction with the given id as conflict-doomed and
// records attribution for the region of addr. wasWriter records whether the
// victim held the conflicting line dirty (its write set) rather than merely
// in its read set; the split feeds the per-region writer-doom statistics and
// the doom trace event.
func (m *Memory) doom(victim int32, addr Addr, wasWriter bool) {
	tx := m.txs[victim]
	if !tx.active || tx.doomed {
		return
	}
	tx.doomed = true
	tx.doomCause = CauseConflict
	tx.doomAddr = addr
	tx.doomWasWriter = wasWriter
	m.doomCount++
	label := m.RegionLabel(addr)
	m.conflictCounts[label]++
	if wasWriter {
		m.conflictWriterCounts[label]++
	}
	m.traceDoomConflict(victim, addr, label, wasWriter)
}

// traceDoomConflict emits the doom event for a coherence conflict.
func (m *Memory) traceDoomConflict(victim int32, addr Addr, label string, wasWriter bool) {
	if m.Tracer == nil {
		return
	}
	ev := m.doomEv(victim, CauseConflict)
	if addr != 0 {
		ev.Region = label
	}
	ev.Writer = wasWriter
	m.Tracer.Emit(ev)
}

// traceDoom emits a doom event when tracing is enabled. addr 0 (never a
// valid reservation) means no implicated address is known.
func (m *Memory) traceDoom(victim int32, cause AbortCause, addr Addr) {
	if m.Tracer == nil {
		return
	}
	ev := m.doomEv(victim, cause)
	if addr != 0 {
		ev.Region = m.RegionLabel(addr)
	}
	m.Tracer.Emit(ev)
}

func (m *Memory) doomEv(victim int32, cause AbortCause) trace.Event {
	var now int64
	if m.Clock != nil {
		now = m.Clock()
	}
	ev := trace.Ev(now, trace.KindDoom)
	ev.Ctx = int(victim)
	ev.Cause = cause.String()
	return ev
}

// Load performs a direct, non-transactional read. It dooms any transaction
// holding the line dirty (a coherence read request hits tx-dirty data).
func (m *Memory) Load(addr Addr) Word {
	l, idx := m.locate(&m.last, addr)
	if w := l.writer; w >= 0 {
		m.doom(w, addr, true)
	}
	return *l.word(idx)
}

// Store performs a direct, non-transactional write. It dooms every
// transaction that has the line in its read or write set.
func (m *Memory) Store(addr Addr, w Word) {
	l, idx := m.locate(&m.last, addr)
	if wr := l.writer; wr >= 0 {
		m.doom(wr, addr, true)
	}
	if l.readers != 0 {
		m.doomReaders(l, addr, -1)
	}
	if m.hazardDepth > 0 {
		l.hazard = m.hazardEpoch
	}
	m.version++
	*l.word(idx) = w
}

// Version returns the global commit counter: the number of times memory has
// been updated by direct Stores or committed transactions. A stable Version
// across two observations means no write was published in between.
func (m *Memory) Version() uint64 { return m.version }

// HazardHit reports whether addr's line was written non-transactionally
// inside the currently open hazard window. The OCC tier uses it to refuse
// values that may be a lock holder's intermediate state; hardware
// transactions get the same check on every Load and Store.
func (m *Memory) HazardHit(addr Addr) bool {
	l, _ := m.find(addr)
	return l != nil && l.hazard == m.hazardEpoch
}

// Peek reads a word without any side effects, coherence or host: a line
// nothing has accessed reads as zero and stays unmaterialised. It is intended
// for debuggers, tests, statistics and OCC validation, never for simulated
// program execution.
func (m *Memory) Peek(addr Addr) Word {
	if l, idx := m.find(addr); l != nil {
		return *l.word(idx)
	}
	return Word{}
}

// Poke writes a word without any coherence side effects (test use only).
func (m *Memory) Poke(addr Addr, w Word) {
	l, idx := m.locate(&m.last, addr)
	*l.word(idx) = w
}

// doomReaders dooms every reader of l except the context `except`
// (pass -1 to doom all readers).
func (m *Memory) doomReaders(l *line, addr Addr, except int32) {
	rs := l.readers
	for rs != 0 {
		id := int32(bits.TrailingZeros64(rs))
		rs &^= 1 << uint(id)
		if id != except {
			m.doom(id, addr, false)
		}
	}
}

// wline is one write-set entry: the line and which words of the entry's
// shadow slot hold speculative stores.
type wline struct {
	l     *line
	dirty uint64
}

// Tx is one transactional context: the read/write sets and the speculative
// write buffer of a single hardware thread's transaction.
type Tx struct {
	id  int32
	mem *Memory

	active        bool
	doomed        bool
	doomWasWriter bool
	doomCause     AbortCause
	doomAddr      Addr

	last lineCache // for the transactional access path

	readLines []*line // the read set
	// The write set, in acquisition order, and its speculative stores: entry
	// i buffers into shadow[i*wordsPerLine:][:wordsPerLine]. A line taken
	// back after another writer stole it gets a second entry (it counts
	// against WriteCapacity twice, as it always has); only a doomed
	// transaction can hold such duplicates. shadow only ever grows.
	wlines []wline
	shadow []Word

	// Capacity limits in lines, set by the HTM layer at begin time (and
	// possibly lowered mid-transaction when an SMT sibling becomes active).
	ReadCapacity  int
	WriteCapacity int
}

// ID returns the context id of the transaction.
func (t *Tx) ID() int { return int(t.id) }

// Active reports whether a transaction is currently running in this context.
func (t *Tx) Active() bool { return t.active }

// Doomed reports whether the running transaction has been doomed and must
// abort at its next transactional instruction.
func (t *Tx) Doomed() bool { return t.doomed }

// DoomCause returns the cause recorded when the transaction was doomed.
func (t *Tx) DoomCause() AbortCause { return t.doomCause }

// DoomAddr returns the simulated address implicated in the doom, when known.
func (t *Tx) DoomAddr() Addr { return t.doomAddr }

// DoomedAsWriter reports whether the doomed transaction held the conflicting
// line in its write set (it was the line's dirty owner) rather than merely
// its read set. Only meaningful when DoomCause is CauseConflict.
func (t *Tx) DoomedAsWriter() bool { return t.doomWasWriter }

// ReadSetLines returns the current read-set size in cache lines.
func (t *Tx) ReadSetLines() int { return len(t.readLines) }

// WriteSetLines returns the current write-set size in cache lines.
func (t *Tx) WriteSetLines() int { return len(t.wlines) }

// Begin starts a transaction in this context with the given capacity limits
// (in cache lines). It panics if a transaction is already active: the
// simulated machines do not support nesting beyond flattening, which the
// HTM layer implements.
func (t *Tx) Begin(readCap, writeCap int) {
	if t.active {
		panic("simmem: nested Tx.Begin")
	}
	t.active = true
	t.doomed = false
	t.doomWasWriter = false
	t.doomCause = CauseNone
	t.doomAddr = 0
	t.ReadCapacity = readCap
	t.WriteCapacity = writeCap
}

// SelfDoom dooms the running transaction from software with the given cause
// (explicit abort, restricted operation, interrupt, learning-model abort).
func (t *Tx) SelfDoom(cause AbortCause) {
	if !t.active || t.doomed {
		return
	}
	t.doomed = true
	t.doomCause = cause
	t.mem.traceDoom(t.id, cause, 0)
}

// lostStore is the stolen-line rule: a doomed transaction's search of its own
// write set for the newest entry that buffers word idx of l, for the lines
// whose wslot no longer (or not only) names the entry.
func (t *Tx) lostStore(l *line, idx int) (Word, bool) {
	for i := len(t.wlines) - 1; i >= 0; i-- {
		if e := &t.wlines[i]; e.l == l && e.dirty>>uint(idx)&1 != 0 {
			return t.shadow[i*t.mem.wordsPerLine+idx], true
		}
	}
	return Word{}, false
}

// Load performs a transactional read. The line joins the read set; a
// conflicting dirty line dooms its writer (requester wins). Reading beyond
// ReadCapacity dooms the transaction itself with CauseReadOverflow.
func (t *Tx) Load(addr Addr) Word {
	m := t.mem
	l, idx := m.locate(&t.last, addr)
	if l.hazard == m.hazardEpoch {
		// Written non-transactionally inside the open hazard window: without
		// a begin-time lock subscription the transaction would be reading the
		// lock holder's intermediate state, so the simulated hardware
		// extension kills it with a conflict, attributed like any other.
		m.doom(t.id, addr, false)
	}
	if w := l.writer; w >= 0 && w != t.id {
		if m.Chooser != nil && m.Chooser.Choose(choice.Conflict, 2) == 1 {
			// Explored alternative: the requester loses the conflict. It is
			// doomed without touching the line state; the value read is
			// irrelevant, the transaction rolls back at its next boundary.
			m.doom(t.id, addr, false)
			return *l.word(idx)
		}
		m.doom(w, addr, true)
	}
	bit := uint64(1) << uint(t.id)
	if l.readers&bit == 0 {
		l.readers |= bit
		t.readLines = append(t.readLines, l)
		if len(t.readLines) > t.ReadCapacity {
			t.doomed = true
			t.doomCause = CauseReadOverflow
			t.doomAddr = addr
			m.traceDoom(t.id, CauseReadOverflow, addr)
		}
	}
	if l.writer == t.id && t.wlines[l.wslot].dirty>>uint(idx)&1 != 0 {
		return t.shadow[int(l.wslot)*m.wordsPerLine+idx]
	}
	if t.doomed {
		if w, ok := t.lostStore(l, idx); ok {
			return w
		}
	}
	return *l.word(idx)
}

// Store performs a transactional write into the speculative buffer. The
// line joins the write set; conflicting readers and writers are doomed
// (requester wins). Writing beyond WriteCapacity dooms the transaction with
// CauseWriteOverflow.
func (t *Tx) Store(addr Addr, w Word) {
	m := t.mem
	l, idx := m.locate(&t.last, addr)
	if l.hazard == m.hazardEpoch {
		m.doom(t.id, addr, false) // see Load
	}
	if wr := l.writer; wr != t.id {
		if m.Chooser != nil && (wr >= 0 || l.readers&^(1<<uint(t.id)) != 0) &&
			m.Chooser.Choose(choice.Conflict, 2) == 1 {
			// Explored alternative: the requester loses instead of dooming
			// the holder(s); the line and write buffer stay untouched.
			m.doom(t.id, addr, false)
			return
		}
		if wr >= 0 {
			m.doom(wr, addr, true)
		}
		if l.readers&^(1<<uint(t.id)) != 0 {
			m.doomReaders(l, addr, t.id)
		}
		l.writer, l.wslot = t.id, int32(len(t.wlines))
		t.wlines = append(t.wlines, wline{l: l})
		if n := len(t.wlines) * m.wordsPerLine; n > len(t.shadow) {
			t.shadow = append(t.shadow, make([]Word, n-len(t.shadow))...)
		}
		if len(t.wlines) > t.WriteCapacity {
			t.doomed = true
			t.doomCause = CauseWriteOverflow
			t.doomAddr = addr
			m.traceDoom(t.id, CauseWriteOverflow, addr)
		}
	}
	t.wlines[l.wslot].dirty |= 1 << uint(idx)
	t.shadow[int(l.wslot)*m.wordsPerLine+idx] = w
}

// Commit attempts to commit the transaction. On success the speculative
// writes are published and Commit returns true. If the transaction was
// doomed, nothing is published and Commit returns false; the caller must
// then complete the abort with Rollback.
func (t *Tx) Commit() bool {
	if !t.active {
		panic("simmem: Commit without active transaction")
	}
	if t.doomed {
		return false
	}
	m := t.mem
	if len(t.wlines) > 0 {
		m.version++
	}
	for i, e := range t.wlines {
		slot := t.shadow[i*m.wordsPerLine:]
		for d := e.dirty; d != 0; d &= d - 1 {
			idx := bits.TrailingZeros64(d)
			*e.l.word(idx) = slot[idx]
		}
	}
	t.cleanup()
	return true
}

// Rollback discards the speculative state of a doomed (or abandoned)
// transaction and returns the abort cause.
func (t *Tx) Rollback() AbortCause {
	if !t.active {
		panic("simmem: Rollback without active transaction")
	}
	cause := t.doomCause
	if cause == CauseNone {
		cause = CauseExplicit
	}
	t.cleanup()
	return cause
}

// cleanup deregisters the transaction from every line it touched and leaves
// the context idle.
func (t *Tx) cleanup() {
	bit := uint64(1) << uint(t.id)
	for _, l := range t.readLines {
		l.readers &^= bit
	}
	for _, e := range t.wlines {
		if e.l.writer == t.id {
			e.l.writer = -1
		}
	}
	t.readLines = t.readLines[:0]
	t.wlines = t.wlines[:0]
	t.active = false
	t.doomed = false
	t.doomWasWriter = false
	t.doomCause = CauseNone
}

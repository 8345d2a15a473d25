package simmem

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The differential tests run one operation stream against a Memory and
// against refMem, a reference model that keeps everything in plain maps keyed
// by address (the shape this package had before the write buffer, the hazard
// set and the line words moved into the line table), and compare everything
// a caller can observe after every operation. The model is the oracle for
// the corner cases the line-resident layout has to reproduce: a doomed
// transaction that keeps running after its dirty line was stolen, takes the
// line back, overflows, or is doomed a second time for another reason.

type refTx struct {
	active, doomed, asWriter bool
	cause                    AbortCause
	addr                     Addr
	reads, writes            []Addr // line numbers, in acquisition order
	buf                      map[Addr]Word
	rcap, wcap               int
}

type refMem struct {
	lineShift uint
	words     map[Addr]Word
	readers   map[Addr]uint64 // line number -> context bitmap
	writer    map[Addr]int    // line number -> context
	hazard    map[Addr]bool   // line numbers stored directly in the open window
	depth     int
	version   uint64
	dooms     uint64
	txs       []*refTx
}

func newRefMem(lineBytes, nctx int) *refMem {
	r := &refMem{
		words: map[Addr]Word{}, readers: map[Addr]uint64{}, writer: map[Addr]int{}, hazard: map[Addr]bool{},
	}
	for 1<<r.lineShift != lineBytes {
		r.lineShift++
	}
	for i := 0; i < nctx; i++ {
		r.txs = append(r.txs, &refTx{buf: map[Addr]Word{}})
	}
	return r
}

func (r *refMem) doom(victim int, addr Addr, wasWriter bool) {
	t := r.txs[victim]
	if !t.active || t.doomed {
		return
	}
	t.doomed, t.cause, t.addr, t.asWriter = true, CauseConflict, addr, wasWriter
	r.dooms++
}

func (r *refMem) doomReaders(la, addr Addr, except int) {
	for id := range r.txs {
		if r.readers[la]>>uint(id)&1 != 0 && id != except {
			r.doom(id, addr, false)
		}
	}
}

func (r *refMem) load(addr Addr) Word {
	if w, ok := r.writer[addr>>r.lineShift]; ok {
		r.doom(w, addr, true)
	}
	return r.words[addr]
}

func (r *refMem) store(addr Addr, w Word) {
	la := addr >> r.lineShift
	if wr, ok := r.writer[la]; ok {
		r.doom(wr, addr, true)
	}
	r.doomReaders(la, addr, -1)
	if r.depth > 0 {
		r.hazard[la] = true
	}
	r.version++
	r.words[addr] = w
}

func (r *refMem) endHazard() {
	if r.depth > 0 {
		r.depth--
	}
	if r.depth == 0 {
		r.hazard = map[Addr]bool{}
	}
}

func (r *refMem) begin(id, rcap, wcap int) {
	*r.txs[id] = refTx{active: true, buf: r.txs[id].buf, rcap: rcap, wcap: wcap}
}

func (r *refMem) hazardCheck(id int, addr Addr) {
	t := r.txs[id]
	if t.doomed || !r.hazard[addr>>r.lineShift] {
		return
	}
	t.doomed, t.cause, t.addr, t.asWriter = true, CauseConflict, addr, false
	r.dooms++
}

func (r *refMem) txLoad(id int, addr Addr) Word {
	t, la := r.txs[id], addr>>r.lineShift
	r.hazardCheck(id, addr)
	if w, ok := r.writer[la]; ok && w != id {
		r.doom(w, addr, true)
	}
	if r.readers[la]>>uint(id)&1 == 0 {
		r.readers[la] |= 1 << uint(id)
		if t.reads = append(t.reads, la); len(t.reads) > t.rcap {
			t.doomed, t.cause, t.addr = true, CauseReadOverflow, addr
		}
	}
	if w, ok := t.buf[addr]; ok {
		return w
	}
	return r.words[addr]
}

func (r *refMem) txStore(id int, addr Addr, w Word) {
	t, la := r.txs[id], addr>>r.lineShift
	r.hazardCheck(id, addr)
	if wr, ok := r.writer[la]; !ok || wr != id {
		if ok {
			r.doom(wr, addr, true)
		}
		r.doomReaders(la, addr, id)
		r.writer[la] = id
		if t.writes = append(t.writes, la); len(t.writes) > t.wcap {
			t.doomed, t.cause, t.addr = true, CauseWriteOverflow, addr
		}
	}
	t.buf[addr] = w
}

func (r *refMem) selfDoom(id int, cause AbortCause) {
	if t := r.txs[id]; t.active && !t.doomed {
		t.doomed, t.cause = true, cause
	}
}

func (r *refMem) commit(id int) bool {
	t := r.txs[id]
	if t.doomed {
		return false
	}
	if len(t.buf) > 0 {
		r.version++
	}
	for a, w := range t.buf {
		r.words[a] = w
	}
	r.cleanup(id)
	return true
}

func (r *refMem) rollback(id int) AbortCause {
	cause := r.txs[id].cause
	if cause == CauseNone {
		cause = CauseExplicit
	}
	r.cleanup(id)
	return cause
}

func (r *refMem) cleanup(id int) {
	t := r.txs[id]
	for _, la := range t.reads {
		r.readers[la] &^= 1 << uint(id)
	}
	for _, la := range t.writes {
		if w, ok := r.writer[la]; ok && w == id {
			delete(r.writer, la)
		}
	}
	clear(t.buf)
	*t = refTx{buf: t.buf, addr: t.addr}
}

// diffRig drives a Memory and its reference in lock step.
type diffRig struct {
	t    *testing.T
	mem  *Memory
	ref  *refMem
	base Addr
	size int // bytes
	what string
}

func newDiffRig(t *testing.T, lineBytes, nctx, bytes int) *diffRig {
	m := NewMemory(Config{LineBytes: lineBytes}, nctx)
	return &diffRig{t: t, mem: m, ref: newRefMem(lineBytes, nctx), base: m.Reserve("data", bytes), size: bytes}
}

// check compares every observable of every context, the version counter, the
// hazard flag and the doom count.
func (d *diffRig) check() {
	d.t.Helper()
	for id, rt := range d.ref.txs {
		tx := d.mem.Tx(id)
		got := fmt.Sprint(tx.Active(), tx.Doomed(), tx.DoomCause(), tx.DoomedAsWriter(), tx.DoomAddr(), tx.ReadSetLines(), tx.WriteSetLines())
		want := fmt.Sprint(rt.active, rt.doomed, rt.cause, rt.asWriter, rt.addr, len(rt.reads), len(rt.writes))
		if got != want {
			d.t.Fatalf("%s: ctx %d (active doomed cause asWriter addr rlines wlines) = %s, reference %s", d.what, id, got, want)
		}
	}
	if d.mem.Version() != d.ref.version {
		d.t.Fatalf("%s: version %d, reference %d", d.what, d.mem.Version(), d.ref.version)
	}
	if d.mem.HazardActive() != (d.ref.depth > 0) {
		d.t.Fatalf("%s: HazardActive %v, reference depth %d", d.what, d.mem.HazardActive(), d.ref.depth)
	}
	if got := d.mem.ConflictCounts()["data"]; got != d.ref.dooms {
		d.t.Fatalf("%s: %d conflict dooms, reference %d", d.what, got, d.ref.dooms)
	}
}

func (d *diffRig) same(got, want Word) {
	d.t.Helper()
	if got != want {
		d.t.Fatalf("%s: read %v, reference %v", d.what, got, want)
	}
	d.check()
}

func (d *diffRig) op(format string, args ...any) { d.what = fmt.Sprintf(format, args...) }

func (d *diffRig) begin(id, rcap, wcap int) {
	d.op("ctx %d begin(%d, %d)", id, rcap, wcap)
	d.mem.Tx(id).Begin(rcap, wcap)
	d.ref.begin(id, rcap, wcap)
	d.check()
}

func (d *diffRig) txLoad(id int, a Addr) {
	d.op("ctx %d load %#x", id, uint64(a))
	d.same(d.mem.Tx(id).Load(a), d.ref.txLoad(id, a))
}

func (d *diffRig) txStore(id int, a Addr, w Word) {
	d.op("ctx %d store %#x", id, uint64(a))
	d.mem.Tx(id).Store(a, w)
	d.ref.txStore(id, a, w)
	d.check()
}

func (d *diffRig) load(a Addr) {
	d.op("direct load %#x", uint64(a))
	d.same(d.mem.Load(a), d.ref.load(a))
}

func (d *diffRig) store(a Addr, w Word) {
	d.op("direct store %#x", uint64(a))
	d.mem.Store(a, w)
	d.ref.store(a, w)
	d.check()
}

func (d *diffRig) commit(id int) bool {
	d.op("ctx %d commit", id)
	got, want := d.mem.Tx(id).Commit(), d.ref.commit(id)
	if got != want {
		d.t.Fatalf("%s: %v, reference %v", d.what, got, want)
	}
	d.check()
	return got
}

func (d *diffRig) rollback(id int) {
	d.op("ctx %d rollback", id)
	if got, want := d.mem.Tx(id).Rollback(), d.ref.rollback(id); got != want {
		d.t.Fatalf("%s: cause %v, reference %v", d.what, got, want)
	}
	d.check()
}

func (d *diffRig) hazard(open bool) {
	d.op("hazard window open=%v", open)
	if open {
		d.mem.StartHazard()
		d.ref.depth++
	} else {
		d.mem.EndHazard()
		d.ref.endHazard()
	}
	d.check()
}

// finalMemory compares every word of the region, and the hazard set.
func (d *diffRig) finalMemory() {
	d.t.Helper()
	for a := d.base; a < d.base+Addr(d.size); a += WordBytes {
		if got, want := d.mem.Peek(a), d.ref.words[a]; got != want {
			d.t.Fatalf("final memory: [%#x] = %v, reference %v", uint64(a), got, want)
		}
		if got, want := d.mem.HazardHit(a), d.ref.hazard[a>>d.ref.lineShift]; got != want {
			d.t.Fatalf("final memory: HazardHit(%#x) = %v, reference %v", uint64(a), got, want)
		}
	}
}

// TestDiffRandomInterleavings: seeded random streams on four contexts, both
// line sizes. Doomed transactions usually keep running for a while, as the
// interpreter's do until their next boundary.
func TestDiffRandomInterleavings(t *testing.T) {
	for _, lineBytes := range []int{64, 256} {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("line%d/seed%d", lineBytes, seed), func(t *testing.T) {
				const nctx, lines = 4, 24
				rng := rand.New(rand.NewSource(seed))
				d := newDiffRig(t, lineBytes, nctx, lines*lineBytes)
				words := lines * lineBytes / WordBytes
				addr := func() Addr { return d.base + Addr(rng.Intn(words))*WordBytes }
				word := func() Word {
					w := Word{Bits: uint64(rng.Int63())}
					if rng.Intn(4) == 0 {
						w.Ref = rng.Intn(1000)
					}
					return w
				}
				caps := []int{2, 5, 1 << 20}
				for step := 0; step < 6000; step++ {
					id := rng.Intn(nctx)
					rt := d.ref.txs[id]
					switch k := rng.Intn(100); {
					case !rt.active:
						if k < 60 {
							d.begin(id, caps[rng.Intn(3)], caps[rng.Intn(3)])
						}
					case rt.doomed && k < 25:
						d.commit(id)
						d.rollback(id)
					case k < 40:
						d.txLoad(id, addr())
					case k < 78:
						d.txStore(id, addr(), word())
					case k < 82:
						if !d.commit(id) {
							d.rollback(id)
						}
					case k < 84:
						d.rollback(id)
					case k < 86:
						d.op("ctx %d self-doom", id)
						d.mem.Tx(id).SelfDoom(CauseInterrupt)
						d.ref.selfDoom(id, CauseInterrupt)
						d.check()
					case k < 90:
						d.load(addr())
					case k < 95:
						d.store(addr(), word())
					case k < 98:
						d.hazard(d.ref.depth == 0 || k == 95)
					default:
						d.op("peek")
						a := addr()
						d.same(d.mem.Peek(a), d.ref.words[a])
					}
				}
				for id := 0; id < nctx; id++ {
					if d.ref.txs[id].active && !d.commit(id) {
						d.rollback(id)
					}
				}
				d.finalMemory()
			})
		}
	}
}

// TestDiffStolenLine walks the stolen-line rule step by step: the victim of
// a write-write conflict keeps reading its own stores, can take the line
// back (a second write-set entry), and sees the newest value of each word.
func TestDiffStolenLine(t *testing.T) {
	for _, lineBytes := range []int{64, 256} {
		d := newDiffRig(t, lineBytes, 3, 4*lineBytes)
		a, b := d.base, d.base+8
		d.store(a, Word{Bits: 1})
		d.begin(0, 64, 64)
		d.begin(1, 64, 64)
		d.txStore(0, a, Word{Bits: 10})
		d.txStore(0, a, Word{Bits: 11}) // the same word twice
		d.txStore(1, b, Word{Bits: 20}) // steals the line, dooms ctx 0
		d.txLoad(0, a)                  // the victim's own store, not memory's 1
		d.txLoad(0, b)                  // never stored by the victim: memory's 0
		d.txLoad(1, a)                  // the thief sees memory, not the victim's buffer
		d.txStore(0, b, Word{Bits: 12}) // takes the line back, dooms ctx 1
		d.txLoad(0, a)                  // still 11, from the older entry
		d.txLoad(0, b)                  // 12, from the newer
		d.txStore(0, a, Word{Bits: 13})
		d.txLoad(0, a) // 13: newer entry wins
		d.txLoad(1, b) // the thief, doomed in turn, still reads its 20
		d.store(b, Word{Bits: 30})
		d.txLoad(1, b) // ... even over a direct store
		for id := 0; id < 2; id++ {
			d.commit(id)
			d.rollback(id)
		}
		d.begin(2, 64, 64)
		d.txLoad(2, a) // nothing of either leaked
		d.txLoad(2, b)
		d.commit(2)
		d.finalMemory()
	}
}

// TestDiffShadowGrowth: a write set far larger than any earlier one, then
// small ones reusing the grown buffer, with stale slots never showing.
func TestDiffShadowGrowth(t *testing.T) {
	for _, lineBytes := range []int{64, 256} {
		const lines = 700
		d := newDiffRig(t, lineBytes, 2, lines*lineBytes)
		wpl := lineBytes / WordBytes
		for round, n := range []int{3, lines, 5, lines, 1} {
			d.begin(0, 1<<20, 1<<20)
			for i := 0; i < n; i++ {
				a := d.base + Addr(i*lineBytes) + Addr((i+round)%wpl)*WordBytes
				d.txStore(0, a, Word{Bits: uint64(round*1000 + i), Ref: i})
			}
			for i := 0; i < n; i++ {
				la := d.base + Addr(i*lineBytes)
				d.txLoad(0, la+Addr((i+round)%wpl)*WordBytes)
				d.txLoad(0, la+Addr((i+round+1)%wpl)*WordBytes) // same line, not stored this round
			}
			if round%2 == 0 {
				d.commit(0)
			} else {
				d.rollback(0)
			}
		}
		d.finalMemory()
	}
}

func TestNewMemoryRejectsLineWiderThanDirtyMask(t *testing.T) {
	NewMemory(Config{LineBytes: 512}, 1) // 64 words: the widest that fits
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "1024") || !strings.Contains(msg, "64 words") {
			t.Fatalf("NewMemory(LineBytes: 1024) panicked with %q, want the line size and the 64-word limit named", msg)
		}
	}()
	NewMemory(Config{LineBytes: 1024}, 1)
	t.Fatal("NewMemory accepted a 128-word line")
}

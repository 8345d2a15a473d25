package occ

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"htmgil/internal/simmem"
)

// refTx is the reference model of a software transaction: the read index and
// the write buffer are plain maps keyed by address (the shape Tx had before
// its generation-stamped index), everything else follows Tx line by line. It
// runs over a Memory of its own, fed the same operations as the real one's.
type refTx struct {
	m       *simmem.Memory
	seqAddr simmem.Addr
	stats   *Stats

	active, doomed, gilBlocked bool
	cause                      simmem.AbortCause
	reads                      []logEntry
	readIdx                    map[simmem.Addr]bool
	writeOrd                   []simmem.Addr
	writeBuf                   map[simmem.Addr]simmem.Word
	validatedAt                uint64
	overhead                   int64
}

func (r *refTx) begin() int64 {
	r.active, r.validatedAt = true, r.m.Version()
	r.stats.Begins++
	return BeginCycles
}

func (r *refTx) revalidate(v uint64) bool {
	r.stats.Validations++
	r.overhead += int64(len(r.reads)) * ValidateEntryCycles
	for _, e := range r.reads {
		if r.m.Peek(e.addr) != e.val {
			r.doomed, r.cause = true, simmem.CauseConflict
			r.stats.ValidationFailures++
			return false
		}
	}
	r.validatedAt = v
	return true
}

func (r *refTx) load(a simmem.Addr) simmem.Word {
	if w, ok := r.writeBuf[a]; ok {
		return w
	}
	if r.doomed {
		return r.m.Peek(a)
	}
	if v := r.m.Version(); v != r.validatedAt && !r.revalidate(v) {
		return r.m.Peek(a)
	}
	if r.m.HazardHit(a) {
		r.doomed, r.cause = true, simmem.CauseConflict
		return r.m.Peek(a)
	}
	w := r.m.Load(a)
	if !r.readIdx[a] {
		r.readIdx[a] = true
		r.reads = append(r.reads, logEntry{a, w})
		r.overhead += ReadLogCycles
	}
	return w
}

func (r *refTx) store(a simmem.Addr, w simmem.Word) {
	if _, ok := r.writeBuf[a]; !ok {
		r.writeOrd = append(r.writeOrd, a)
		r.overhead += WriteLogCycles
	}
	r.writeBuf[a] = w
}

func (r *refTx) commit() (int64, bool) {
	cycles := r.overhead + CommitCycles
	r.overhead = 0
	if r.doomed {
		return cycles, false
	}
	if v := r.m.Version(); v != r.validatedAt && !r.revalidate(v) {
		return cycles, false
	}
	if len(r.writeOrd) > 0 {
		r.m.Store(r.seqAddr, simmem.Word{Bits: r.m.Peek(r.seqAddr).Bits + 1})
		for _, a := range r.writeOrd {
			r.m.Store(a, r.writeBuf[a])
			cycles += PublishCycles
		}
	}
	r.stats.Commits++
	r.cleanup()
	return cycles, true
}

func (r *refTx) rollback() (simmem.AbortCause, int64) {
	cause := r.cause
	if cause == simmem.CauseNone {
		cause = simmem.CauseExplicit
	}
	r.stats.Aborts++
	r.stats.ByCause[cause]++
	cycles := r.overhead + AbortCycles
	r.cleanup()
	return cause, cycles
}

func (r *refTx) cleanup() {
	*r = refTx{m: r.m, seqAddr: r.seqAddr, stats: r.stats,
		readIdx: map[simmem.Addr]bool{}, writeBuf: map[simmem.Addr]simmem.Word{}}
}

// TestDiffIndexAgainstMapModel drives three software-transaction contexts,
// direct stores and hazard windows from a seeded stream, on two memories in
// lock step: one under Tx, one under refTx. Transaction sizes are drawn so
// that most fit the initial index and some outgrow it several times over.
func TestDiffIndexAgainstMapModel(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const nctx, words = 3, 1200
			rng := rand.New(rand.NewSource(seed))
			m, rm := newMem(), newMem()
			rt, rrt := NewRuntime(m), NewRuntime(rm)
			base := m.Reserve("data", words*simmem.WordBytes)
			if rm.Reserve("data", words*simmem.WordBytes) != base {
				t.Fatal("the two memories laid out differently")
			}
			var txs []*Tx
			var refs []*refTx
			for id := 0; id < nctx; id++ {
				txs = append(txs, rt.NewTx(id))
				r := &refTx{m: rm, seqAddr: rrt.SeqAddr, stats: rrt.Stats}
				r.cleanup()
				refs = append(refs, r)
			}
			left := make([]int, nctx) // operations until the context ends its transaction
			var what string
			check := func() {
				t.Helper()
				for id, tx := range txs {
					r := refs[id]
					got := fmt.Sprint(tx.Active(), tx.Doomed(), tx.DoomCause(), tx.GILBlocked(), tx.ReadLogLen(), tx.WriteLogLen())
					want := fmt.Sprint(r.active, r.doomed, r.cause, r.gilBlocked, len(r.reads), len(r.writeOrd))
					if got != want {
						t.Fatalf("%s: ctx %d (active doomed cause gilBlocked reads writes) = %s, reference %s", what, id, got, want)
					}
					// First-write publication order, and the buffered values.
					for i, e := range tx.writes {
						if e.addr != r.writeOrd[i] || e.val != r.writeBuf[e.addr] {
							t.Fatalf("%s: ctx %d write %d = %v, reference %#x %v", what, id, i, e, r.writeOrd[i], r.writeBuf[r.writeOrd[i]])
						}
					}
					if !reflect.DeepEqual(tx.reads, r.reads) && len(r.reads) > 0 {
						t.Fatalf("%s: ctx %d read logs differ", what, id)
					}
				}
				if m.Version() != rm.Version() {
					t.Fatalf("%s: version %d, reference %d", what, m.Version(), rm.Version())
				}
				if !reflect.DeepEqual(rt.Stats, rrt.Stats) {
					t.Fatalf("%s: stats %+v, reference %+v", what, *rt.Stats, *rrt.Stats)
				}
			}
			addr := func() simmem.Addr {
				n := words
				if rng.Intn(3) > 0 {
					n = 40 // a hot set: repeated reads, repeated writes, read-own-writes
				}
				return base + simmem.Addr(rng.Intn(n))*simmem.WordBytes
			}
			for step := 0; step < 20000; step++ {
				id := rng.Intn(nctx)
				tx, r := txs[id], refs[id]
				switch k := rng.Intn(100); {
				case !r.active:
					what = fmt.Sprintf("ctx %d begin", id)
					if got, want := tx.Begin(), r.begin(); got != want {
						t.Fatalf("%s: %d cycles, reference %d", what, got, want)
					}
					left[id] = []int{6, 30, 600}[rng.Intn(3)]
				case left[id] == 0 || r.doomed && k < 30:
					what = fmt.Sprintf("ctx %d commit", id)
					gc, gok := tx.Commit()
					wc, wok := r.commit()
					if gc != wc || gok != wok {
						t.Fatalf("%s: (%d, %v), reference (%d, %v)", what, gc, gok, wc, wok)
					}
					if !gok {
						what = fmt.Sprintf("ctx %d rollback", id)
						gcause, gc := tx.Rollback()
						wcause, wc := r.rollback()
						if gcause != wcause || gc != wc {
							t.Fatalf("%s: (%v, %d), reference (%v, %d)", what, gcause, gc, wcause, wc)
						}
					}
				case k < 55:
					a := addr()
					what = fmt.Sprintf("ctx %d load %#x", id, uint64(a))
					if got, want := tx.Load(a), r.load(a); got != want {
						t.Fatalf("%s: %v, reference %v", what, got, want)
					}
					left[id]--
				case k < 93:
					a, w := addr(), simmem.Word{Bits: uint64(rng.Int63())}
					what = fmt.Sprintf("ctx %d store %#x", id, uint64(a))
					tx.Store(a, w)
					r.store(a, w)
					left[id]--
				case k < 96:
					a, w := addr(), simmem.Word{Bits: uint64(rng.Int63())}
					what = fmt.Sprintf("direct store %#x", uint64(a))
					m.Store(a, w)
					rm.Store(a, w)
				case k < 98:
					what = "hazard window"
					if m.HazardActive() {
						m.EndHazard()
						rm.EndHazard()
					} else {
						m.StartHazard()
						rm.StartHazard()
					}
				default:
					what = fmt.Sprintf("ctx %d self-doom", id)
					tx.SelfDoom(simmem.CauseRestricted)
					if !r.doomed {
						r.doomed, r.cause = true, simmem.CauseRestricted
					}
				}
				check()
			}
			for a := base; a < base+words*simmem.WordBytes; a += simmem.WordBytes {
				if got, want := m.Peek(a), rm.Peek(a); got != want {
					t.Fatalf("final memory: [%#x] = %v, reference %v", uint64(a), got, want)
				}
			}
		})
	}
}

// TestIndexGenerationWrap forces the 32-bit generation to wrap and checks
// that no slot of an old transaction comes back to life.
func TestIndexGenerationWrap(t *testing.T) {
	m := newMem()
	tx := NewRuntime(m).NewTx(0)
	a := m.Reserve("a", 8)
	m.Poke(a, simmem.Word{Bits: 5})
	tx.Begin()
	tx.Store(a, simmem.Word{Bits: 6}) // leaves a slot stamped with generation 1
	tx.Rollback()
	tx.gen = ^uint32(0)
	tx.Begin()
	tx.Rollback() // wraps
	if tx.gen != 1 {
		t.Fatalf("generation after the wrap = %d, want 1", tx.gen)
	}
	tx.Begin()
	if got := tx.Load(a); got.Bits != 5 || tx.WriteLogLen() != 0 {
		t.Fatalf("Load after the wrap = %d with %d buffered writes: a slot of generation 1 survived", got.Bits, tx.WriteLogLen())
	}
	tx.Rollback()
}

// TestSteadyStateAllocatesNothing: once the logs and the index have grown to
// a transaction's size, running it again allocates nothing.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	m := newMem()
	tx := NewRuntime(m).NewTx(0)
	base := m.Reserve("data", 200*8)
	body := func() {
		tx.Begin()
		for i := 0; i < 200; i++ {
			a := base + simmem.Addr(i)*8
			tx.Load(a)
			tx.Store(a, simmem.Word{Bits: uint64(i)})
			tx.Load(a)
		}
	}
	for name, end := range map[string]func(){
		"commit":   func() { tx.Commit() },
		"rollback": func() { tx.Rollback() },
	} {
		if n := testing.AllocsPerRun(20, func() { body(); end() }); n != 0 {
			t.Errorf("Begin, 200 x (Load, Store, Load), %s: %v allocations per run, want 0", name, n)
		}
	}
}

package simmem

import (
	"fmt"
	"testing"
)

// TestPagedTableSpansPages stores and reloads words across many pages,
// including page boundaries, so the paged line table and both last-line
// caches are exercised against a straight-line oracle.
func TestPagedTableSpansPages(t *testing.T) {
	m := NewMemory(Config{LineBytes: 64}, 2)
	base := m.Reserve("data", 64*pageLines*3) // three pages of lines
	// Touch every page-boundary line plus a stride through the middle.
	var addrs []Addr
	for p := 0; p < 3; p++ {
		first := base + Addr(p*pageLines*64)
		addrs = append(addrs, first, first+56, first+Addr((pageLines-1)*64))
	}
	for i := Addr(0); i < Addr(pageLines*3); i += 37 {
		addrs = append(addrs, base+i*64)
	}
	oracle := make(map[Addr]uint64)
	for i, a := range addrs {
		m.Store(a, Word{Bits: uint64(i) + 1})
		oracle[a] = uint64(i) + 1
	}
	for _, a := range addrs {
		if got := m.Load(a).Bits; got != oracle[a] {
			t.Fatalf("addr %#x = %d, want %d", uint64(a), got, oracle[a])
		}
	}
	// Line identity must be stable: the same address yields the same line
	// through both the direct and the transactional lookup path.
	tx := m.Tx(0)
	tx.Begin(1024, 1024)
	for _, a := range addrs {
		dl, di := m.locate(&m.last, a)
		tl, ti := m.locate(&tx.last, a)
		if dl != tl || di != ti {
			t.Fatalf("line identity differs for %#x", uint64(a))
		}
	}
	tx.Rollback()
}

// TestLastLineCacheSeesConflicts interleaves accesses from two contexts to
// the same line so any stale-cache bug would miss a doom.
func TestLastLineCacheSeesConflicts(t *testing.T) {
	m := NewMemory(Config{LineBytes: 64}, 2)
	a := m.Reserve("a", 64)
	b := m.Reserve("b", 64)
	t0, t1 := m.Tx(0), m.Tx(1)
	t0.Begin(16, 16)
	t1.Begin(16, 16)
	t0.Store(a, Word{Bits: 1}) // t0's cache now holds line a
	t1.Store(b, Word{Bits: 2}) // t1's cache now holds line b
	t1.Store(a, Word{Bits: 3}) // requester wins: t0 doomed via shared line state
	if !t0.Doomed() || t1.Doomed() {
		t.Fatalf("doomed = %v/%v, want true/false", t0.Doomed(), t1.Doomed())
	}
	if !t0.DoomedAsWriter() {
		t.Fatalf("victim held the line dirty; DoomedAsWriter = false")
	}
	t0.Rollback()
	if !t1.Commit() {
		t.Fatalf("winner failed to commit")
	}
}

// TestRegionLabelBinarySearch checks the sorted-base lookup over many
// regions, including both boundaries of each region, the unused low line,
// and addresses beyond the break.
func TestRegionLabelBinarySearch(t *testing.T) {
	m := NewMemory(Config{LineBytes: 64}, 1)
	type reg struct {
		label     string
		base, end Addr
	}
	var regs []reg
	for i := 0; i < 40; i++ {
		label := fmt.Sprintf("r%02d", i)
		bytes := 64 * (1 + i%5)
		base := m.Reserve(label, bytes)
		regs = append(regs, reg{label, base, base + Addr(bytes)})
	}
	for _, r := range regs {
		if got := m.RegionLabel(r.base); got != r.label {
			t.Fatalf("RegionLabel(base of %s) = %q", r.label, got)
		}
		if got := m.RegionLabel(r.end - WordBytes); got != r.label {
			t.Fatalf("RegionLabel(last word of %s) = %q", r.label, got)
		}
	}
	if got := m.RegionLabel(0); got != "unknown" {
		t.Fatalf("RegionLabel(0) = %q", got)
	}
	if got := m.RegionLabel(regs[len(regs)-1].end + 4096); got != "unknown" {
		t.Fatalf("RegionLabel(past brk) = %q", got)
	}
}

// TestConflictWriterAttribution checks the reader/writer doom split: a
// direct store dooms a reader (not a writer doom) and a writer (a writer
// doom), and the per-region counters record the difference.
func TestConflictWriterAttribution(t *testing.T) {
	m := NewMemory(Config{LineBytes: 64}, 3)
	addr := m.Reserve("hot", 64)

	reader, writer := m.Tx(0), m.Tx(1)
	reader.Begin(16, 16)
	writer.Begin(16, 16)
	reader.Load(addr)
	other := m.Reserve("cold", 64)
	writer.Store(other, Word{Bits: 1})

	m.Store(addr, Word{Bits: 9}) // dooms reader, as a reader
	if !reader.Doomed() || reader.DoomedAsWriter() {
		t.Fatalf("reader doom: doomed=%v asWriter=%v", reader.Doomed(), reader.DoomedAsWriter())
	}
	m.Load(other) // dooms writer, as a writer
	if !writer.Doomed() || !writer.DoomedAsWriter() {
		t.Fatalf("writer doom: doomed=%v asWriter=%v", writer.Doomed(), writer.DoomedAsWriter())
	}
	reader.Rollback()
	writer.Rollback()

	if got := m.ConflictCounts()["hot"]; got != 1 {
		t.Fatalf("hot conflicts = %d, want 1", got)
	}
	if got := m.ConflictWriterCounts()["hot"]; got != 0 {
		t.Fatalf("hot writer-conflicts = %d, want 0", got)
	}
	if got := m.ConflictWriterCounts()["cold"]; got != 1 {
		t.Fatalf("cold writer-conflicts = %d, want 1", got)
	}
	// Begin resets the per-transaction writer flag.
	writer.Begin(16, 16)
	if writer.DoomedAsWriter() {
		t.Fatalf("DoomedAsWriter survived Begin")
	}
	writer.Rollback()
}

package simmem

import (
	"testing"
	"unsafe"
)

// The allocation guards: what the storage layout promises about host memory.

// TestSteadyStateTransactionsAllocateNothing: once the sets and the shadow
// buffer have grown to a transaction's size, running it again allocates
// nothing, whether it commits or rolls back.
func TestSteadyStateTransactionsAllocateNothing(t *testing.T) {
	for _, lineBytes := range []int{64, 256} {
		m := NewMemory(Config{LineBytes: lineBytes}, 2)
		const k = 300
		base := m.Reserve("data", k*lineBytes)
		tx := m.Tx(0)
		body := func() {
			tx.Begin(1<<20, 1<<20)
			for i := 0; i < k; i++ {
				a := base + Addr(i*lineBytes)
				tx.Store(a, Word{Bits: uint64(i)})
				tx.Store(a+8, Word{Bits: uint64(i)})
				tx.Load(a)
			}
		}
		for name, end := range map[string]func(){
			"Commit":   func() { tx.Commit() },
			"Rollback": func() { tx.Rollback() },
		} {
			if n := testing.AllocsPerRun(20, func() { body(); end() }); n != 0 {
				t.Errorf("%d-byte lines: Begin, %d x (Store, Store, Load), %s: %v allocations per run, want 0", lineBytes, k, name, n)
			}
		}
	}
}

// TestHazardWindowAllocatesNothing: a window is a counter and an epoch, and
// recording a line in it is a stamp on the line.
func TestHazardWindowAllocatesNothing(t *testing.T) {
	m := NewMemory(Config{LineBytes: 64}, 1)
	base := m.Reserve("data", 64*64)
	for i := 0; i < 64; i++ {
		m.Store(base+Addr(i*64), Word{})
	}
	n := testing.AllocsPerRun(100, func() {
		m.StartHazard()
		for i := 0; i < 64; i++ {
			m.Store(base+Addr(i*64), Word{Bits: 1})
		}
		m.EndHazard()
	})
	if n != 0 {
		t.Errorf("StartHazard, 64 x Store, EndHazard: %v allocations per run, want 0", n)
	}
}

// TestPeekIsFreeOfSideEffects: reading an untouched megabyte without
// coherence must not materialise a line, a page or a page-directory entry.
func TestPeekIsFreeOfSideEffects(t *testing.T) {
	m := NewMemory(Config{LineBytes: 64}, 1)
	base := m.Reserve("data", 1<<20)
	n := testing.AllocsPerRun(1, func() {
		for a := base; a < base+1<<20; a += WordBytes {
			if w := m.Peek(a); w != (Word{}) {
				t.Fatalf("Peek(%#x) of untouched memory = %v", uint64(a), w)
			}
			if m.HazardHit(a) {
				t.Fatalf("HazardHit(%#x) of untouched memory", uint64(a))
			}
		}
	})
	if n != 0 || len(m.pages) != 0 {
		t.Errorf("Peek over an untouched 1 MB range: %v allocations, %d page-directory entries, want none", n, len(m.pages))
	}
}

// TestMaterialisationCost: touching N consecutive lines costs the pages that
// hold them, one slab chunk per 64 lines (256-byte) or 256 lines (64-byte)
// and the doubling page directory — not one allocation per line; and a line
// struct stays at 40 bytes, the size the sparse datastore address spaces were
// budgeted on.
func TestMaterialisationCost(t *testing.T) {
	if s := unsafe.Sizeof(line{}); s > 40 {
		t.Errorf("line struct is %d bytes, want at most 40", s)
	}
	for _, lineBytes := range []int{64, 256} {
		const n = 8192
		var m *Memory
		var base Addr
		allocs := testing.AllocsPerRun(1, func() {
			m = NewMemory(Config{LineBytes: lineBytes}, 1)
			base = m.Reserve("data", n*lineBytes)
			for i := 0; i < n; i++ {
				m.Store(base+Addr(i*lineBytes), Word{Bits: 1})
			}
		})
		pages := n/pageLines + 1
		const fixed = 20 // NewMemory, Reserve, the directory's doublings
		if max := float64(n/64 + pages + fixed); allocs > max {
			t.Errorf("%d-byte lines: touching %d consecutive lines cost %v allocations, want at most %d/64 + %d pages + %d", lineBytes, n, allocs, n, pages, fixed)
		}
	}
}

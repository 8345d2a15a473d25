package bench

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"htmgil/internal/htm"
	"htmgil/internal/npb"
)

// runMicroWith runs the quick micro-benchmark experiment with the given
// worker count and returns the three observable outputs: the plain-text
// table, the Reports JSON, and the trace-summary digest.
func runMicroWith(t *testing.T, parallel int) (table, reports, digest string) {
	t.Helper()
	var tb strings.Builder
	s := NewSession(&tb, true)
	s.TraceSummary = true
	s.Parallel = parallel
	if err := s.Run("micro"); err != nil {
		t.Fatal(err)
	}
	var rep strings.Builder
	if err := s.WriteReports(&rep); err != nil {
		t.Fatal(err)
	}
	var dig strings.Builder
	s.WriteTraceSummaries(&dig)
	return tb.String(), rep.String(), dig.String()
}

// TestParallelDeterminism runs the same experiment sequentially and on
// eight workers and requires byte-identical tables, Reports JSON, and
// trace digests. Under -race this also exercises the worker pool for
// data races between points.
func TestParallelDeterminism(t *testing.T) {
	t1, r1, d1 := runMicroWith(t, 1)
	t8, r8, d8 := runMicroWith(t, 8)
	if !strings.Contains(t1, "Section 5.3") {
		t.Fatalf("sequential table looks empty:\n%s", t1)
	}
	if t1 != t8 {
		t.Errorf("tables differ between -parallel 1 and 8:\n--- seq ---\n%s\n--- par ---\n%s", t1, t8)
	}
	if r1 != r8 {
		t.Errorf("reports JSON differs between -parallel 1 and 8:\n--- seq ---\n%s\n--- par ---\n%s", r1, r8)
	}
	if d1 != d8 {
		t.Errorf("trace digests differ between -parallel 1 and 8:\n--- seq ---\n%s\n--- par ---\n%s", d1, d8)
	}
}

// TestParallelFirstErrorWins checks that when several points fail on the
// worker pool, flush reports the first failure in point order — the same
// error a sequential run would have stopped at.
func TestParallelFirstErrorWins(t *testing.T) {
	s := NewSession(nil, true)
	s.Parallel = 8
	p := &plan{s: s}
	for i := 0; i < 20; i++ {
		fail := i == 7 || i == 13
		p.raw(fmt.Sprintf("pt%02d", i), func(io.Writer) error {
			if fail {
				return errors.New("boom")
			}
			return nil
		})
	}
	err := p.flush()
	if err == nil || !strings.Contains(err.Error(), "pt07") {
		t.Fatalf("err = %v, want the first failing point pt07", err)
	}
}

// BenchmarkQuickFig5Point measures one end-to-end quick Figure 5
// configuration point: a full VM build plus an NPB kernel run.
func BenchmarkQuickFig5Point(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSession(io.Discard, true)
		p := &plan{s: s}
		p.point(kernel("bench", "bench point", htm.ZEC12(), Configs()[4], npb.BT, npb.ClassS, 4))
		if err := p.flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFinishedPointsDoNotPinTheirVMs: a plan keeps the record of every
// finished point until it has rendered; the records must hold values only.
// A record that reaches its VM costs ~35 MB, and quick fig6b has 16 points.
func TestFinishedPointsDoNotPinTheirVMs(t *testing.T) {
	s := NewSession(io.Discard, true)
	s.Parallel = 1
	p := &plan{s: s}
	s.buildFig6b(p)
	if err := p.flush(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapAlloc > 100<<20 {
		t.Errorf("heap after %d finished points = %d MB, want < 100 MB", len(p.pts), m.HeapAlloc>>20)
	}
	runtime.KeepAlive(p)
}

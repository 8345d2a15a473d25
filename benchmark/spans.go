package main

import (
	"sort"
	"time"
)

// Span is one timed interval of the harness around a call into a layer.
// Parent is the ID of the span that caused it (-1 for a root); spans of one
// iteration share that iteration's root.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder is
// the untraced run: begin and end do nothing, so point code is written once.
type spanRecorder struct {
	t0    time.Time
	spans []Span
	open  []int // stack of open span IDs
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its ID.
func (r *spanRecorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, StartNs: time.Since(r.t0).Nanoseconds()})
	r.open = append(r.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (r *spanRecorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].EndNs = time.Since(r.t0).Nanoseconds()
	r.open = r.open[:len(r.open)-1]
}

// spanSummary is the per-name digest of a traced run.
type spanSummary struct {
	Name    string
	TotalMs float64 // summed duration per iteration
	SelfMs  float64 // summed duration minus the part child spans cover, per iteration
}

// summarize folds spans by name. Self time is a span's duration minus the
// durations of its direct children (children of one span never overlap: the
// harness is single-threaded). Values are divided by iterations so they
// read per iteration.
func summarize(spans []Span, iterations int) []spanSummary {
	if iterations < 1 {
		iterations = 1
	}
	childNs := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.EndNs - s.StartNs
		}
	}
	byName := map[string]*spanSummary{}
	for _, s := range spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		d := s.EndNs - s.StartNs
		sum.TotalMs += float64(d) / 1e6
		sum.SelfMs += float64(d-childNs[s.ID]) / 1e6
	}
	out := make([]spanSummary, 0, len(byName))
	for _, s := range byName {
		s.TotalMs /= float64(iterations)
		s.SelfMs /= float64(iterations)
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

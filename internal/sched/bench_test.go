package sched

import (
	"fmt"
	"testing"
)

// benchDispatch measures the per-step dispatch cost of Engine.Run: threads
// threads of equal-cost steps on ctxs hardware contexts, so every step
// forces a scheduling decision among all runnable threads.
func benchDispatch(b *testing.B, threads, ctxs int) {
	b.ReportAllocs()
	steps := b.N/threads + 1
	e := NewEngine(Config{HWThreads: ctxs})
	for i := 0; i < threads; i++ {
		e.Spawn("t", 0, counterStep(steps, int64(97+i), nil, i))
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkStepDispatch(b *testing.B) {
	for _, shape := range []struct{ threads, ctxs int }{
		{1, 1}, // solo: what every step cost a lone thread before run-on (BenchmarkRunOn is what it costs now)
		{4, 4}, {12, 12}, {64, 8}, {256, 8}, {1024, 64}, {1024, 256},
	} {
		b.Run(fmt.Sprintf("threads=%d/ctxs=%d", shape.threads, shape.ctxs), func(b *testing.B) {
			benchDispatch(b, shape.threads, shape.ctxs)
		})
	}
}

// BenchmarkRunOn measures a step boundary a lone thread crosses through
// Engine.RunOn instead of returning to Run; compare with
// BenchmarkStepDispatch/threads=1/ctxs=1.
func BenchmarkRunOn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(Config{HWThreads: 1})
	left := b.N
	var th *Thread
	th = e.Spawn("t", 0, func(now int64) StepResult {
		for left > 1 {
			left--
			if _, ok := e.RunOn(th, 97); !ok {
				return StepResult{Cycles: 97, Status: Running}
			}
		}
		return StepResult{Cycles: 97, Status: Done}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBlockWake exercises the park/unpark path together with timed
// events, the other scheduler hot path of the server benchmarks.
func BenchmarkBlockWake(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(Config{HWThreads: 2})
	n := b.N
	var waiter *Thread
	waiter = e.Spawn("w", 0, func(now int64) StepResult {
		if n <= 0 {
			return StepResult{Cycles: 1, Status: Done}
		}
		e.At(now+10, func(at int64) { e.Wake(waiter, at) })
		return StepResult{Cycles: 1, Status: Blocked}
	})
	e.Spawn("driver", 0, func(now int64) StepResult {
		n--
		if n <= 0 {
			return StepResult{Cycles: 1, Status: Done}
		}
		return StepResult{Cycles: 1, Status: Running}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

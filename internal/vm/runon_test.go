package vm

import (
	"strings"
	"testing"

	"htmgil/internal/choice"
	"htmgil/internal/htm"
)

// TestMaxCyclesStopsSoloLoop: a lone thread spinning forever runs on from
// bytecode to bytecode without returning to the scheduler, and must still
// be stopped by the MaxCycles watchdog — a timed event — in every mode.
func TestMaxCyclesStopsSoloLoop(t *testing.T) {
	for _, m := range allModes {
		opt := DefaultOptions(htm.ZEC12(), m)
		opt.HeapSlots = 50_000
		opt.MaxCycles = 1_000_000
		v := New(opt)
		iseq, err := v.CompileSource("while true; end", "spin")
		if err != nil {
			t.Fatal(err)
		}
		_, err = v.Run(iseq)
		if err == nil || !strings.Contains(err.Error(), "exceeded MaxCycles=1000000") {
			t.Errorf("mode %v: Run error = %v, want the MaxCycles error", m, err)
		}
		// The watchdog ticks every MaxCycles/64 and fires at the first tick at
		// or past the limit; the step it interrupts may end a little later.
		if now := v.Engine.Now(); now < 1_000_000 || now > 1_100_000 {
			t.Errorf("mode %v: stopped at cycle %d, want just past 1000000", m, now)
		}
	}
}

// countingChooser always takes the default alternative and counts the
// choice points it was offered, by kind.
type countingChooser struct{ n [choice.Conflict + 1]int }

func (c *countingChooser) Choose(k choice.Kind, n int) int {
	c.n[k]++
	return 0
}

// TestChooserSeesEveryChoicePoint: under a Chooser the engine offers a
// choice before every step, so a step must never run on past one. The
// program alternates between two runnable threads and one (the main thread
// joins; workers finish at different times), which is where a run-on would
// swallow choice points. The counts are those of the tree before run-on
// existed (commit 9e5e350); a change to the model may move them, a change
// to the dispatch path must not.
func TestChooserSeesEveryChoicePoint(t *testing.T) {
	src := `
$n = 0
a = Thread.new { i = 0; while i < 300; $n += 1; i += 1; end }
b = Thread.new { i = 0; while i < 900; $n += 1; i += 1; end }
a.join
b.join
puts $n
`
	// Choice points by kind: dispatch, timer, yield, handoff, conflict.
	for _, c := range []struct {
		mode Mode
		want [choice.Conflict + 1]int
	}{
		{ModeGIL, [...]int{15, 3, 358, 0, 0}},
		{ModeHTM, [...]int{694, 0, 0, 0, 36}},
	} {
		ch := &countingChooser{}
		res := runSrcOpts(t, c.mode, src, func(o *Options) { o.Chooser = ch })
		if res.Output != "1200\n" {
			t.Fatalf("mode %v: output %q, want 1200", c.mode, res.Output)
		}
		if ch.n != c.want {
			t.Errorf("mode %v: choice points by kind %v, want %v", c.mode, ch.n, c.want)
		}
	}
}

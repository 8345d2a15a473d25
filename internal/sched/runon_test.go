package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"htmgil/internal/choice"
)

// This file pins run-on: a step function that continues into its thread's
// next step through Engine.RunOn must produce exactly the schedule it would
// have produced by returning to Run after every step. Each case runs the
// same scripted threads twice — run-on live, and forced off through
// runOnEnabled — and compares the full log of steps and timed events, every
// clock, and Run's error.

// runOnRec is one log entry: a step of thread id (or, with id -1, a timed
// event firing) at virtual time start.
type runOnRec struct {
	id     int
	start  int64
	cost   int64
	status Status
}

// scriptStep is one step of a scripted thread and what it does to the
// engine before it ends.
type scriptStep struct {
	cost   int64
	status Status // Blocked steps arrange their own wake-up, wakeIn after the step's nominal end
	wakeIn int64

	at       bool  // schedule a (logging) timed event ...
	atDelta  int64 // ... at now+cost+atDelta: 0 is exactly the nominal next start
	wakePeer int   // wake world thread #wakePeer-1 if it is blocked (0: none)
	spawn    []scriptStep
	stop     bool
}

type runOnWorld struct {
	t        *testing.T
	e        *Engine
	threads  []*Thread
	log      []runOnRec
	accepted int // run-ons the engine granted
}

// spawn adds a thread that plays script (whose last step must be Done),
// running on whenever the engine lets it.
func (w *runOnWorld) spawn(startAt int64, script []scriptStep) {
	var th *Thread
	pc := 0
	th = w.e.Spawn(fmt.Sprintf("s%d", len(w.threads)), startAt, func(now int64) StepResult {
		for {
			s := script[pc]
			pc++
			if w.e.Now() != now || th.Clock != now {
				w.t.Fatalf("thread %d step at %d sees Now=%d Clock=%d", th.ID, now, w.e.Now(), th.Clock)
			}
			w.log = append(w.log, runOnRec{th.ID, now, s.cost, s.status})
			if s.at {
				w.e.At(now+s.cost+s.atDelta, func(at int64) {
					w.log = append(w.log, runOnRec{id: -1, start: at})
				})
			}
			if s.wakePeer > 0 && s.wakePeer <= len(w.threads) {
				if p := w.threads[s.wakePeer-1]; p.Status() == Blocked {
					w.e.Wake(p, now+s.cost/2)
				}
			}
			if s.spawn != nil {
				w.spawn(now+s.cost/2, s.spawn)
			}
			if s.stop {
				w.e.Stop()
			}
			if s.status == Blocked {
				w.e.At(now+s.cost+s.wakeIn, func(at int64) {
					if th.Status() == Blocked {
						w.e.Wake(th, at)
					}
				})
			}
			if s.status != Running {
				return StepResult{Cycles: s.cost, Status: s.status}
			}
			next, ok := w.e.RunOn(th, s.cost)
			if !ok {
				return StepResult{Cycles: s.cost, Status: Running}
			}
			w.accepted++
			now = next
		}
	})
	w.threads = append(w.threads, th)
}

// runOnCase is one machine and its scripted threads.
type runOnCase struct {
	cfg       Config
	chooser   choice.Chooser
	min, exit int // dispatch-mode thresholds (0, 0: the shipping ones)
	scripts   [][]scriptStep
	startAt   []int64 // per script; nil: all 0
}

// runOnOutcome is everything the two variants must agree on.
type runOnOutcome struct {
	log      []runOnRec
	clocks   []int64 // every thread's, every context's, the engine's
	err      string
	accepted int
}

func (c runOnCase) run(t *testing.T, runOn bool) runOnOutcome {
	t.Helper()
	savedMin, savedExit, savedOn := dispatchCtxMin, dispatchCtxExit, runOnEnabled
	defer func() { dispatchCtxMin, dispatchCtxExit, runOnEnabled = savedMin, savedExit, savedOn }()
	if c.min != 0 {
		dispatchCtxMin, dispatchCtxExit = c.min, c.exit
	}
	runOnEnabled = runOn

	w := &runOnWorld{t: t, e: NewEngine(c.cfg)}
	w.e.Chooser = c.chooser
	for i, s := range c.scripts {
		var at int64
		if c.startAt != nil {
			at = c.startAt[i]
		}
		w.spawn(at, s)
	}
	out := runOnOutcome{}
	if err := w.e.Run(); err != nil {
		out.err = err.Error()
	}
	out.log, out.accepted = w.log, w.accepted
	for _, th := range w.threads {
		out.clocks = append(out.clocks, th.Clock)
	}
	for _, ctx := range w.e.Contexts() {
		out.clocks = append(out.clocks, ctx.Clock())
	}
	out.clocks = append(out.clocks, w.e.Now())
	return out
}

// check runs the case both ways, fails on any difference and returns the
// run-on variant's outcome.
func (c runOnCase) check(t *testing.T) runOnOutcome {
	t.Helper()
	off := c.run(t, false)
	on := c.run(t, true)
	if off.accepted != 0 {
		t.Fatalf("run-on forced off still granted %d", off.accepted)
	}
	if on.err != off.err {
		t.Fatalf("Run error %q with run-on, %q without", on.err, off.err)
	}
	if len(on.log) != len(off.log) {
		t.Fatalf("%d log entries with run-on, %d without", len(on.log), len(off.log))
	}
	for i := range off.log {
		if on.log[i] != off.log[i] {
			t.Fatalf("log diverges at entry %d: %+v with run-on, %+v without", i, on.log[i], off.log[i])
		}
	}
	for i := range off.clocks {
		if on.clocks[i] != off.clocks[i] {
			t.Fatalf("final clock %d: %d with run-on, %d without", i, on.clocks[i], off.clocks[i])
		}
	}
	return on
}

// zeroChooser takes the default alternative at every choice point.
type zeroChooser struct{}

func (zeroChooser) Choose(choice.Kind, int) int { return 0 }

// running returns n Running steps with the given costs (cycled) and a final
// Done step.
func running(n int, costs ...int64) []scriptStep {
	s := make([]scriptStep, 0, n+1)
	for i := 0; i < n; i++ {
		s = append(s, scriptStep{cost: costs[i%len(costs)], status: Running})
	}
	return append(s, scriptStep{cost: costs[0], status: Done})
}

func TestRunOnBitIdentical(t *testing.T) {
	t.Run("solo", func(t *testing.T) {
		out := runOnCase{cfg: Config{HWThreads: 1}, scripts: [][]scriptStep{running(50, 100, 7)}}.check(t)
		if out.accepted != 50 {
			t.Fatalf("a lone thread with no timers ran on %d times, want 50", out.accepted)
		}
	})

	t.Run("others-blocked", func(t *testing.T) {
		sleeper := []scriptStep{{cost: 10, status: Blocked, wakeIn: 20_000}, {cost: 10, status: Done}}
		out := runOnCase{
			cfg:     Config{HWThreads: 2},
			scripts: [][]scriptStep{sleeper, running(100, 50), sleeper, sleeper},
		}.check(t)
		if out.accepted < 90 {
			t.Fatalf("only %d run-ons while every other thread was blocked", out.accepted)
		}
	})

	t.Run("smt-live-sibling", func(t *testing.T) {
		// The sibling context holds a blocked (live) thread for the whole
		// run, so every step of the runner is stretched by 1.9 and truncated
		// on its own: 7→13, 13→24, 101→191.
		costs := []int64{7, 13, 101}
		out := runOnCase{
			cfg: Config{HWThreads: 2, SMTWays: 2, SMTPenalty: 1.9},
			scripts: [][]scriptStep{
				running(30, costs...),
				{{cost: 1, status: Blocked, wakeIn: 1 << 40}, {cost: 1, status: Done}},
			},
		}.check(t)
		if out.accepted == 0 {
			t.Fatal("no run-on beside a blocked sibling")
		}
		var want int64
		for i := 0; i < 30; i++ {
			want += int64(float64(costs[i%3]) * 1.9)
		}
		last := int64(-1)
		for _, r := range out.log {
			if r.id == 0 && r.status == Done {
				last = r.start
			}
		}
		if last != want {
			t.Fatalf("runner's last step starts at %d, want %d (penalty truncated per step)", last, want)
		}
	})

	t.Run("timer-at-next-start", func(t *testing.T) {
		script := running(6, 100)
		script[2].at = true // fires at 300, exactly where step 3 would start
		out := runOnCase{cfg: Config{HWThreads: 1}, scripts: [][]scriptStep{script}}.check(t)
		for i, r := range out.log {
			if r.id == -1 {
				if r.start != 300 || out.log[i-1].start != 200 || out.log[i+1].start != 300 {
					t.Fatalf("timed event at %d between steps at %d and %d; want 300 between 200 and 300",
						r.start, out.log[i-1].start, out.log[i+1].start)
				}
				return
			}
		}
		t.Fatal("the timed event never fired")
	})

	t.Run("calls-inside-steps", func(t *testing.T) {
		runner := running(40, 30)
		runner[5].wakePeer = 2                                               // Wake
		runner[12].spawn = running(3, 11)                                    // Spawn
		runner[20].at, runner[20].atDelta = true, -45                        // At, already past due
		runner[25].at, runner[25].atDelta = true, 95                         // At, a few steps ahead
		runner[30] = scriptStep{cost: 30, status: Blocked, wakeIn: 500}      // Blocked
		runner[36].stop = true                                               // Stop
		sleeper := []scriptStep{{cost: 5, status: Blocked, wakeIn: 1 << 40}, // woken by the runner
			{cost: 5, status: Running}, {cost: 5, status: Done}}
		out := runOnCase{cfg: Config{HWThreads: 2}, scripts: [][]scriptStep{runner, sleeper}}.check(t)
		if out.accepted == 0 {
			t.Fatal("no run-on at all")
		}
		steps := 0
		for _, r := range out.log {
			if r.id == 0 {
				steps++
			}
		}
		if last := out.log[len(out.log)-1]; last.id != 0 || steps != 37 {
			t.Fatalf("runner took %d steps, last entry %+v; want its 37th step, the one that stops, last", steps, last)
		}
	})

	t.Run("ctx-mode-left-over", func(t *testing.T) {
		// Thresholds that enter ctx mode at two runnable threads and never
		// leave it: the survivor is alone in the run list, but Run dispatches
		// from the context heap, so it must not run on.
		out := runOnCase{
			cfg: Config{HWThreads: 2}, min: 2, exit: 1,
			scripts: [][]scriptStep{running(1, 10), running(1, 10), running(30, 10)},
		}.check(t)
		if out.accepted != 0 {
			t.Fatalf("%d run-ons in ctx dispatch mode", out.accepted)
		}
	})

	t.Run("chooser", func(t *testing.T) {
		// The exploration loop offers a choice before every step; a lone
		// thread must come back to it each time.
		out := runOnCase{
			cfg: Config{HWThreads: 1}, chooser: zeroChooser{},
			scripts: [][]scriptStep{running(30, 10)},
		}.check(t)
		if out.accepted != 0 {
			t.Fatalf("%d run-ons under a Chooser", out.accepted)
		}
	})

	t.Run("after-ctx-mode", func(t *testing.T) {
		// Shipping thresholds: 70 threads enter ctx mode, all but one finish,
		// the engine falls back to scanning and the survivor runs on.
		scripts := [][]scriptStep{running(200, 10)}
		for i := 0; i < 69; i++ {
			scripts = append(scripts, running(2, 10))
		}
		out := runOnCase{cfg: Config{HWThreads: 8}, scripts: scripts}.check(t)
		if out.accepted < 100 {
			t.Fatalf("only %d run-ons after the run list drained to one thread", out.accepted)
		}
	})

	t.Run("corpus", func(t *testing.T) {
		granted := 0
		for seed := int64(1); seed <= 60; seed++ {
			granted += randomRunOnCase(seed).check(t).accepted
		}
		if granted == 0 {
			t.Fatal("the corpus never ran on: the comparison is vacuous")
		}
	})
}

// randomRunOnCase draws a machine and scripts in which threads block often
// (so solo stretches are common), timed events land on and around step
// boundaries, and steps wake, spawn and stop.
func randomRunOnCase(seed int64) runOnCase {
	rng := rand.New(rand.NewSource(seed))
	c := runOnCase{cfg: Config{HWThreads: 1 + rng.Intn(4), SMTPenalty: 1.9}}
	if seed%3 == 0 {
		c.cfg.SMTWays = 2
	}
	nthreads := 1 + rng.Intn(6)
	if seed%10 == 0 {
		nthreads = 60 + rng.Intn(20) // through ctx mode and back
	}
	var script func(depth int) []scriptStep
	script = func(depth int) []scriptStep {
		n := 5 + rng.Intn(60)
		s := make([]scriptStep, n)
		for i := range s {
			st := scriptStep{cost: 1 + rng.Int63n(300), status: Running}
			switch r := rng.Intn(1000); {
			case r < 150:
				st.status, st.wakeIn = Blocked, 1+rng.Int63n(3000)
			case r < 230:
				st.at = true
				if rng.Intn(2) == 0 {
					st.atDelta = rng.Int63n(7) - 3
				} else {
					st.atDelta = rng.Int63n(2000) - 200
				}
			case r < 280:
				st.wakePeer = 1 + rng.Intn(nthreads)
			case r < 300 && depth > 0:
				st.spawn = script(depth - 1)
			case r < 302:
				st.stop = true
			}
			s[i] = st
		}
		s[n-1] = scriptStep{cost: 1 + rng.Int63n(300), status: Done}
		return s
	}
	for i := 0; i < nthreads; i++ {
		c.scripts = append(c.scripts, script(2))
		c.startAt = append(c.startAt, rng.Int63n(2000))
	}
	return c
}

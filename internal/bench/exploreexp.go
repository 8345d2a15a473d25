package bench

import (
	"fmt"
	"io"

	"htmgil/internal/explore"
)

// exploreBounds picks the exploration depth: quick keeps every program at
// preemption bound 1 (a few hundred schedules each); the full run deepens
// to bound 2 with a per-mode schedule cap so the racier programs stay
// bounded (truncation is reported in the table).
func (s *Session) exploreBounds() (bound, maxSchedules int) {
	if s.Quick {
		return 1, 0
	}
	return 2, 5_000
}

// buildExplore enumerates the systematic schedule-exploration experiment:
// every checker program of internal/explore is explored in both modes and
// judged against its GIL serializability oracle. A healthy tree prints an
// all-zero violations column; any violation is a bug in the elision engine
// (or the baseline) and fails the experiment.
func (s *Session) buildExplore(p *plan) {
	bound, maxSchedules := s.exploreBounds()
	p.printf("## Schedule exploration (preemption bound %d)\n\n", bound)
	p.printf("%-14s %6s %10s %10s %8s %9s %11s %6s\n",
		"program", "bound", "gil-scheds", "htm-scheds", "oracle", "outcomes", "violations", "trunc")
	for _, prog := range explore.Programs() {
		p.raw("explore/"+prog.Name, func(w io.Writer) error {
			res, err := explore.Run(explore.Config{
				Program:      prog,
				Bound:        bound,
				MaxSchedules: maxSchedules,
			})
			if err != nil {
				return err
			}
			trunc := ""
			if res.Truncated {
				trunc = "yes"
			}
			fmt.Fprintf(w, "%-14s %6d %10d %10d %8d %9d %11d %6s\n",
				res.Program, res.Bound, res.GILSchedules, res.HTMSchedules,
				len(res.Oracle), len(res.Outcomes), len(res.Violations), trunc)
			for _, v := range res.Violations {
				fmt.Fprintf(w, "  VIOLATION %s\n", v.Violation)
			}
			if len(res.Violations) > 0 {
				return fmt.Errorf("explore %s: %d schedule violations", res.Program, len(res.Violations))
			}
			return nil
		})
	}
	p.cell(func(w io.Writer) error {
		_, err := fmt.Fprintln(w)
		return err
	})
}

// ReplaySchedule loads a schedule file, replays it byte-deterministically,
// and verifies it reproduces what it records (its violation, or a clean run
// with the recorded fingerprint).
func ReplaySchedule(w io.Writer, path string) error {
	sched, err := explore.LoadSchedule(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "schedule %s: program=%s mode=%s choices=%d", path, sched.Program, sched.Mode, len(sched.Choices))
	if sched.Violation != nil {
		fmt.Fprintf(w, " expects=%s", sched.Violation.Kind)
	} else {
		fmt.Fprintf(w, " expects=clean")
	}
	fmt.Fprintln(w)
	res, err := sched.Verify()
	if err != nil {
		if res != nil {
			fmt.Fprintf(w, "replayed: fingerprint=%q violation=%s cycles=%d\n",
				res.Fingerprint, res.Violation, res.Cycles)
		}
		return err
	}
	fmt.Fprintf(w, "replayed: fingerprint=%q violation=%s cycles=%d choice-points=%d\n",
		res.Fingerprint, res.Violation, res.Cycles, res.Choices)
	fmt.Fprintln(w, "OK: replay reproduces the recorded result")
	return nil
}

package main

import (
	"fmt"
	"io"
	"math"
)

// worsening returns by what share of a the value b is worse than a, in the
// metric's own direction (negative when b is better).
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	rel := (b - a) / math.Abs(a)
	if d.Better == "higher" {
		rel = -rel
	}
	return rel
}

// runAgree runs the whole benchmark twice on the same tree and compares the
// two sets: a bounded host-clock metric may differ either way by its bound,
// a virtual-clock metric or a digest may not differ at all.
func runAgree(w io.Writer, o options) (bool, error) {
	o.traced = false
	var sets [2][]*report
	for i := range sets {
		fmt.Fprintf(w, "== set %d ==\n", i+1)
		rs, err := runAll(w, o)
		if err != nil {
			return false, err
		}
		sets[i] = rs
	}
	ok := allCorrect(sets[0]) && allCorrect(sets[1])
	fmt.Fprintf(w, "\n%-12s %-22s %16s %16s %9s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	defs := append(append([]metricDef{}, endToEnd...), diagnostics...)
	for i, a := range sets[0] {
		b := sets[1][i]
		for _, d := range defs {
			va, measured := a.Metrics[d.Name]
			if !measured {
				continue // paper_err_pct belongs to the traced run
			}
			vb := b.Metrics[d.Name]
			diff := math.Abs(worsening(d, va, vb))
			bound, verdict := "exact", ""
			switch {
			case d.Clock == "virtual":
				if va != vb {
					verdict, ok = "  DISAGREE", false
				}
			case d.Bound > 0:
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
				if diff > d.Bound {
					verdict, ok = "  DISAGREE", false
				}
			default:
				bound = "-" // an unbounded host-clock diagnostic: shown, not judged
			}
			fmt.Fprintf(w, "%-12s %-22s %16.6g %16.6g %8.2f%% %7s%s\n", a.Workload, d.Name, va, vb, 100*diff, bound, verdict)
		}
		if a.Digest != b.Digest {
			fmt.Fprintf(w, "%-12s digest %.16s != %.16s  DISAGREE\n", a.Workload, a.Digest, b.Digest)
			ok = false
		}
	}
	if ok {
		fmt.Fprintln(w, "the two sets agree")
	}
	return ok, nil
}

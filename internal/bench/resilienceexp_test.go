package bench

import (
	"encoding/json"
	"testing"
)

// TestResilienceExperimentDeterministic: the metastable-failure ladder —
// table, JSON reports and CSV — matches its committed digest (see
// digest_test.go), which pins it across runs, worker counts and commits.
func TestResilienceExperimentDeterministic(t *testing.T) {
	_, r1, _ := checkQuickDigest(t, "resilience")

	// The headline must hold: the unprotected server never recovers from
	// the pulse, the fully protected one does — and every row's outcome
	// counters account for every generated request.
	var reps []Report
	if err := json.Unmarshal([]byte(r1), &reps); err != nil {
		t.Fatal(err)
	}
	byConfig := make(map[string]*Report)
	for i := range reps {
		if reps[i].Experiment == "resilience" {
			byConfig[reps[i].Config] = &reps[i]
		}
	}
	for _, want := range []string{"unprotected", "budgets", "admission", "full"} {
		r, ok := byConfig[want]
		if !ok {
			t.Fatalf("no report for config %q (have %d resilience reports)", want, len(byConfig))
		}
		if r.RecoverCycles == nil {
			t.Fatalf("%s: no recover cycles recorded", want)
		}
		resolved := r.Latency.Count + r.Shed + r.GaveUp + r.DeadlineExceeded
		if resolved != r.Arrivals {
			t.Errorf("%s: resolved %d != generated %d (completed %d shed %d gaveup %d dlx %d)",
				want, resolved, r.Arrivals, r.Latency.Count, r.Shed, r.GaveUp, r.DeadlineExceeded)
		}
	}
	if got := *byConfig["unprotected"].RecoverCycles; got != -1 {
		t.Errorf("unprotected recovered at %d, want -1 (collapse must outlive the pulse)", got)
	}
	if got := *byConfig["full"].RecoverCycles; got < 0 {
		t.Errorf("full protection never recovered (recover = %d)", got)
	}
	if byConfig["full"].Shed == 0 {
		t.Errorf("full protection shed nothing — admission/brownout not engaged")
	}
	if len(byConfig["full"].BrownoutTransitions) == 0 {
		t.Errorf("full protection recorded no brownout transitions")
	}
}

package bench

import (
	"strings"
	"testing"
)

// TestChaosExperimentDeterministic: the fixed-seed chaos sweep — table,
// JSON reports and CSV — matches its committed digest (see digest_test.go),
// which pins it across runs, worker counts and commits.
func TestChaosExperimentDeterministic(t *testing.T) {
	t1, r1, c1 := checkQuickDigest(t, "chaos")

	// Sanity on the content: every profile row renders, the reports carry
	// the fault provenance, and at least one bounded-horizon profile
	// reports a recovery time.
	for _, want := range []string{"clean", "abort-storm", "abort-recover", "capacity",
		"net-chaos", "jitter", "mixed", "recover"} {
		if !strings.Contains(t1, want) {
			t.Errorf("chaos table missing %q:\n%s", want, t1)
		}
	}
	for _, want := range []string{`"faultSpec"`, `"seed"`, `"faultCounts"`, `"breakerTransitions"`} {
		if !strings.Contains(r1, want) {
			t.Errorf("chaos reports missing %s", want)
		}
	}
	if !strings.Contains(c1, "faultSpec") || !strings.Contains(c1, "recoverCycles") {
		t.Errorf("chaos CSV header missing fault columns:\n%s", strings.SplitN(c1, "\n", 2)[0])
	}
}

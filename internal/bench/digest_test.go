package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
)

// testdata/quick_digests.json holds, per experiment, the SHA-256 of the three
// files `htmgil-bench -experiment X -quick -trace-summary -report X.json
// -csv X.csv > X.txt` writes (amd64 is the reference). Every run is a
// deterministic simulation, so one run on eight workers compared with the
// committed digest checks run-to-run, worker-count and cross-commit identity
// at once. A digest changes only when the model does: rerun the command
// above, `sha256sum X.txt X.json X.csv`, and say why in the commit.
type quickDigest struct {
	Txt  string `json:"txt"`
	JSON string `json:"json"`
	CSV  string `json:"csv"`
}

// checkQuickDigest runs one quick experiment the way the CLI does and
// compares its outputs with the committed digest; it returns the outputs so
// callers can also check their content.
func checkQuickDigest(t *testing.T, exp string) (txt, reports, csvOut string) {
	t.Helper()
	data, err := os.ReadFile("testdata/quick_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]quickDigest{}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	want, ok := golden[exp]
	if !ok {
		t.Fatalf("no committed digest for experiment %q", exp)
	}

	var out, rep, cv strings.Builder
	s := NewSession(&out, true)
	s.TraceSummary = true
	s.Parallel = 8
	if err := s.Run(exp); err != nil {
		t.Fatal(err)
	}
	s.WriteTraceSummaries(&out)
	if err := s.WriteReports(&rep); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteReportsCSV(&cv); err != nil {
		t.Fatal(err)
	}
	sum := func(s string) string {
		h := sha256.Sum256([]byte(s))
		return hex.EncodeToString(h[:])
	}
	if got := sum(out.String()); got != want.Txt {
		t.Errorf("%s: tables + trace summaries changed (sha256 %s, committed %s)", exp, got, want.Txt)
	}
	if got := sum(rep.String()); got != want.JSON {
		t.Errorf("%s: -report JSON changed (sha256 %s, committed %s)", exp, got, want.JSON)
	}
	if got := sum(cv.String()); got != want.CSV {
		t.Errorf("%s: -csv changed (sha256 %s, committed %s)", exp, got, want.CSV)
	}
	return out.String(), rep.String(), cv.String()
}

// cheapExperiments finish in seconds and are checked on every run. The rest
// take from ten seconds to a minute each: they skip under -short, and a plain
// `go test ./...` leaves them to CI's golden-digest step, which names the
// test with -run.
var cheapExperiments = map[string]bool{
	"micro": true, "fig6a": true, "fig6b": true, "fig8": true, "fig9": true,
	"aborts": true, "overhead": true, "ablation": true, "explore": true,
}

// TestQuickDigests checks every experiment against its committed digest,
// except the three whose own tests do (chaos, resilience, datastore).
func TestQuickDigests(t *testing.T) {
	named := strings.Contains(flag.Lookup("test.run").Value.String(), "TestQuickDigests")
	for _, exp := range Experiments() {
		switch exp {
		case "all", "chaos", "resilience", "datastore":
			continue
		}
		exp := exp
		t.Run(exp, func(t *testing.T) {
			if !cheapExperiments[exp] && (testing.Short() || !named) {
				t.Skip("slow experiment; run with -run TestQuickDigests, without -short")
			}
			checkQuickDigest(t, exp)
		})
	}
}

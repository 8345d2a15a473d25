package bench

import (
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"htmgil/internal/htm"
	"htmgil/internal/npb"
)

// runKernelPoint runs one kernel configuration point through the plan
// machinery, as the experiments do, and returns its result.
func runKernelPoint(t *testing.T, s *Session, exp string, b npb.Bench, prof *htm.Profile, cfg Config, threads int, c npb.Class) *run {
	t.Helper()
	p := &plan{s: s}
	r := p.point(kernel(exp, "test point", prof, cfg, b, c, threads))
	if err := p.flush(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSessionReports runs one small kernel point per configuration and
// checks that the Session records a coherent Report for each.
func TestSessionReports(t *testing.T) {
	var sb strings.Builder
	s := NewSession(&sb, true)
	for _, cfg := range []Config{Configs()[0], Configs()[4]} {
		runKernelPoint(t, s, "test", npb.While, htm.ZEC12(), cfg, 2, npb.ClassTest)
	}
	if len(s.Reports) != 2 {
		t.Fatalf("reports = %d, want 2", len(s.Reports))
	}
	gil, dyn := s.Reports[0], s.Reports[1]
	if gil.Config != "GIL" || dyn.Config != "HTM-dynamic" {
		t.Fatalf("configs = %q, %q", gil.Config, dyn.Config)
	}
	if gil.Machine != "zEC12" || gil.Workload != "while" || gil.Threads != 2 {
		t.Fatalf("identity wrong: %+v", gil)
	}
	if gil.Cycles <= 0 || dyn.Cycles <= 0 {
		t.Fatalf("cycles missing: %d, %d", gil.Cycles, dyn.Cycles)
	}
	if gil.Begins != 0 {
		t.Fatalf("GIL run reported transactions: %+v", gil)
	}
	if dyn.Begins == 0 || dyn.Commits == 0 {
		t.Fatalf("HTM run reported no transactions: %+v", dyn)
	}
	if dyn.Commits+dyn.Aborts != dyn.Begins {
		t.Fatalf("tx accounting: %d begin != %d commit + %d abort", dyn.Begins, dyn.Commits, dyn.Aborts)
	}
}

// TestSessionTraceSummary verifies that TraceSummary attaches an aggregator
// whose attribution lands in the Report and the printed digest.
func TestSessionTraceSummary(t *testing.T) {
	var sb strings.Builder
	s := NewSession(&sb, true)
	s.TraceSummary = true
	r := runKernelPoint(t, s, "test", npb.While, htm.ZEC12(), Configs()[4], 4, npb.ClassTest)
	rep := s.Reports[len(s.Reports)-1]
	// The aggregator watched the same run that produced Stats; the counts
	// must agree exactly.
	if rep.Begins != r.stats.HTM.Begins || rep.Aborts != r.stats.HTM.Aborts {
		t.Fatalf("report %d/%d vs stats %d/%d",
			rep.Begins, rep.Aborts, r.stats.HTM.Begins, r.stats.HTM.Aborts)
	}
	if rep.Aborts > 0 && len(rep.TopAbortPCs) == 0 {
		t.Fatalf("aborts happened but no PC attribution: %+v", rep)
	}
	var dig strings.Builder
	s.WriteTraceSummaries(&dig)
	if !strings.Contains(dig.String(), "test zEC12/while HTM-dynamic threads=4") {
		t.Fatalf("digest missing point header:\n%s", dig.String())
	}
}

// TestWriteReportsJSON round-trips the report list through its JSON form.
func TestWriteReportsJSON(t *testing.T) {
	var sb strings.Builder
	s := NewSession(&sb, true)
	runKernelPoint(t, s, "test", npb.Iterator, htm.XeonE3(), Configs()[1], 2, npb.ClassTest)
	var out strings.Builder
	if err := s.WriteReports(&out); err != nil {
		t.Fatal(err)
	}
	var back []Report
	if err := json.Unmarshal([]byte(out.String()), &back); err != nil {
		t.Fatalf("reports are not valid JSON: %v\n%s", err, out.String())
	}
	if len(back) != 1 || back[0].Experiment != "test" || back[0].Machine != "XeonE3-1275v3" {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

// TestCSVColumnsCoverAFullReport: the header and the rows come from one
// column list, so a fully populated Report yields exactly one field per
// header name and none of them empty.
func TestCSVColumnsCoverAFullReport(t *testing.T) {
	recover := int64(5)
	s := NewSession(nil, true)
	s.Reports = []Report{{
		Experiment: "e", Machine: "m", Workload: "w", Config: "c", Threads: 1, Clients: 2,
		Cycles: 3, Throughput: 4.5, AbortRatio: 0.5,
		Begins: 1, Commits: 1, Aborts: 1, Fallbacks: 1, Adjustments: 1, GCs: 1,
		OCCBegins: 1, OCCCommits: 1, OCCAborts: 1, OCCValidationFailures: 1,
		FaultSpec: "spurious=1", Seed: 7, FaultCounts: map[string]uint64{"spurious": 2},
		BreakerOpens: 1, RecoverCycles: &recover,
		Cores: 1, Workers: 1, Sessions: 1, RatePerSec: 1, Arrivals: 1, ConnsTotal: 1, ConnsPeak: 1,
		Latency: &LatencySummary{P50: 1, P99: 2, P999: 3, Max: 4, Attainment: 1},
		Shed:    1, GaveUp: 1, DeadlineExceeded: 1,
		Shards: 1, ShardFallbacks: 1, CrossShardLeaks: 1,
	}}
	var sb strings.Builder
	if err := s.WriteReportsCSV(&sb); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(rows[0]) != len(csvColumns) || len(rows[1]) != len(rows[0]) {
		t.Fatalf("want a header and one row of %d fields, got %d rows of %d and %d",
			len(csvColumns), len(rows), len(rows[0]), len(rows[1]))
	}
	for i, field := range rows[1] {
		if field == "" || field == "0" {
			t.Errorf("column %s is empty for a fully populated report", rows[0][i])
		}
	}
}

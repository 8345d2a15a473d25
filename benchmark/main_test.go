package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"htmgil/internal/keyspace"
)

func TestMedianAndQuartiles(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v; want 1.5, 12", q1, q3)
	}
	// statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
	if q1, q3 := quartiles([]float64{5, 7}); q1 != 4.5 || q3 != 7.5 {
		t.Errorf("quartiles(5,7) = %v, %v; want 4.5, 7.5", q1, q3)
	}
}

func TestNearestRank(t *testing.T) {
	var s []int64
	for i := int64(100); i >= 1; i-- {
		s = append(s, i)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{99, 99}, {50, 50}, {100, 100}, {0.5, 1}, {99.1, 100}} {
		if got := nearestRank(s, c.p); got != c.want {
			t.Errorf("nearestRank(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := nearestRank(nil, 99); got != 0 {
		t.Errorf("nearestRank(nil) = %d", got)
	}
	if got := nearestRank([]int64{7}, 99); got != 7 {
		t.Errorf("nearestRank(one sample) = %d", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean(nil) = %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "bench.iteration", StartNs: 0, EndNs: 10e6},
		{ID: 1, Parent: 0, Name: "bench.point", StartNs: 1e6, EndNs: 9e6},
		{ID: 2, Parent: 1, Name: "vm.new", StartNs: 1e6, EndNs: 3e6},
		{ID: 3, Parent: 1, Name: "vm.run", StartNs: 3e6, EndNs: 8e6},
	}
	got := map[string]spanSummary{}
	for _, s := range summarize(spans, 1) {
		got[s.Name] = s
	}
	want := map[string]spanSummary{
		"bench.iteration": {"bench.iteration", 10, 2},
		"bench.point":     {"bench.point", 8, 1},
		"vm.new":          {"vm.new", 2, 2},
		"vm.run":          {"vm.run", 5, 5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("summarize = %+v, want %+v", got, want)
	}
	var rec *spanRecorder
	rec.end(rec.begin("x")) // the untraced run's nil recorder must be inert
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricContract checks the lists in metrics.go against the limits the
// driver enforces on BENCHMARK.json.
func TestMetricContract(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind string, d metricDef) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]{1,64}", kind, d.Name)
		}
		if seen[d.Name] {
			t.Errorf("name %q is used twice", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s %s: unit %q", kind, d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s %s: better %q", kind, d.Name, d.Better)
		}
		if d.Clock != "host" && d.Clock != "virtual" {
			t.Errorf("%s %s: clock %q", kind, d.Name, d.Clock)
		}
		if d.Why == "" {
			t.Errorf("%s %s has no reason", kind, d.Name)
		}
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		check("workload", metricDef{Name: w.Name, Unit: "x", Better: "lower", Clock: "host", Why: w.Why})
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	var setup *metricDef
	for i, d := range endToEnd {
		check("end-to-end", d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = &endToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s missing or misdeclared: %+v", setup)
	}
	for _, d := range endToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
	pl := perLayer()
	if n := len(pl); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range pl {
		check("per-layer", d)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and metrics.go equal;
// `go run . -describe` prints the file from the code.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json has %d bytes", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(got, want) {
		t.Errorf("keys %v, want %v", got, want)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file, describe()) {
		t.Errorf("BENCHMARK.json differs from the code; regenerate it with `go run . -describe > ../BENCHMARK.json`")
	}
}

func TestFlags(t *testing.T) {
	// The driver's form, and a person's.
	o, err := parseFlags([]string{"--workload", "kv_read", "--seed", "7", "--seconds", "12", "--trace", "1"}, io.Discard)
	if err != nil || o.workload != "kv_read" || o.seed != 7 || o.seconds != 12 || !o.traced {
		t.Errorf("driver form with trace 1: %+v, %v", o, err)
	}
	o, err = parseFlags([]string{"--workload", "kv_read", "--seed", "7", "--seconds", "12", "--trace", "0"}, io.Discard)
	if err != nil || o.traced {
		t.Errorf("driver form with trace 0: %+v, %v", o, err)
	}
	o, err = parseFlags([]string{"-trace", "-seed", "2"}, io.Discard)
	if err != nil || !o.traced || o.seed != 2 || o.workload != "" {
		t.Errorf("bare -trace: %+v, %v", o, err)
	}
	if _, err = parseFlags([]string{"-workload", "nope"}, io.Discard); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err = parseFlags([]string{"stray"}, io.Discard); err == nil {
		t.Error("stray argument accepted")
	}
}

func TestChecksumBounds(t *testing.T) {
	// Read-only and scan-only mixes have an exact checksum; mixes that read
	// and update get an interval.
	for _, c := range []struct {
		workload string
		exact    bool
	}{{"C", true}, {"E", true}, {"A", false}, {"F", false}, {"tpcc", false}} {
		lo, hi, err := checksumBounds(keyspace.Config{Workload: c.workload, Keys: 4000, Threads: 4, Ops: 50, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if lo < 0 || hi < lo || (lo == hi) != c.exact {
			t.Errorf("%s: bounds [%d, %d], exact=%v", c.workload, lo, hi, c.exact)
		}
	}
	if lo, hi, _ := checksumBounds(keyspace.Config{Workload: "C", Keys: 4000, Threads: 4, Ops: 50, Seed: 3}); lo != 0 || hi != 0 {
		t.Errorf("YCSB-C reads only rows nobody wrote: want [0, 0], got [%d, %d]", lo, hi)
	}
}

// checkResult checks a run's result line against the schema the driver
// reads: exactly four keys, and exactly the metrics of the run's kind.
func checkResult(t *testing.T, r *report, defs []metricDef) {
	t.Helper()
	res, err := resultOf(r)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
		t.Errorf("result keys: %s", raw)
	}
	var ms map[string]map[string]any
	if err := json.Unmarshal(top["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(defs) {
		t.Errorf("%d metrics in the result, want %d", len(ms), len(defs))
	}
	for _, d := range defs {
		m, ok := ms[d.Name]
		if !ok {
			t.Errorf("metric %s missing from the result", d.Name)
			continue
		}
		if len(m) != 2 || m["unit"] != d.Unit {
			t.Errorf("metric %s: %v", d.Name, m)
		}
		if _, isNum := m["value"].(float64); !isNum {
			t.Errorf("metric %s: value %v", d.Name, m["value"])
		}
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, r.Problems)
	}
}

// TestSmoke runs every workload once at shrunken sizes, untraced and traced,
// and checks the results: schema, correctness, that every end-to-end metric
// is non-zero, and that the two kinds of run agree on the digest.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			plain, err := runWorkload(w, runOpts{seed: 1, smoke: true})
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, plain, endToEnd)
			for _, d := range endToEnd {
				if plain.Metrics[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v", d.Name, plain.Metrics[d.Name])
				}
			}
			traced, err := runWorkload(w, runOpts{seed: 1, smoke: true, traced: true})
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, traced, perLayer())
			if plain.Digest != traced.Digest {
				t.Errorf("untraced digest %.12s, traced %.12s", plain.Digest, traced.Digest)
			}
			for _, name := range []string{"sim_cycles", "sim_speedup_vs_gil", "sim_abort_pct", "vm.bytecodes", "htm.begins"} {
				if plain.Metrics[name] != traced.Metrics[name] {
					t.Errorf("%s: untraced %v, traced %v", name, plain.Metrics[name], traced.Metrics[name])
				}
			}
			if traced.Metrics["trace.events"] <= 0 || len(traced.Spans) == 0 {
				t.Errorf("traced run recorded %v events and %d spans", traced.Metrics["trace.events"], len(traced.Spans))
			}
			printReport(io.Discard, plain)
			printReport(io.Discard, traced)
		})
	}
}

// TestSeed: the seed reaches the generated inputs (another seed, another
// digest) and nothing else (the same seed, the same digest).
func TestSeed(t *testing.T) {
	digest := func(name string, seed int64) string {
		r, err := runWorkload(workloadByName(name), runOpts{seed: seed, smoke: true})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s seed %d: correct=%v failed=%d %v", name, seed, r.Correct, r.Failed, r.Problems)
		}
		return r.Digest
	}
	for _, name := range []string{"kv_update", "serve_web"} {
		a, again, b := digest(name, 1), digest(name, 1), digest(name, 2)
		if a != again {
			t.Errorf("%s: seed 1 gave two digests", name)
		}
		if a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same digest", name)
		}
	}
}

func TestWorsening(t *testing.T) {
	lower := metricDef{Better: "lower"}
	higher := metricDef{Better: "higher"}
	if got := worsening(lower, 100, 110); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("lower 100->110: %v", got)
	}
	if got := worsening(higher, 100, 90); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("higher 100->90: %v", got)
	}
	if got := worsening(higher, 100, 120); got >= 0 {
		t.Errorf("higher 100->120 counted as worse: %v", got)
	}
}

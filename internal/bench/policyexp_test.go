package bench

import (
	"reflect"
	"strings"
	"testing"

	"htmgil/internal/htm"
	"htmgil/internal/npb"
	"htmgil/internal/policy"
	"htmgil/internal/vm"
)

func TestPolicyConfigsMirrorRegistry(t *testing.T) {
	cfgs := PolicyConfigs()
	names := policy.Names()
	if len(cfgs) != len(names) {
		t.Fatalf("len = %d, registry has %d", len(cfgs), len(names))
	}
	for i, n := range names {
		if cfgs[i].Name != n || cfgs[i].Policy != n {
			t.Fatalf("config %d = %+v, want name/policy %q", i, cfgs[i], n)
		}
		if cfgs[i].Mode != vm.ModeHTM {
			t.Fatalf("config %d not plain HTM: %+v", i, cfgs[i])
		}
	}
}

func TestExperimentsListsPolicy(t *testing.T) {
	exps := Experiments()
	if exps[len(exps)-1] != "all" {
		t.Fatalf("last = %q, want all", exps[len(exps)-1])
	}
	found := false
	for _, e := range exps {
		if e == "policy" {
			found = true
		}
	}
	if !found {
		t.Fatalf("policy missing from %v", exps)
	}
	if err := NewSession(nil, true).Run("nosuch"); err == nil ||
		!strings.Contains(err.Error(), "policy") {
		t.Fatalf("unknown-experiment error should list policy: %v", err)
	}
}

// TestPolicyPaperDynamicMatchesFig5HTMDynamic pins the experiment's headline
// guarantee: a paper-dynamic policy point reproduces the fig5 HTM-dynamic
// point bit for bit, even though the policy point always carries a trace
// recorder (tracing must stay a pure observer).
func TestPolicyPaperDynamicMatchesFig5HTMDynamic(t *testing.T) {
	s := NewSession(nil, true)
	p := &plan{s: s}
	prof := htm.ZEC12()
	sp := kernel("fig5", "fig5 point", prof, Configs()[4], npb.CG, npb.ClassS, 4)
	sp.kernel.checkValid = true
	a := p.point(sp)
	b := p.point(tracedKernel("policy", "policy point", prof,
		Config{Name: "paper-dynamic", Mode: vm.ModeHTM, Policy: "paper-dynamic"}, npb.CG, npb.ClassS, 4))
	if err := p.flush(); err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.checksum != b.checksum || a.valid != b.valid {
		t.Fatalf("diverged: fig5 cycles=%d sum=%s, policy cycles=%d sum=%s",
			a.Cycles, a.checksum, b.Cycles, b.checksum)
	}
	as, bs := a.stats, b.stats
	if as.HTM.Begins != bs.HTM.Begins || as.HTM.Commits != bs.HTM.Commits ||
		as.HTM.Aborts != bs.HTM.Aborts || as.GILFallbacks != bs.GILFallbacks ||
		as.Adjustments != bs.Adjustments {
		t.Fatalf("stats diverged: fig5 %+v, policy %+v", as.HTM, bs.HTM)
	}
	if !reflect.DeepEqual(as.AbortCauses, bs.AbortCauses) {
		t.Fatalf("abort causes diverged: %v vs %v", as.AbortCauses, bs.AbortCauses)
	}
	if len(b.TopAbortPCs) == 0 {
		t.Fatal("policy point must carry an aggregator's attribution")
	}
	if len(a.TopAbortPCs) != 0 {
		t.Fatal("fig5 point traced without being asked")
	}
}

func TestWriteReportsCSV(t *testing.T) {
	s := NewSession(nil, true)
	p := &plan{s: s}
	p.point(tracedKernel("policy", "pt", htm.ZEC12(),
		Config{Name: "fixed-16", Mode: vm.ModeHTM, Policy: "fixed-16"}, npb.CG, npb.ClassS, 2))
	if err := p.flush(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := s.WriteReportsCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want header + 1 row, got %d lines:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "experiment,machine,workload,config,") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "policy,zEC12,cg,fixed-16,2,") {
		t.Fatalf("row = %q", lines[1])
	}
}

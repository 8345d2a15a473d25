package bench

import (
	"bytes"
	"strings"
	"testing"

	"htmgil/internal/htm"
	"htmgil/internal/occ"
	"htmgil/internal/vm"
)

func TestHybridConfigs(t *testing.T) {
	cfgs := hybridConfigs()
	if len(cfgs) != 5 {
		t.Fatalf("configs = %d, want 5", len(cfgs))
	}
	byName := map[string]hybridConfig{}
	for _, c := range cfgs {
		if c.cfg.Name != c.name {
			t.Errorf("%s: config name %q disagrees", c.name, c.cfg.Name)
		}
		byName[c.name] = c
	}
	if byName["GIL"].cfg.Mode != vm.ModeGIL {
		t.Errorf("GIL config mode = %v", byName["GIL"].cfg.Mode)
	}
	for _, name := range []string{"paper-dynamic", "occ-adaptive", "occ-adpt-sbx", "occ-first"} {
		if byName[name].cfg.Mode != vm.ModeHTM {
			t.Errorf("%s: mode = %v, want HTM", name, byName[name].cfg.Mode)
		}
	}
	if byName["occ-adpt-sbx"].cfg.Policy != "occ-adaptive" || !byName["occ-adpt-sbx"].sandbox {
		t.Errorf("occ-adpt-sbx must be occ-adaptive with the sandbox on")
	}
	if byName["occ-adaptive"].sandbox || byName["occ-first"].sandbox {
		t.Errorf("only occ-adpt-sbx carries the sandbox flag")
	}
}

func TestHybridProfileSandbox(t *testing.T) {
	if p := hybridProfile(htm.ZEC12, true); !p.OCCSandbox {
		t.Fatal("sandbox flag not applied")
	}
	if p := hybridProfile(htm.ZEC12, false); p.OCCSandbox {
		t.Fatal("sandbox flag set without asking")
	}
}

func TestHybridAttributionLine(t *testing.T) {
	var buf bytes.Buffer
	st := &vm.Stats{
		HTM:          &htm.Stats{Begins: 10, Commits: 8, Aborts: 2},
		OCC:          &occ.Stats{Begins: 5, Commits: 4, Aborts: 1, ValidationFailures: 1},
		GILFallbacks: 3,
	}
	line := func(name string, st *vm.Stats) string {
		buf.Reset()
		r := &run{Report: newReport("hybrid", "m", "w", name, 1, 0, 1, 0, st, nil, 5)}
		if err := tierAttributionLine(&buf, name, r); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	got := line("occ-adaptive", st)
	for _, want := range []string{"occ-adaptive", "10", "8", "2", "5", "4", "1", "3"} {
		if !strings.Contains(got, want) {
			t.Errorf("attribution line %q missing %q", got, want)
		}
	}
	// Tiers the runtime never used render as zeros, not a crash.
	if got := line("GIL", &vm.Stats{GILFallbacks: 7}); !strings.Contains(got, "7") {
		t.Errorf("GIL-only line = %q", got)
	}
}

package bench

import (
	"fmt"
	"io"
	"strconv"

	"htmgil/internal/fault"
	"htmgil/internal/htm"
	"htmgil/internal/npb"
	"htmgil/internal/vm"
)

// The chaos experiment sweeps the named fault profiles (fault.ChaosProfiles)
// over the WEBrick server and one NPB kernel with the elision circuit
// breaker and the degradation watchdog always on. Each row reports the
// throughput under faults (absolute and relative to the clean profile), the
// abort ratio, the GIL fallbacks, the per-run injection/trip/degradation
// counters, and — for profiles with an until= horizon — the time-to-recover:
// the cycles between the fault horizon clearing and the breaker settling
// closed. Like the policy experiment, every point attaches an aggregator so
// the fault and breaker events land in the Reports, which also carry the
// canonical spec text and the effective fault-stream seed that reproduce the
// run byte for byte.

// recoverText renders a time-to-recover column: "-" when the point has no
// bounded fault horizon to recover from.
func recoverText(r *run) string {
	if r.RecoverCycles == nil {
		return "-"
	}
	return strconv.FormatInt(*r.RecoverCycles, 10)
}

// chaosRow renders one profile row; tput is computed by the caller (server
// rows use request throughput, kernel rows use Mcycles).
func chaosRow(w io.Writer, name string, tput float64, r, clean *run) error {
	_, err := fmt.Fprintf(w, "%-14s%12.1f%8.2f%8.1f%%%11d%8d%7d%7d%10s\n",
		name, tput, r.over(clean), r.AbortRatio*100, r.Fallbacks,
		sumCounts(r.FaultCounts), r.BreakerOpens, sumCounts(r.Degradations), recoverText(r))
	return err
}

const chaosHeader = "%-14s%12s%8s%9s%11s%8s%7s%7s%10s\n"

// buildChaos enumerates the chaos experiment: every fault profile against
// WEBrick on zEC12 and against the CG kernel, breaker and watchdog on.
func (s *Session) buildChaos(p *plan) {
	quick := s.Quick
	profiles := fault.ChaosProfiles()
	dyn := Config{Mode: vm.ModeHTM}
	p.printf("\n# Chaos — fault profiles (elision breaker + degradation watchdog on)\n")
	for _, ns := range profiles {
		text := ns.Text
		if text == "" {
			text = "(no faults)"
		}
		p.printf("#   %-14s %s\n", ns.Name, text)
	}
	// sweepProfiles runs one spec per fault profile (the Config is named
	// after the profile) and prints a row for each, relative to the first,
	// clean one.
	sweepProfiles := func(spec func(cfg Config) pointSpec, tput func(r *run) float64) {
		var clean *run
		for _, ns := range profiles {
			cfg := dyn
			cfg.Name = ns.Name
			sp := spec(cfg)
			sp.trace, sp.faults, sp.guard = true, ns.Text, true
			r := p.point(sp)
			if clean == nil {
				clean = r
			}
			p.cell(func(w io.Writer) error { return chaosRow(w, ns.Name, tput(r), r, clean) })
		}
	}

	// WEBrick runs on the Xeon profile, where elision works well enough
	// (Figure 7) that the clean baseline keeps the breaker closed; on zEC12
	// the server's intrinsic abort storm would drown out the injected
	// faults this experiment is about.
	srvProf := htm.XeonE3()
	requests := 1500
	clients := 4
	if quick {
		requests = 400
	}
	p.printf("\n# Chaos — webrick on %s, %d clients, %d requests (rel = tput/clean)\n",
		srvProf.Name, clients, requests)
	p.printf(chaosHeader, "profile", "tput", "rel", "abort%", "fallbacks", "faults", "trips", "degr", "recover")
	sweepProfiles(func(cfg Config) pointSpec {
		return server("chaos", "chaos webrick/"+cfg.Name, srvProf, cfg, "webrick", clients, requests, false)
	}, func(r *run) float64 { return r.Throughput })

	// The kernel must still validate numerically: faults may slow the run
	// down, never corrupt it.
	prof := htm.ZEC12()
	threads := 8
	p.printf("\n# Chaos — %s on %s, %d threads (validated; rel = clean-cycles/cycles; tput in Mcycles)\n",
		npb.CG, prof.Name, threads)
	p.printf(chaosHeader, "profile", "Mcycles", "rel", "abort%", "fallbacks", "faults", "trips", "degr", "recover")
	sweepProfiles(func(cfg Config) pointSpec {
		sp := kernel("chaos", fmt.Sprintf("chaos %s/%s", npb.CG, cfg.Name), prof, cfg, npb.CG, classFor(quick), threads)
		sp.kernel.checkValid = true
		return sp
	}, func(r *run) float64 { return float64(r.Cycles) / 1e6 })
}

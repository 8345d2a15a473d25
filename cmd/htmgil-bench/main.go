// Command htmgil-bench regenerates the paper's tables and figures.
//
//	htmgil-bench -experiment all -quick
//	htmgil-bench -experiment fig5 -parallel 8
//	htmgil-bench -experiment fig6b -quick -trace-summary
//	htmgil-bench -experiment fig8 -quick -report reports.json
//	htmgil-bench -experiment policy -quick -csv policy.csv
//	htmgil-bench -experiment hybrid -quick -report hybrid.json
//	htmgil-bench -experiment serving -quick -report serving.json
//	htmgil-bench -experiment resilience -quick -report resilience.json
//	htmgil-bench -experiment datastore -quick -csv datastore.csv
//	htmgil-bench -experiment explore -quick
//	htmgil-bench -replay-schedule internal/explore/testdata/schedules/counter-flip2.json
//
// -list prints the experiment names, one per line; -h lists them too.
// -quick uses scaled-down problem sizes and fewer thread counts; without it
// the full (paper-shaped) sweep runs, which takes tens of minutes on one host
// core. The policy experiment sweeps every contention-management policy
// of internal/policy over the NPB kernels and WEBrick, with per-policy
// abort-cause and fallback-reason attribution. The hybrid experiment
// compares the three-tier elision pipeline (HTM -> OCC -> GIL) against
// the two-tier paper runtime and the all-GIL baseline on the NPB kernels
// and WEBrick, with per-tier commit/abort attribution including OCC
// validation failures. The chaos experiment
// sweeps the deterministic fault profiles of internal/fault (spurious
// aborts, capacity jitter, network resets, timer jitter) with the elision
// circuit breaker and degradation watchdog on, reporting throughput under
// faults and time-to-recover; its reports carry the fault spec, seed,
// injection counters and breaker transitions. The serving experiment drives
// the WEBrick and Rails-lite worker pools open-loop on the large simulated
// server machines (htm.Server, 128/256 cores, 1200 client sessions):
// seeded Poisson/bursty/diurnal arrivals, Zipf route popularity, session
// affinity, slow-draining clients and a fault scenario, reporting exact
// p50/p99/p99.9/max latency and per-route SLO attainment. The resilience
// experiment stages a metastable failure on the WEBrick pool — an overload
// pulse co-timed with a connection-reset burst — and walks the protection
// ladder (legacy retries, client retry budgets, server admission control,
// full deadlines + brownout), reporting shed/gave-up/deadline-cancelled
// counts, SLO attainment and request-level time-to-recover (-1 when the
// service never climbs back out of the trap). The datastore experiment
// runs YCSB point/scan mixes and a TPC-C-flavoured mix over keyspace tables
// under the two-tier, three-tier and fixed-length runtimes, with one root GIL
// or eight per-shard GILs, reporting per-tier attribution, the capacity
// share of aborts and per-shard lock occupancy. The explore experiment runs
// the systematic schedule explorer (internal/explore) over its checker
// programs and fails on any serializability, progress, or trace-invariant
// violation; -replay-schedule FILE re-executes one schedule file emitted
// by the explorer byte-deterministically and verifies it still reproduces
// its recorded violation or clean fingerprint.
//
// Each configuration point is an independent deterministic simulation;
// -parallel N executes points on N workers (default: GOMAXPROCS). The
// tables, reports, and trace digests are byte-identical whatever N is.
//
// -trace-summary attaches an event aggregator to every run and appends
// per-point digests (top abort-causing yield points, length-adjustment
// timelines). -report FILE writes one machine-readable JSON record per
// configuration point ("-" for stdout); -csv FILE writes the same points
// as flat CSV rows. -cpuprofile/-memprofile write pprof profiles of the
// sweep for performance work.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"htmgil/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to regenerate: "+strings.Join(bench.Experiments(), " "))
	list := flag.Bool("list", false, "print the valid experiment names and exit")
	replaySchedule := flag.String("replay-schedule", "", "replay a schedule file emitted by the explorer and verify it reproduces its recorded result")
	quick := flag.Bool("quick", false, "scaled-down problem sizes")
	parallel := flag.Int("parallel", 0, "workers executing configuration points (0 = GOMAXPROCS, 1 = sequential)")
	traceSummary := flag.Bool("trace-summary", false, "print per-point trace digests (abort PCs, length timelines)")
	report := flag.String("report", "", "write per-point JSON reports to this file (\"-\" = stdout)")
	csvOut := flag.String("csv", "", "write per-point CSV reports to this file (\"-\" = stdout)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile after the sweep to this file")
	flag.Parse()

	if *list {
		for _, name := range bench.Experiments() {
			fmt.Println(name)
		}
		return
	}

	if *replaySchedule != "" {
		if err := bench.ReplaySchedule(os.Stdout, *replaySchedule); err != nil {
			fatal(err)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	s := bench.NewSession(os.Stdout, *quick)
	s.TraceSummary = *traceSummary
	s.Parallel = *parallel
	if err := s.Run(*experiment); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if *traceSummary {
		s.WriteTraceSummaries(os.Stdout)
	}
	if *report != "" {
		out := os.Stdout
		if *report != "-" {
			f, err := os.Create(*report)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			out = f
		}
		if err := s.WriteReports(out); err != nil {
			fatal(err)
		}
	}
	if *csvOut != "" {
		out := os.Stdout
		if *csvOut != "-" {
			f, err := os.Create(*csvOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			out = f
		}
		if err := s.WriteReportsCSV(out); err != nil {
			fatal(err)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}

package main

// metricDef describes one reported number. The lists below are the
// benchmark's contract: BENCHMARK.json repeats them and a test keeps the two
// equal, so a metric cannot be added, renamed or re-bounded in one place
// only.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share of the parent's median by which it may worsen
	Clock  string  // "host" or "virtual"
	Why    string
}

// Runs measure whole iterations until runSeconds have passed; every metric
// is per iteration, so the count of iterations changes only how many samples
// the medians rest on.
const runSeconds = 12

// endToEnd is what the driver gates on: what a sweep point costs on the host.
// Every one is defined and non-zero on all five workloads.
//
// The 2-core reference host's speed drifts by 10-30 % over minutes, so a raw
// time cannot stay within any bound the contract allows (its spread over ten
// runs reached 30 %). The gated time metric is therefore a ratio of ratios:
// each iteration's wall time over the reference kernel's (reference.go)
// measured right before and after it, which cancels the drift, per billion
// simulated thread cycles, which cancels most of what the seed does to the
// amount of work (the driver varies the seed between runs; kv_update's work
// varies by 13 % with it). That is the hardware-simulation guide's "host time
// per simulated event". The raw times are bench.* diagnostics, as the issue
// prescribes for a metric that cannot stay within a tenth. setup_s is raw
// because the contract asks for it in seconds. The two allocation metrics
// repeat to a few objects for one seed; their bounds admit the difference
// between seeds. peak_rss_mb is steady because the harness forces a collection
// between iterations (without that it spread 28 %).
var endToEnd = []metricDef{
	{"refs_per_gcycle", "refs/Gcycle", "lower", 0.24, "host", "host time per simulated event: median iteration time in reference kernels, per 1e9 simulated thread cycles"},
	{"alloc_mb_per_iter", "MB", "lower", 0.08, "host", "median Go heap bytes allocated by one iteration"},
	{"allocs_per_iter", "count", "lower", 0.21, "host", "median Go heap objects allocated by one iteration"},
	{"peak_rss_mb", "MB", "lower", 0.10, "host", "peak resident set of the workload's process"},
	{"setup_s", "s", "lower", 0.25, "host", "median of three set-ups: input generation, GIL-twin reference runs, one warm-up iteration"},
}

// diagnostics are the issue's remaining end-to-end numbers. They are printed
// with every run and recorded in the per-layer list, but the driver cannot
// gate on them. The raw host times follow the host's drift (see above). The
// virtual-clock ones repeat
// exactly for one seed and differ between seeds by up to 13 % (the driver
// measures spread across seeds, and requires a metric that is never zero:
// sim_abort_pct is 0 under the GIL, sim_p99_kcycles and paper_err_pct exist
// on one workload each); -agree and the digests hold them to exact equality
// instead. fail_pct is also the JSON result's failed/attempted.
var diagnostics = []metricDef{
	{Name: "bench.iter_refs", Unit: "x", Better: "lower", Clock: "host", Why: "median over iterations of wall time over the reference kernel's wall time right before and after"},
	{Name: "bench.iter_ms", Unit: "ms", Better: "lower", Clock: "host", Why: "median wall time of one iteration (every point: build VM, install, compile, run, validate)"},
	{Name: "bench.ref_ms", Unit: "ms", Better: "lower", Clock: "host", Why: "median wall time of the reference kernel: bench.iter_ms is about bench.iter_refs times this"},
	{Name: "bench.sim_mcycles_per_s", Unit: "Mcycles/s", Better: "higher", Clock: "host", Why: "simulated thread cycles of one iteration per second of host time"},
	{Name: "bench.cpu_s", Unit: "s", Better: "lower", Clock: "host", Why: "median user+system CPU seconds of one iteration, GC threads included"},
	{Name: "sim_cycles", Unit: "cycles", Better: "lower", Clock: "virtual", Why: "sum of the points' simulated makespans"},
	{Name: "sim_speedup_vs_gil", Unit: "x", Better: "higher", Clock: "virtual", Why: "geometric mean of GIL-twin makespan over point makespan, closed-loop points"},
	{Name: "sim_abort_pct", Unit: "%", Better: "lower", Clock: "virtual", Why: "HTM aborts over begins across the iteration"},
	{Name: "sim_p99_kcycles", Unit: "kcycles", Better: "lower", Clock: "virtual", Why: "serve_web: nearest-rank p99 of all open-loop arrival-to-completion latencies"},
	{Name: "paper_err_pct", Unit: "%", Better: "lower", Clock: "virtual", Why: "npb_htm: mean absolute relative error of the seven speed-ups over 1-thread GIL against the paper's Fig. 5"},
	{Name: "fail_pct", Unit: "%", Better: "lower", Clock: "virtual", Why: "failed over attempted operations, digest mismatches included"},
}

// countMetrics are group (B): exact work counts of one iteration, read from
// the public statistics of the layers after each run.
var countMetrics = []metricDef{
	{Name: "vm.bytecodes", Unit: "count", Better: "lower", Clock: "virtual", Why: "bytecodes interpreted by threads that exited"},
	{Name: "vm.host_ns_per_bytecode", Unit: "ns", Better: "lower", Clock: "host", Why: "median iteration time over vm.bytecodes"},
	{Name: "vm.cycles_begin_end_pct", Unit: "%", Better: "lower", Clock: "virtual", Why: "share of thread cycles in transaction begin/end"},
	{Name: "vm.cycles_tx_success_pct", Unit: "%", Better: "higher", Clock: "virtual", Why: "share of thread cycles in committed transactions"},
	{Name: "vm.cycles_tx_aborted_pct", Unit: "%", Better: "lower", Clock: "virtual", Why: "share of thread cycles wasted in aborted transactions"},
	{Name: "vm.cycles_gil_held_pct", Unit: "%", Better: "lower", Clock: "virtual", Why: "share of thread cycles executing under the GIL"},
	{Name: "vm.cycles_gil_wait_pct", Unit: "%", Better: "lower", Clock: "virtual", Why: "share of thread cycles waiting for the GIL"},
	{Name: "vm.cycles_io_wait_pct", Unit: "%", Better: "lower", Clock: "virtual", Why: "share of thread cycles blocked on I/O or joins"},
	{Name: "htm.begins", Unit: "count", Better: "lower", Clock: "virtual", Why: "hardware transactions started"},
	{Name: "htm.commit_ratio", Unit: "ratio", Better: "higher", Clock: "virtual", Why: "hardware commits over begins"},
	{Name: "htm.abort_capacity_pct", Unit: "%", Better: "lower", Clock: "virtual", Why: "share of hardware aborts that were footprint overflows"},
	{Name: "htm.abort_conflict_pct", Unit: "%", Better: "lower", Clock: "virtual", Why: "share of hardware aborts that were conflicts"},
	{Name: "occ.begins", Unit: "count", Better: "lower", Clock: "virtual", Why: "software transactions started"},
	{Name: "occ.commit_ratio", Unit: "ratio", Better: "higher", Clock: "virtual", Why: "software commits over begins"},
	{Name: "occ.validation_fail_pct", Unit: "%", Better: "lower", Clock: "virtual", Why: "validation passes that found a stale read"},
	{Name: "gil.fallbacks", Unit: "count", Better: "lower", Clock: "virtual", Why: "critical sections that fell back to a GIL"},
	{Name: "gil.acquisitions", Unit: "count", Better: "lower", Clock: "virtual", Why: "root GIL acquisitions (the Rails point's VM is out of reach)"},
	{Name: "gil.contended_pct", Unit: "%", Better: "lower", Clock: "virtual", Why: "root GIL acquisitions that had to wait"},
	{Name: "gil.shard_fallbacks", Unit: "count", Better: "lower", Clock: "virtual", Why: "fallbacks routed to a shard GIL"},
	{Name: "heap.gcs", Unit: "count", Better: "lower", Clock: "virtual", Why: "simulated garbage collections"},
	{Name: "heap.gc_cycles_pct", Unit: "%", Better: "lower", Clock: "virtual", Why: "simulated GC cycles over thread cycles"},
	{Name: "sched.ctx_util_pct", Unit: "%", Better: "higher", Clock: "virtual", Why: "non-waiting thread cycles over makespan x hardware threads"},
	{Name: "netsim.requests", Unit: "count", Better: "higher", Clock: "virtual", Why: "HTTP requests generated (open loop) or completed (closed loop)"},
	{Name: "netsim.conns_peak", Unit: "count", Better: "lower", Clock: "virtual", Why: "peak concurrent open-loop connections"},
	{Name: "netsim.slo_pct", Unit: "%", Better: "higher", Clock: "virtual", Why: "open-loop requests that met their route's latency limit"},
}

// spanNames are the harness spans of a traced run; each is reported as
// span.<name>_ms (total per iteration) and span.<name>_share_pct (self time
// over the iteration).
var spanNames = []string{
	"bench.iteration", "bench.point", "keyspace.generate", "vm.new", "db.install",
	"compile.source", "vm.run", "railslite.run", "bench.validate",
}

// traceMetrics are group (C) apart from the spans.
var traceMetrics = []metricDef{
	{Name: "trace.events", Unit: "count", Better: "lower", Clock: "virtual", Why: "events the program's own recorder emitted in one traced iteration"},
	{Name: "trace.events_per_kbytecode", Unit: "count", Better: "lower", Clock: "virtual", Why: "trace.events per thousand bytecodes"},
	{Name: "trace.stats_mismatches", Unit: "count", Better: "lower", Clock: "virtual", Why: "aggregator counters that differ from the Stats counters (expected 0)"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Clock: "host", Why: "traced over untraced median iteration time, minus one"},
}

// perLayer is every metric of a traced run, in the order it is printed.
func perLayer() []metricDef {
	var out []metricDef
	for _, d := range layerDrivers {
		out = append(out, d.metricDef)
		if d.allocs {
			out = append(out, metricDef{Name: d.Name + "_allocs", Unit: "count", Better: "lower", Clock: "host",
				Why: "Go heap objects allocated per operation of " + d.Name})
		}
	}
	out = append(out, countMetrics...)
	for _, n := range spanNames {
		out = append(out,
			metricDef{Name: "span." + n + "_ms", Unit: "ms", Better: "lower", Clock: "host", Why: "time inside " + n + " spans per traced iteration"},
			metricDef{Name: "span." + n + "_share_pct", Unit: "%", Better: "lower", Clock: "host", Why: "self time of " + n + " spans over the traced iteration"})
	}
	out = append(out, traceMetrics...)
	for _, d := range diagnostics {
		if d.Name != "fail_pct" { // carried by the result's failed/attempted
			out = append(out, d)
		}
	}
	return out
}

// paperFig5 is the paper's Fig. 5 HTM-dynamic throughput at 12 threads on
// zEC12, normalized to the 1-thread GIL, as transcribed in EXPERIMENTS.md,
// in the order of npb.Kernels (BT CG FT IS LU MG SP).
var paperFig5 = []float64{3.3, 1.9, 4.4, 1.9, 1.9, 2.6, 2.3}

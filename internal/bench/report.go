package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"htmgil/internal/core"
	"htmgil/internal/resilience"
	"htmgil/internal/trace"
	"htmgil/internal/vm"
)

// Report is the machine-readable record of one benchmark configuration
// point. A Session accumulates one Report per executed point so that future
// changes can diff benchmark trajectories instead of re-parsing the
// plain-text tables.
type Report struct {
	Experiment string `json:"experiment"`
	Machine    string `json:"machine"`
	Workload   string `json:"workload"`
	Config     string `json:"config"`
	Threads    int    `json:"threads,omitempty"`
	Clients    int    `json:"clients,omitempty"`

	Cycles     int64   `json:"cycles"`
	Throughput float64 `json:"throughput,omitempty"`
	AbortRatio float64 `json:"abortRatio"`

	Begins      uint64 `json:"txBegins,omitempty"`
	Commits     uint64 `json:"txCommits,omitempty"`
	Aborts      uint64 `json:"txAborts,omitempty"`
	Fallbacks   uint64 `json:"gilFallbacks,omitempty"`
	Adjustments uint64 `json:"lengthAdjustments,omitempty"`
	GCs         uint64 `json:"gcs,omitempty"`

	// Software-transaction (OCC) tier accounting, present only when the
	// point ran under a policy using the tier (the hybrid experiment).
	OCCBegins             uint64 `json:"occBegins,omitempty"`
	OCCCommits            uint64 `json:"occCommits,omitempty"`
	OCCAborts             uint64 `json:"occAborts,omitempty"`
	OCCValidationFailures uint64 `json:"occValidationFailures,omitempty"`

	AbortCauses     map[string]uint64 `json:"abortCauses,omitempty"`
	ConflictRegions map[string]uint64 `json:"conflictRegions,omitempty"`
	// ConflictWriterRegions is the subset of ConflictRegions where the
	// doomed transaction held the conflicting line in its write set.
	ConflictWriterRegions map[string]uint64 `json:"conflictWriterRegions,omitempty"`

	// Trace attribution, present only when the Session ran with
	// TraceSummary (it requires attaching an event recorder to the run).
	TopAbortPCs  []trace.PCCount              `json:"topAbortPCs,omitempty"`
	LengthSeries map[int][]trace.LengthSample `json:"lengthSeries,omitempty"`
	FallbackWhy  map[string]uint64            `json:"fallbackReasons,omitempty"`

	// Fault-injection provenance, present when the run was executed under a
	// fault spec (the chaos experiment, or any caller arming Options.Faults):
	// the canonical spec text and effective fault-stream seed that reproduce
	// the run, the per-channel injection counters, the breaker's state
	// history, the watchdog's degradation counters, and the cycles between
	// the fault horizon clearing (spec until=) and the breaker settling
	// closed again (-1 when the breaker never recovered in the run).
	FaultSpec          string                   `json:"faultSpec,omitempty"`
	Seed               int64                    `json:"seed,omitempty"`
	FaultCounts        map[string]uint64        `json:"faultCounts,omitempty"`
	BreakerTransitions []core.BreakerTransition `json:"breakerTransitions,omitempty"`
	BreakerOpens       uint64                   `json:"breakerOpens,omitempty"`
	Degradations       map[string]uint64        `json:"degradations,omitempty"`
	RecoverCycles      *int64                   `json:"recoverCycles,omitempty"`

	// Open-loop serving fields (the serving experiment): the machine size
	// and pool shape, the offered traffic, connection accounting, and the
	// latency digest — aggregate and per route class. Latency values are in
	// virtual cycles; attainment is judged against each route's SLO.
	Cores        int             `json:"cores,omitempty"`
	Workers      int             `json:"workers,omitempty"`
	Sessions     int             `json:"sessions,omitempty"`
	RatePerSec   float64         `json:"ratePerSec,omitempty"`
	Arrivals     int             `json:"arrivals,omitempty"`
	ConnsTotal   int             `json:"connsTotal,omitempty"`
	ConnsPeak    int             `json:"connsPeak,omitempty"`
	Latency      *LatencySummary `json:"latency,omitempty"`
	RouteLatency []RouteLatency  `json:"routeLatency,omitempty"`

	// Resilience accounting (the resilience experiment, or any serving point
	// run with an admission/retry/deadline config): how each non-completed
	// request was resolved, plus the brownout controller's state history.
	Shed                int                             `json:"shed,omitempty"`
	GaveUp              int                             `json:"gaveUp,omitempty"`
	DeadlineExceeded    int                             `json:"deadlineExceeded,omitempty"`
	BrownoutTransitions []resilience.BrownoutTransition `json:"brownoutTransitions,omitempty"`

	// Sharded-GIL accounting (the datastore experiment, or any point run
	// with Options.Shards > 1): the shard count, the total fallbacks routed
	// to shard locks instead of the root, and the benign cross-shard leak
	// counter (see DESIGN.md §13).
	Shards          int    `json:"shards,omitempty"`
	ShardFallbacks  uint64 `json:"shardFallbacks,omitempty"`
	CrossShardLeaks uint64 `json:"crossShardLeaks,omitempty"`
}

// RouteLatency is the latency digest of one route class of a serving point.
type RouteLatency struct {
	Route string `json:"route"`
	LatencySummary
}

// newReport builds a Report from a run's Stats plus, optionally, the
// trace aggregator that observed the run.
func newReport(exp, machine, workload, config string, threads, clients int,
	cycles int64, throughput float64, st *vm.Stats, agg *trace.Aggregator, topN int) Report {
	r := Report{
		Experiment:   exp,
		Machine:      machine,
		Workload:     workload,
		Config:       config,
		Threads:      threads,
		Clients:      clients,
		Cycles:       cycles,
		Throughput:   throughput,
		AbortRatio:   st.AbortRatio(),
		Fallbacks:    st.GILFallbacks,
		Adjustments:  st.Adjustments,
		GCs:          st.GCs,
		FaultCounts:  st.FaultCounts,
		Degradations: st.Degradations,
		BreakerOpens: st.BreakerOpens,
	}
	if st.HTM != nil {
		r.Begins = st.HTM.Begins
		r.Commits = st.HTM.Commits
		r.Aborts = st.HTM.Aborts
	}
	if st.OCC != nil {
		r.OCCBegins = st.OCC.Begins
		r.OCCCommits = st.OCC.Commits
		r.OCCAborts = st.OCC.Aborts
		r.OCCValidationFailures = st.OCC.ValidationFailures
	}
	if len(st.AbortCauses) > 0 {
		r.AbortCauses = make(map[string]uint64, len(st.AbortCauses))
		for c, n := range st.AbortCauses {
			r.AbortCauses[c.String()] = n
		}
	}
	if len(st.ConflictRegions) > 0 {
		r.ConflictRegions = st.ConflictRegions
	}
	if len(st.ConflictWriterRegions) > 0 {
		r.ConflictWriterRegions = st.ConflictWriterRegions
	}
	if len(st.BreakerTransitions) > 0 {
		r.BreakerTransitions = st.BreakerTransitions
	}
	if agg != nil {
		r.TopAbortPCs = agg.TopAbortPCs(topN)
		if len(agg.LengthSeries) > 0 {
			r.LengthSeries = agg.LengthSeries
		}
		if len(agg.FallbackReasons) > 0 {
			r.FallbackWhy = agg.FallbackReasons
		}
	}
	return r
}

// WriteReports emits every accumulated Report as indented JSON.
func (s *Session) WriteReports(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Reports)
}

// csvColumns is the flat CSV view of a Report: the scalar columns of the
// JSON reports, each name next to the expression that fills it.
var csvColumns = []struct {
	name string
	get  func(r *Report) string
}{
	{"experiment", func(r *Report) string { return r.Experiment }},
	{"machine", func(r *Report) string { return r.Machine }},
	{"workload", func(r *Report) string { return r.Workload }},
	{"config", func(r *Report) string { return r.Config }},
	{"threads", func(r *Report) string { return strconv.Itoa(r.Threads) }},
	{"clients", func(r *Report) string { return strconv.Itoa(r.Clients) }},
	{"cycles", func(r *Report) string { return strconv.FormatInt(r.Cycles, 10) }},
	{"throughput", func(r *Report) string { return ftoa(r.Throughput) }},
	{"abortRatio", func(r *Report) string { return ftoa(r.AbortRatio) }},
	{"txBegins", func(r *Report) string { return utoa(r.Begins) }},
	{"txCommits", func(r *Report) string { return utoa(r.Commits) }},
	{"txAborts", func(r *Report) string { return utoa(r.Aborts) }},
	{"gilFallbacks", func(r *Report) string { return utoa(r.Fallbacks) }},
	{"lengthAdjustments", func(r *Report) string { return utoa(r.Adjustments) }},
	{"gcs", func(r *Report) string { return utoa(r.GCs) }},
	{"occBegins", func(r *Report) string { return utoa(r.OCCBegins) }},
	{"occCommits", func(r *Report) string { return utoa(r.OCCCommits) }},
	{"occAborts", func(r *Report) string { return utoa(r.OCCAborts) }},
	{"occValidationFailures", func(r *Report) string { return utoa(r.OCCValidationFailures) }},
	{"faultSpec", func(r *Report) string { return r.FaultSpec }},
	{"seed", func(r *Report) string {
		if r.FaultSpec == "" {
			return ""
		}
		return strconv.FormatInt(r.Seed, 10)
	}},
	{"faultsInjected", func(r *Report) string { return utoa(sumCounts(r.FaultCounts)) }},
	{"breakerOpens", func(r *Report) string { return utoa(r.BreakerOpens) }},
	{"recoverCycles", func(r *Report) string {
		if r.RecoverCycles == nil {
			return ""
		}
		return strconv.FormatInt(*r.RecoverCycles, 10)
	}},
	{"cores", func(r *Report) string { return strconv.Itoa(r.Cores) }},
	{"workers", func(r *Report) string { return strconv.Itoa(r.Workers) }},
	{"sessions", func(r *Report) string { return strconv.Itoa(r.Sessions) }},
	{"ratePerSec", func(r *Report) string { return ftoa(r.RatePerSec) }},
	{"arrivals", func(r *Report) string { return strconv.Itoa(r.Arrivals) }},
	{"connsTotal", func(r *Report) string { return strconv.Itoa(r.ConnsTotal) }},
	{"connsPeak", func(r *Report) string { return strconv.Itoa(r.ConnsPeak) }},
	{"p50", latencyColumn(func(l *LatencySummary) string { return strconv.FormatInt(l.P50, 10) })},
	{"p99", latencyColumn(func(l *LatencySummary) string { return strconv.FormatInt(l.P99, 10) })},
	{"p999", latencyColumn(func(l *LatencySummary) string { return strconv.FormatInt(l.P999, 10) })},
	{"latMax", latencyColumn(func(l *LatencySummary) string { return strconv.FormatInt(l.Max, 10) })},
	{"sloAttainment", latencyColumn(func(l *LatencySummary) string { return ftoa(l.Attainment) })},
	{"shed", func(r *Report) string { return strconv.Itoa(r.Shed) }},
	{"gaveUp", func(r *Report) string { return strconv.Itoa(r.GaveUp) }},
	{"deadlineExceeded", func(r *Report) string { return strconv.Itoa(r.DeadlineExceeded) }},
	{"shards", func(r *Report) string { return strconv.Itoa(r.Shards) }},
	{"shardFallbacks", func(r *Report) string { return utoa(r.ShardFallbacks) }},
	{"crossShardLeaks", func(r *Report) string { return utoa(r.CrossShardLeaks) }},
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
func utoa(v uint64) string  { return strconv.FormatUint(v, 10) }

// latencyColumn is a column of the latency digest, empty for points that
// measured none.
func latencyColumn(get func(*LatencySummary) string) func(*Report) string {
	return func(r *Report) string {
		if r.Latency == nil {
			return ""
		}
		return get(r.Latency)
	}
}

func sumCounts(m map[string]uint64) uint64 {
	var t uint64
	for _, n := range m {
		t += n
	}
	return t
}

// WriteReportsCSV emits the accumulated Reports as one flat CSV row per
// configuration point (see csvColumns), for spreadsheet/plotting pipelines
// that don't want to parse JSON.
func (s *Session) WriteReportsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	row := make([]string, len(csvColumns))
	for i, c := range csvColumns {
		row[i] = c.name
	}
	if err := cw.Write(row); err != nil {
		return err
	}
	for i := range s.Reports {
		for j, c := range csvColumns {
			row[j] = c.get(&s.Reports[i])
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTraceSummaries prints the per-point trace digests collected while
// TraceSummary was on: headline counters, the top abort-causing yield
// points and regions, and the length-adjustment timeline.
func (s *Session) WriteTraceSummaries(w io.Writer) {
	for i := range s.Reports {
		r := &s.Reports[i]
		if r.Begins == 0 && len(r.TopAbortPCs) == 0 {
			continue // non-HTM point: nothing transactional to attribute
		}
		fmt.Fprintf(w, "\n## %s %s/%s %s", r.Experiment, r.Machine, r.Workload, r.Config)
		if r.Threads > 0 {
			fmt.Fprintf(w, " threads=%d", r.Threads)
		}
		if r.Clients > 0 {
			fmt.Fprintf(w, " clients=%d", r.Clients)
		}
		fmt.Fprintf(w, "\n  tx %d begin / %d commit / %d abort | %d gil-fallbacks | %d adjustments\n",
			r.Begins, r.Commits, r.Aborts, r.Fallbacks, r.Adjustments)
		if len(r.TopAbortPCs) > 0 {
			fmt.Fprintf(w, "  top abort yield points:")
			for _, pc := range r.TopAbortPCs {
				fmt.Fprintf(w, " yp%d=%d", pc.PC, pc.Count)
			}
			fmt.Fprintln(w)
		}
		if len(r.LengthSeries) > 0 {
			fmt.Fprintf(w, "  length adjustments:\n")
			for _, pc := range sortedPCs(r.LengthSeries) {
				fmt.Fprintf(w, "    yp%d:", pc)
				for _, smp := range r.LengthSeries[pc] {
					fmt.Fprintf(w, " t=%d %d->%d", smp.T, smp.Old, smp.New)
				}
				fmt.Fprintln(w)
			}
		}
	}
}

func sortedPCs(m map[int][]trace.LengthSample) []int {
	out := make([]int, 0, len(m))
	for pc := range m {
		out = append(out, pc)
	}
	for i := 1; i < len(out); i++ { // insertion sort; the map is tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

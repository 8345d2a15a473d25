// Command benchmark is the repo benchmark: five simulator workloads measured
// end to end on the host clock and the virtual clock, drivers for every
// layer, and a traced run. See README.md for every metric and workload.
//
//	go run . [-workload NAME] [-seed N] [-seconds S] [-trace] [-smoke] [-agree] [-describe]
//
// With -workload it measures that workload in this process and prints, as
// its last line, the JSON result BENCHMARK.json describes. Without, it runs
// every workload in a child process of its own, one after the other, so
// that GC state and peak RSS do not leak between workloads.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// reportPrefix marks the line that carries a run's full report to the
// parent process (and to anyone who wants more than the result line).
const reportPrefix = "REPORT "

type options struct {
	workload string
	runOpts
	agree    bool
	describe bool
}

// normalizeArgs lets -trace be written bare, as a person types it, or with a
// 0/1 value, as the driver passes it: "-trace 1" becomes "-trace=1".
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all, each in a child process)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: feeds keyspace.Config.Seed and OpenLoadGen.Seed")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "measure whole iterations until this many seconds have passed")
	fs.BoolVar(&o.traced, "trace", false, "traced run: layer drivers, work counts, spans and tracing overhead")
	fs.BoolVar(&o.smoke, "smoke", false, "shrunken sizes and one iteration, for tests")
	fs.BoolVar(&o.agree, "agree", false, "run everything twice and compare the end-to-end metrics against their bounds")
	fs.BoolVar(&o.describe, "describe", false, "print BENCHMARK.json from the lists in the code and exit")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.workload != "" && workloadByName(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 0 || o.seconds > 170 {
		return o, fmt.Errorf("-seconds %v out of range", o.seconds)
	}
	if o.smoke {
		o.seconds = 0
	}
	return o, nil
}

func main() {
	// The simulator is single-threaded per point; the second processor is
	// for the Go runtime's collector.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	var ok bool
	switch {
	case o.describe:
		var out []byte
		if out, err = json.MarshalIndent(describe(), "", "  "); err == nil {
			_, err = fmt.Printf("%s\n", out)
		}
		ok = err == nil
	case o.workload != "":
		ok, err = runOne(os.Stdout, o)
	case o.agree:
		ok, err = runAgree(os.Stdout, o)
	default:
		var reports []*report
		reports, err = runAll(os.Stdout, o)
		ok = err == nil && allCorrect(reports)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// result is the last line of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultOf picks the metrics of the run's kind out of the report: the
// end-to-end list for an untraced run, the per-layer list for a traced one.
func resultOf(r *report) (result, error) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer()
	}
	res := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]resultValue{}}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = resultValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// runOne measures one workload in this process and prints the table, the
// report line and the result line.
func runOne(w io.Writer, o options) (bool, error) {
	def := workloadByName(o.workload)
	r, err := runWorkload(def, o.runOpts)
	if err != nil {
		return false, err
	}
	res, err := resultOf(r)
	if err != nil {
		return false, err
	}
	printReport(w, r)
	full, err := json.Marshal(r)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s%s\n", reportPrefix, full)
	last, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", last)
	return r.Correct, nil
}

func printMetric(w io.Writer, d metricDef, v float64, extra string) {
	bound := ""
	if d.Bound > 0 {
		bound = fmt.Sprintf("bound %.2f", d.Bound)
	}
	fmt.Fprintf(w, "  %-34s %16.6g %-10s %-7s %-6s %-10s %s\n", d.Name, v, d.Unit, d.Clock, d.Better, bound, extra)
}

// printReport prints every metric of a run by name, with its unit.
func printReport(w io.Writer, r *report) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "workload %s (%s): seed %d, %d timed iterations", r.Workload, kind, r.Seed, r.Iterations)
	if r.Traced {
		fmt.Fprintf(w, " + %d traced", r.TracedIterations)
	}
	fmt.Fprintf(w, ", %d set-up(s), digest %.16s\n", r.Setups, r.Digest)
	if !r.Traced {
		for _, d := range endToEnd {
			printMetric(w, d, r.Metrics[d.Name], "")
		}
		for _, d := range diagnostics {
			extra := ""
			if d.Name == "bench.iter_ms" {
				q1, q3 := quartiles(r.IterMs)
				extra = fmt.Sprintf("q1 %.6g q3 %.6g n %d", q1, q3, len(r.IterMs))
			}
			if v, ok := r.Metrics[d.Name]; ok {
				printMetric(w, d, v, extra)
			}
		}
	} else {
		for _, d := range perLayer() {
			printMetric(w, d, r.Metrics[d.Name], "")
		}
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed, correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

func allCorrect(reports []*report) bool {
	for _, r := range reports {
		if !r.Correct {
			return false
		}
	}
	return true
}

// gitRevision is set by run.sh (-ldflags -X) when the checkout is a git
// repository; the driver's is not.
var gitRevision = "unknown"

// runChild runs one workload in a child process (a re-exec of this
// binary), passes its output through, and returns its report.
func runChild(w io.Writer, o options, name string, traced bool) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace=" + strconv.FormatBool(traced)}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	runErr := cmd.Run() // Run waits for the child to end
	var rep *report
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, reportPrefix):
			rep = &report{}
			if err := json.Unmarshal([]byte(line[len(reportPrefix):]), rep); err != nil {
				return nil, fmt.Errorf("workload %s: bad report line: %w", name, err)
			}
			rep.Spans = nil
		case strings.HasPrefix(line, "{"): // the result line repeats the report
		default:
			fmt.Fprintln(w, line)
		}
	}
	if rep == nil {
		return nil, fmt.Errorf("workload %s: no report (%v)", name, runErr)
	}
	return rep, nil
}

// runAll runs every workload sequentially, each in its own child process,
// untraced and then (with -trace) traced.
func runAll(w io.Writer, o options) ([]*report, error) {
	t0 := time.Now()
	fmt.Fprintf(w, "htmgil benchmark: git %s, nproc %d, GOMAXPROCS %d, %s, seed %d, %gs of whole iterations per run (>= %d), %d set-ups\n",
		gitRevision, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.seed, o.seconds, minIterations, setupReps)
	var reports []*report
	for _, def := range workloads {
		kinds := []bool{false}
		if o.traced {
			kinds = append(kinds, true)
		}
		digest := ""
		for _, traced := range kinds {
			r, err := runChild(w, o, def.Name, traced)
			if err != nil {
				return reports, err
			}
			if digest == "" {
				digest = r.Digest
			}
			if r.Digest != digest {
				r.problem("traced run's digest %.12s differs from the untraced run's %.12s", r.Digest, digest)
				fmt.Fprintf(w, "  PROBLEM: %s\n", r.Problems[len(r.Problems)-1])
			}
			reports = append(reports, r)
		}
	}
	fmt.Fprintf(w, "total wall time %.1f s\n", time.Since(t0).Seconds())
	return reports, nil
}

// Command htmgil runs a mini-Ruby program on the simulated interpreter.
//
//	htmgil -mode htm -machine zec12 script.rb
//	htmgil -mode gil -e 'puts 1 + 2'
//	htmgil -mode htm -policy backoff script.rb
//
// -policy selects the contention-management policy driving lock elision
// (paper-dynamic, fixed-N, backoff, lazy-subscription, occ-adaptive);
// "-policy list" prints them with descriptions. -txlen N is shorthand for
// -policy fixed-N.
//
// After the program finishes it can print the execution statistics the
// paper's evaluation is built from (-stats), and -trace out.jsonl streams
// every transaction/GIL/GC event of the run as JSON lines.
//
// -faults arms the deterministic fault-injection harness, e.g.
// "-faults spurious=30000,timerjitter=0.3,until=20000000", and -breaker
// enables the elision circuit breaker (with the livelock watchdog riding
// along when tracing is active). Injected faults and breaker transitions
// appear in -stats and in the -trace stream.
//
// The SQLite3-flavored datastore binding is always installed, so scripts
// can `$db = SQLite3.new` and issue CREATE KEYSPACE / UPDATE ... WHERE /
// range SELECT statements. -shards N splits keyspace fallbacks across N
// per-shard locks (htm mode only); per-shard occupancy shows up in -stats.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"htmgil"
	"htmgil/internal/compile"
	"htmgil/internal/gil"
)

// cli is what the command line decides: the machine options plus what to do
// with the program.
type cli struct {
	opt      htmgil.Options
	src      string // -e text; "" = read the file argument
	file     string
	stats    bool
	dump     bool
	traceOut string
	listOnly bool   // -policy list
	usage    string // -h: the flag summary to print
}

// parseArgs parses and validates the command line. Every error is a usage
// error: main prints it and exits 2.
func parseArgs(args []string) (*cli, error) {
	fs := flag.NewFlagSet("htmgil", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	mode := fs.String("mode", "htm", "execution mode: gil, htm, fgl, ideal")
	machine := fs.String("machine", "zec12", "machine profile: zec12, xeon")
	expr := fs.String("e", "", "program text (instead of a file)")
	txlen := fs.Int("txlen", 0, "fixed transaction length N >= 1: shorthand for -policy fixed-N")
	policyName := fs.String("policy", "", "contention-management policy (\"\" = paper-dynamic, \"list\" = show choices)")
	stats := fs.Bool("stats", false, "print execution statistics")
	dump := fs.Bool("dump", false, "disassemble the program instead of running it")
	traceOut := fs.String("trace", "", "write structured trace events to this JSONL file")
	faultSpec := fs.String("faults", "", "fault-injection spec, e.g. spurious=30000,connreset=0.02,until=20000000")
	breaker := fs.Bool("breaker", false, "enable the elision circuit breaker (+ degradation watchdog)")
	shards := fs.Int("shards", 0, "sharded-GIL mode: one fallback lock per keyspace shard (0 = single GIL; htm mode only)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			var usage strings.Builder
			fs.SetOutput(&usage)
			fs.Usage()
			return &cli{usage: usage.String()}, nil
		}
		return nil, err
	}
	if *policyName == "list" {
		return &cli{listOnly: true}, nil
	}

	txlenSet := false
	fs.Visit(func(f *flag.Flag) { txlenSet = txlenSet || f.Name == "txlen" })
	if txlenSet {
		if *policyName != "" {
			return nil, fmt.Errorf("-txlen %d is shorthand for -policy fixed-%d: give -txlen or -policy, not both", *txlen, *txlen)
		}
		if *txlen < 1 {
			return nil, fmt.Errorf("-txlen %d: the length must be at least 1 (leave -txlen out for dynamic adjustment)", *txlen)
		}
		*policyName = fmt.Sprintf("fixed-%d", *txlen)
	}
	if !htmgil.ValidPolicy(*policyName) {
		return nil, fmt.Errorf("unknown policy %q; valid policies:\n  %s", *policyName, strings.Join(htmgil.DescribePolicies(), "\n  "))
	}

	var prof *htmgil.Profile
	switch *machine {
	case "zec12":
		prof = htmgil.ZEC12()
	case "xeon":
		prof = htmgil.XeonE3()
	default:
		return nil, fmt.Errorf("unknown machine %q", *machine)
	}
	var m htmgil.Mode
	switch *mode {
	case "gil":
		m = htmgil.ModeGIL
	case "htm":
		m = htmgil.ModeHTM
	case "fgl":
		m = htmgil.ModeFGL
	case "ideal":
		m = htmgil.ModeIdeal
	default:
		return nil, fmt.Errorf("unknown mode %q", *mode)
	}
	if *shards < 0 || *shards > gil.MaxShards {
		return nil, fmt.Errorf("-shards %d: want 0 to %d", *shards, gil.MaxShards)
	}
	if *shards > 1 && m != htmgil.ModeHTM {
		return nil, fmt.Errorf("-shards %d needs -mode htm: only elided sections fall back to shard locks", *shards)
	}
	if *expr == "" && fs.NArg() != 1 {
		return nil, errors.New("usage: htmgil [-mode M] [-machine P] [-stats] script.rb | -e 'code'")
	}

	c := &cli{src: *expr, file: fs.Arg(0), stats: *stats, dump: *dump, traceOut: *traceOut}
	c.opt = htmgil.DefaultOptions(prof, m)
	c.opt.Policy = *policyName
	c.opt.Shards = *shards
	if *faultSpec != "" {
		spec, err := htmgil.ParseFaultSpec(*faultSpec)
		if err != nil {
			return nil, err
		}
		c.opt.Faults = spec
	}
	if *breaker {
		c.opt.Breaker = true
		c.opt.Watchdog = true
	}
	return c, nil
}

func main() {
	c, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if c.usage != "" {
		fmt.Fprint(os.Stderr, c.usage)
		return
	}
	if c.listOnly {
		for _, line := range htmgil.DescribePolicies() {
			fmt.Println(line)
		}
		return
	}
	src := c.src
	if src == "" {
		data, err := os.ReadFile(c.file)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		src = string(data)
	}
	opt := c.opt
	m, prof := opt.Mode, opt.Prof
	opt.Out = os.Stdout
	var traceSink *htmgil.TraceJSONL
	if c.traceOut != "" {
		f, err := os.Create(c.traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		traceSink = htmgil.NewTraceJSONL(f)
		opt.Trace = htmgil.NewTraceRecorder(traceSink)
	}
	vmm := htmgil.NewMachineOpts(opt)
	vmm.InstallDatastore()
	if c.dump {
		iseq, err := vmm.VM.CompileSource(src, "main")
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Print(compile.Disassemble(iseq, vmm.VM.Syms))
		return
	}
	res, err := vmm.RunSource(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if traceSink != nil {
		if werr := traceSink.Err(); werr != nil {
			fmt.Fprintln(os.Stderr, "trace:", werr)
			os.Exit(1)
		}
	}
	if c.stats {
		fmt.Fprintf(os.Stderr, "\n-- %s on %s --\n", m, prof.Name)
		fmt.Fprintf(os.Stderr, "virtual cycles: %d\n", res.Cycles)
		fmt.Fprintf(os.Stderr, "bytecodes:      %d\n", res.Stats.Bytecodes)
		fmt.Fprintf(os.Stderr, "threads:        %d\n", res.Stats.Threads)
		fmt.Fprintf(os.Stderr, "gc runs:        %d\n", res.Stats.GCs)
		if res.Stats.HTM != nil {
			fmt.Fprintf(os.Stderr, "transactions:   %d begun, %d committed, %.2f%% aborted\n",
				res.Stats.HTM.Begins, res.Stats.HTM.Commits, res.Stats.AbortRatio()*100)
			var regions []string
			for r := range res.Stats.ConflictRegions {
				regions = append(regions, r)
			}
			sort.Strings(regions)
			for _, r := range regions {
				fmt.Fprintf(os.Stderr, "  conflicts at %-14s %d\n", r, res.Stats.ConflictRegions[r])
			}
		}
		if len(res.Stats.ShardGIL) > 0 {
			fmt.Fprintf(os.Stderr, "shard GILs:     root %d acquisitions / %d hold cycles\n",
				res.Stats.RootGIL.Acquisitions, res.Stats.RootGIL.HoldCycles)
			for i, sg := range res.Stats.ShardGIL {
				fmt.Fprintf(os.Stderr, "  shard %-2d      %d acquisitions / %d hold cycles / %d fallbacks\n",
					i, sg.Acquisitions, sg.HoldCycles, res.Stats.ShardFallbacks[i])
			}
			fmt.Fprintf(os.Stderr, "  cross-shard leaks: %d\n", res.Stats.CrossShardLeaks)
		}
		if res.Stats.OCC != nil {
			fmt.Fprintf(os.Stderr, "sw transactions: %d begun, %d committed, %d aborted (%d validation failures)\n",
				res.Stats.OCC.Begins, res.Stats.OCC.Commits, res.Stats.OCC.Aborts, res.Stats.OCC.ValidationFailures)
		}
		if len(res.Stats.FaultCounts) > 0 {
			var chans []string
			for ch := range res.Stats.FaultCounts {
				chans = append(chans, ch)
			}
			sort.Strings(chans)
			fmt.Fprintf(os.Stderr, "injected faults:")
			for _, ch := range chans {
				fmt.Fprintf(os.Stderr, " %s=%d", ch, res.Stats.FaultCounts[ch])
			}
			fmt.Fprintln(os.Stderr)
		}
		if len(res.Stats.BreakerTransitions) > 0 {
			fmt.Fprintf(os.Stderr, "breaker (%d trips):", res.Stats.BreakerOpens)
			for _, tr := range res.Stats.BreakerTransitions {
				fmt.Fprintf(os.Stderr, " t=%d %s", tr.T, tr.State)
			}
			fmt.Fprintln(os.Stderr)
		}
		if len(res.Stats.Degradations) > 0 {
			var reasons []string
			for r := range res.Stats.Degradations {
				reasons = append(reasons, r)
			}
			sort.Strings(reasons)
			fmt.Fprintf(os.Stderr, "degradations:")
			for _, r := range reasons {
				fmt.Fprintf(os.Stderr, " %s=%d", r, res.Stats.Degradations[r])
			}
			fmt.Fprintln(os.Stderr)
		}
	}
}

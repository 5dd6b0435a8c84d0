// Command scenario lists, describes and runs declarative failure
// scenarios over the convergence lab (internal/scenario), and sweeps the
// whole registry across a parallel worker pool (internal/sweep):
//
//	scenario list                          # registered scenarios
//	scenario describe flap-storm           # topology + timeline of one
//	scenario run paper-fig5 --mode both    # execute and report JSON
//	scenario run double-failure --prefixes 20000 --format csv
//	scenario sweep --workers 8             # every scenario × both modes
//	scenario sweep paper-fig5 flap-storm --seeds 1,2,3 --json
//
// `run` writes the full report to stdout (JSON by default; --format
// csv|table for the others) and, for multi-size two-mode runs, a
// flat-vs-linear headline table to stderr. `sweep` streams one progress
// line per completed run to stderr and writes the aggregated comparison
// (text table by default, --json for the full aggregate, --md for the
// EXPERIMENTS.md rendering) to stdout; run failures are reported in the
// aggregate, not fatal.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"supercharged/internal/scenario"
	"supercharged/internal/sim"
	"supercharged/internal/sweep"
	"supercharged/internal/telemetry"
	"supercharged/internal/textdiff"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		cmdList()
	case "describe":
		cmdDescribe(os.Args[2:])
	case "run":
		cmdRun(os.Args[2:])
	case "sweep":
		cmdSweep(os.Args[2:])
	case "fuzz":
		cmdFuzz(os.Args[2:])
	case "docs":
		cmdDocs(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "scenario: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  scenario list                       list registered scenarios
  scenario describe <name>            show a scenario's topology and timeline
  scenario run <name> [flags]         execute a scenario and report results
  scenario sweep [names...] [flags]   run many scenarios across a worker pool
  scenario fuzz [flags]               hunt for convergence regressions with
                                      random timelines from a seeded grammar
  scenario docs [flags]               regenerate the builtin catalogue section
                                      of docs/scenarios.md from the registry

run flags:
  --mode both|standalone|supercharged   router modes to run (default both)
  --prefixes N                          table size (overrides spec default/sweep)
  --flows N                             probed flows per run (default 100)
  --seed N                              RNG seed (default 1; same seed, same report)
  --table FILE                          MRT TABLE_DUMP_V2 dump (plain or .gz) to
                                        replay instead of the synthetic feed
  --format json|csv|table               report format on stdout (default json)
  --trace FILE                          write the runs' virtual-time spans as
                                        Chrome trace-event JSON (open in
                                        Perfetto / chrome://tracing)
  --trace-jsonl FILE                    write the raw span stream as JSONL
  --q                                   suppress progress output on stderr

sweep flags:
  --workers N                           worker pool size (default GOMAXPROCS)
  --mode both|standalone|supercharged   router modes (default both)
  --sizes N,N,...                       table sizes (default per-scenario)
  --tier s|m|l|xl                       named size tier instead of --sizes
                                        (xl = 100k and 1M prefixes)
  --seeds N | N,N,...                   a bare integer is a seed COUNT
                                        (5 = seeds 1..5); a comma list
                                        names explicit seeds (default 1)
  --flows N                             probed flows per run (default 100)
  --budget D                            wall-clock budget, e.g. 30s
                                        (0 = none)
  --listen ADDR                         serve /metrics, /runs and /debug/pprof
                                        on ADDR (e.g. 127.0.0.1:9475) during
                                        the sweep
  --linger D                            keep the --listen endpoint up D after
                                        the sweep finishes (^C stops early)
  --trace-dir DIR                       write each executed unit's virtual-time
                                        trace into DIR (<key>.trace.jsonl plus
                                        Perfetto-openable <key>.trace.json)
  --json                                emit the full aggregate as JSON
  --md                                  emit the EXPERIMENTS.md rendering
  --q                                   suppress per-run progress on stderr

fuzz flags:
  --seed N                              grammar seed (default 1; the whole
                                        session — specs, verdicts, shrinks —
                                        reproduces byte-for-byte from it)
  --runs N                              timelines to generate (default 20)
  --prefixes N                          table size per run (default 2000)
  --flows N                             probed flows per run (default 50)
  --max-peers N / --max-events N        grammar bounds (defaults 5 / 6)
  --slack F                             allowed supercharged/standalone
                                        worst-blackout ratio (default 1.5)
  --axes A,A,...                        grammar axes to enable (default all):
                                        group-size, detection, windows,
                                        deployment, cost, replicas; the axis
                                        list is part of a finding's
                                        reproduction contract with the seed
  --no-shrink                           report findings unminimized
  --budget D                            wall-clock cap, e.g. 30s (0 = none)
  --json                                emit the session result as JSON
  --q                                   suppress the per-run timeline log

docs flags:
  --o FILE                              docs file to update (default
                                        docs/scenarios.md)
  --check                               verify instead of write; exit 1 and
                                        print a diff on drift (CI)

With no names, sweep covers every registered scenario. Worker count
only changes wall-clock time: results are deterministic per seed, and
with several seeds every cell reports median [min-max] spread.
fuzz exits 1 if any finding survives; docs --check exits 1 on drift.
`)
}

func cmdList() {
	for _, s := range scenario.List() {
		fmt.Printf("%-22s %s\n", s.Name, s.Description)
	}
}

func cmdDescribe(args []string) {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: scenario describe <name>")
		os.Exit(2)
	}
	s, ok := scenario.Lookup(args[0])
	if !ok {
		fmt.Fprintf(os.Stderr, "scenario: unknown scenario %q (have: %v)\n", args[0], scenario.Names())
		os.Exit(1)
	}
	fmt.Printf("%s\n\n%s\n\n", s.Name, s.Description)
	fmt.Println("peers:")
	for i, p := range s.Peers {
		role := "backup"
		if i == 0 {
			role = "primary"
		}
		size := "full table"
		if p.Prefixes > 0 {
			size = fmt.Sprintf("%d prefixes", p.Prefixes)
			if p.Offset > 0 {
				size += fmt.Sprintf(" from index %d (wrapping)", p.Offset)
			}
		}
		fmt.Printf("  %-6s %-8s %s\n", p.Name, role, size)
	}
	fmt.Println("timeline:")
	for _, e := range s.Events {
		line := fmt.Sprintf("  t=%-8v %-18s", e.At, e.Kind)
		if e.Peer != "" {
			line += " peer=" + e.Peer
		}
		if len(e.Peers) > 0 {
			line += " peers=" + strings.Join(e.Peers, "+")
		}
		if e.Hold > 0 {
			line += fmt.Sprintf(" hold=%v", e.Hold)
		}
		if e.Fraction > 0 {
			line += fmt.Sprintf(" fraction=%g", e.Fraction)
		}
		if e.Rate > 0 {
			line += fmt.Sprintf(" rate=%d/s", e.Rate)
		}
		if e.Graceful {
			line += " graceful"
		}
		if e.Detection != "" {
			line += fmt.Sprintf(" detection=%s", e.Detection)
		}
		fmt.Println(line)
	}
	if len(s.PrefixSweep) > 0 {
		fmt.Printf("prefix sweep: %v\n", s.PrefixSweep)
	}
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	mode := fs.String("mode", "both", "both|standalone|supercharged")
	prefixes := fs.Int("prefixes", 0, "table size (0 = spec default or sweep)")
	flows := fs.Int("flows", 0, "probed flows per run (0 = default 100)")
	seed := fs.Int64("seed", 1, "RNG seed")
	table := fs.String("table", "", "MRT dump to replay instead of the synthetic feed")
	format := fs.String("format", "json", "json|csv|table")
	traceOut := fs.String("trace", "", "write the runs' virtual-time spans as Chrome trace-event JSON (Perfetto-openable)")
	traceJSONL := fs.String("trace-jsonl", "", "write the runs' virtual-time spans as JSONL")
	quiet := fs.Bool("q", false, "suppress progress output")
	// Accept both `run <name> --flags` and `run --flags <name>`.
	var name string
	rest := args
	if len(rest) > 0 && len(rest[0]) > 0 && rest[0][0] != '-' {
		name, rest = rest[0], rest[1:]
	}
	if err := fs.Parse(rest); err != nil {
		os.Exit(2)
	}
	if name == "" && fs.NArg() > 0 {
		name = fs.Arg(0)
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			os.Exit(2)
		}
	}
	if name == "" {
		fmt.Fprintln(os.Stderr, "usage: scenario run <name> [flags]")
		os.Exit(2)
	}

	runner := scenario.Runner{Prefixes: *prefixes, Flows: *flows, Seed: *seed, Table: *table}
	switch *mode {
	case "both", "":
	case "standalone":
		runner.Modes = []sim.Mode{sim.Standalone}
	case "supercharged":
		runner.Modes = []sim.Mode{sim.Supercharged}
	default:
		fmt.Fprintf(os.Stderr, "scenario: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	if !*quiet {
		runner.Progress = os.Stderr
	}
	if *traceOut != "" || *traceJSONL != "" {
		runner.Trace = telemetry.NewTrace()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	t0 := time.Now()
	rep, err := runner.RunNamed(ctx, name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err) // package errors already carry the scenario: prefix
		os.Exit(1)
	}
	if tr := runner.Trace; tr != nil {
		exports := []struct {
			path  string
			write func(io.Writer) error
		}{
			{*traceJSONL, tr.WriteJSONL},
			{*traceOut, tr.WriteChromeTrace},
		}
		for _, e := range exports {
			if e.path == "" {
				continue
			}
			if err := writeTraceFile(e.path, e.write); err != nil {
				fmt.Fprintf(os.Stderr, "scenario: trace: %v\n", err)
				os.Exit(1)
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "scenario: wrote %s (%d spans)\n", e.path, tr.Len())
			}
		}
	}

	switch *format {
	case "json":
		out, err := rep.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(out, '\n'))
	case "csv":
		if err := rep.WriteCSV(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
			os.Exit(1)
		}
	case "table":
		fmt.Print(rep.RenderTable())
	default:
		fmt.Fprintf(os.Stderr, "scenario: unknown format %q\n", *format)
		os.Exit(2)
	}
	if !*quiet {
		if hl := rep.Headline(); hl != "" && len(rep.Runs) > 1 {
			fmt.Fprintf(os.Stderr, "\nworst-case data-plane convergence by table size:\n%s", hl)
		}
		fmt.Fprintf(os.Stderr, "(%d runs in %v)\n", len(rep.Runs), time.Since(t0).Round(time.Millisecond))
	}
}

func cmdSweep(args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	mode := fs.String("mode", "both", "both|standalone|supercharged")
	sizes := fs.String("sizes", "", "comma-separated table sizes (default per-scenario)")
	tier := fs.String("tier", "", "named size tier (s|m|l|xl) instead of --sizes")
	seeds := fs.String("seeds", "", "seed count, or comma-separated explicit seeds (default 1)")
	flows := fs.Int("flows", 0, "probed flows per run (0 = default 100)")
	budget := fs.Duration("budget", 0, "wall-clock budget for the sweep (0 = none)")
	listen := fs.String("listen", "", "serve /metrics, /runs and /debug/pprof on this address during the sweep")
	linger := fs.Duration("linger", 0, "keep the --listen endpoint up this long after the sweep (^C stops early)")
	traceDir := fs.String("trace-dir", "", "write per-executed-unit virtual-time traces (.trace.jsonl + .trace.json) here")
	asJSON := fs.Bool("json", false, "emit the full aggregate as JSON")
	asMD := fs.Bool("md", false, "emit the EXPERIMENTS.md rendering")
	quiet := fs.Bool("q", false, "suppress per-run progress output")
	// Accept names and flags in any interleaving (`sweep a --workers 2 b
	// --json`): peel leading non-flag args as names, parse flags, repeat
	// on whatever the flag parser left over. A bare "-" counts as a name
	// (flag.Parse would hand it back untouched and loop forever); with
	// that, each pass consumes at least one argument, so this terminates.
	var names []string
	rest := args
	for len(rest) > 0 {
		for len(rest) > 0 && (rest[0] == "-" || len(rest[0]) == 0 || rest[0][0] != '-') {
			names, rest = append(names, rest[0]), rest[1:]
		}
		if len(rest) == 0 {
			break
		}
		if err := fs.Parse(rest); err != nil {
			os.Exit(2)
		}
		rest = fs.Args()
	}

	spec := sweep.Spec{Scenarios: names, Flows: *flows}
	switch *mode {
	case "both", "":
	case "standalone":
		spec.Modes = []sim.Mode{sim.Standalone}
	case "supercharged":
		spec.Modes = []sim.Mode{sim.Supercharged}
	default:
		fmt.Fprintf(os.Stderr, "scenario: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	var err error
	if spec.Sizes, err = parseIntList(*sizes); err != nil {
		fmt.Fprintf(os.Stderr, "scenario: --sizes: %v\n", err)
		os.Exit(2)
	}
	spec.Tier = *tier
	if spec.Seeds, err = sweep.ParseSeeds(*seeds); err != nil {
		fmt.Fprintf(os.Stderr, "scenario: --seeds: %v\n", err)
		os.Exit(2)
	}

	opts := sweep.Options{Workers: *workers, Budget: *budget, TraceDir: *traceDir}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	var srv *telemetry.Server
	if *listen != "" {
		opts.Telemetry = telemetry.NewRegistry()
		opts.Runs = telemetry.NewRunTracker(0)
		srv, err = telemetry.Serve(*listen, opts.Telemetry, opts.Runs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenario: --listen: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "scenario sweep: serving /metrics, /runs, /debug/pprof on http://%s\n", srv.Addr)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	agg, err := sweep.Run(ctx, spec, opts)
	if err != nil {
		// A cancelled or over-budget sweep still rendered a partial
		// aggregate; report the interruption and fall through to print it.
		fmt.Fprintln(os.Stderr, err)
		if agg == nil {
			os.Exit(1)
		}
	}
	switch {
	case *asJSON:
		out, err := agg.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(out, '\n'))
	case *asMD:
		os.Stdout.Write(agg.Markdown(sweep.MarkdownOptions{}))
	default:
		fmt.Print(agg.RenderTable())
	}
	if srv != nil && *linger > 0 {
		fmt.Fprintf(os.Stderr, "scenario sweep: endpoint up for %v more on http://%s (^C to stop)\n", *linger, srv.Addr)
		select {
		case <-time.After(*linger):
		case <-ctx.Done():
		}
	}
	if agg.Failed > 0 {
		os.Exit(1)
	}
}

// writeTraceFile creates path and streams one trace export into it.
func writeTraceFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdFuzz(args []string) {
	fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "grammar seed (same seed, same session)")
	runs := fs.Int("runs", 20, "timelines to generate")
	prefixes := fs.Int("prefixes", 0, "table size per run (0 = 2000)")
	flows := fs.Int("flows", 0, "probed flows per run (0 = 50)")
	maxPeers := fs.Int("max-peers", 0, "max generated peers (0 = 5)")
	maxEvents := fs.Int("max-events", 0, "max generated events (0 = 6)")
	slack := fs.Float64("slack", 0, "allowed supercharged/standalone ratio (0 = 1.5)")
	axes := fs.String("axes", "", "comma-separated grammar axes to enable (empty = all; see usage)")
	noShrink := fs.Bool("no-shrink", false, "report findings unminimized")
	budget := fs.Duration("budget", 0, "wall-clock budget (0 = none)")
	asJSON := fs.Bool("json", false, "emit the session result as JSON")
	quiet := fs.Bool("q", false, "suppress the per-run timeline log")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "scenario fuzz: unexpected arguments %v\n", fs.Args())
		os.Exit(2)
	}

	opts := scenario.FuzzOptions{
		Seed: *seed, Runs: *runs, Prefixes: *prefixes, Flows: *flows,
		MaxPeers: *maxPeers, MaxEvents: *maxEvents, Slack: *slack,
		NoShrink: *noShrink,
	}
	if *axes != "" {
		for _, a := range strings.Split(*axes, ",") {
			if a = strings.TrimSpace(a); a != "" {
				opts.Axes = append(opts.Axes, a)
			}
		}
		if err := scenario.ValidateAxes(opts.Axes); err != nil {
			fmt.Fprintf(os.Stderr, "scenario fuzz: %v\n", err)
			os.Exit(2)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *budget)
		defer cancel()
	}

	// The per-run log goes to stdout: it contains no wall-clock or host
	// data, so `scenario fuzz -seed N` reproduces it byte-for-byte — the
	// log IS the session transcript.
	var progress io.Writer = os.Stdout
	if *quiet || *asJSON {
		progress = nil
		if !*quiet {
			progress = os.Stderr
		}
	}
	res, err := scenario.Fuzz(ctx, opts, progress)
	if err != nil {
		// A budget expiry or ^C ends the session early but is not itself a
		// failure: report the interruption and fall through to the partial
		// session's findings (the exit code stays "findings found?").
		fmt.Fprintf(os.Stderr, "scenario fuzz: %v\n", err)
		if res == nil || !(errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
			os.Exit(1)
		}
	}
	if *asJSON {
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenario fuzz: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(out, '\n'))
	}
	if n := len(res.Findings); n > 0 {
		fmt.Fprintf(os.Stderr, "scenario fuzz: %d finding(s) in %d runs (seed %d)\n",
			n, res.Runs, res.Seed)
		if !*asJSON {
			for _, f := range res.Findings {
				repro, err := json.Marshal(minimalFinding(f))
				if err != nil {
					fmt.Fprintf(os.Stderr, "scenario fuzz: %v\n", err)
					os.Exit(1)
				}
				fmt.Fprintf(os.Stderr, "  run %d: %s\n  spec: %s\n", f.Index, f.Reason, repro)
			}
		}
		os.Exit(1)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "scenario fuzz: no findings in %d runs (seed %d)\n", res.Runs, res.Seed)
	}
}

// minimalFinding picks the shrunk spec when available for the repro line.
func minimalFinding(f scenario.FuzzFinding) scenario.Spec {
	if f.Shrunk != nil {
		return *f.Shrunk
	}
	return f.Spec
}

func cmdDocs(args []string) {
	fs := flag.NewFlagSet("docs", flag.ExitOnError)
	out := fs.String("o", "docs/scenarios.md", "docs file to update")
	check := fs.Bool("check", false, "verify instead of write; exit 1 and print a diff on drift")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "scenario docs: unexpected arguments %v\n", fs.Args())
		os.Exit(2)
	}
	committed, err := os.ReadFile(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenario docs: %v\n", err)
		os.Exit(1)
	}
	spliced, err := scenario.SpliceDocs(committed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenario docs: %v\n", err)
		os.Exit(1)
	}
	if *check {
		if !bytes.Equal(committed, spliced) {
			fmt.Fprintf(os.Stderr,
				"scenario docs: %s is stale: regenerate with `go run ./cmd/scenario docs` and commit the result\n", *out)
			fmt.Fprint(os.Stderr, textdiff.Unified(
				*out+" (committed)", *out+" (regenerated)", committed, spliced, 3))
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "scenario docs: %s is up to date\n", *out)
		return
	}
	if err := os.WriteFile(*out, spliced, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "scenario docs: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "scenario docs: wrote %s (%d builtins)\n", *out, len(scenario.List()))
}

func parseIntList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

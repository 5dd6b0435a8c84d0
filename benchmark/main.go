// Command benchmark is the repository's benchmark of record: four workloads
// (serve-fulltable, serve-churn, core-supercharge, lab-fig5), their
// end-to-end metrics, the correctness checks behind them and - in a separate
// traced run - the per-layer budget. BENCHMARK.json at the repository root
// declares the names; README.md in this directory explains them.
//
//	go run ./benchmark -seed 1                       # all workloads, end to end
//	go run ./benchmark -seed 1 -trace out.json       # ... then traced, per layer, with a Perfetto trace
//	go run ./benchmark -workload serve-churn -seed 3 -seconds 20 -trace 0
//	go run ./benchmark compare A.jsonl B.jsonl
//	go run ./benchmark selfcheck
//
// Everything runs in this process: no socket is opened and no link crossed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// workload is one named set of inputs. setup runs before the first timed
// operation (repeatedly, for a steady setup_s; a state it returns may have a
// Close method), measure is the timed part, isolated replays the inputs
// through single layers in a traced run.
type workload struct {
	name     string
	why      string
	setup    func(e *env) (any, error)
	measure  func(e *env, state any) *result
	isolated func(e *env, state any, res *result)
}

var workloads = []workload{
	{wlFulltable, "fresh inserts and a bulk failover: RIB insert, shard split, batching and FIBSink.Apply on load, RemovePeerEmit and one table-sized burst on failover",
		fulltableSetup, fulltableMeasure, fulltableIsolated},
	{wlChurn, "the same layers under in-place edits, withdraws and duplicates: latency at two open-loop rates, then unpaced throughput",
		churnSetup, churnMeasure, churnIsolated},
	{wlCore, "the paper's algorithm end to end: wire codec, backup groups and VNHs, the engine's rule rewrites and the OpenFlow codec; the daemon does nothing here",
		coreSetup, coreMeasure, nil},
	{wlLab, "the researcher's end to end: wall-clock to regenerate the paper's figure through scenario.Runner; the only workload running sim, clock.Virtual, FlatFIB/LPM and MRT",
		labSetup, labMeasure, labIsolated},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// header is what a result must say about where it came from.
type header struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Transport  string  `json:"transport"`
}

func newHeader(seed int64, seconds float64) header {
	h := header{
		Seed: seed, Seconds: seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Go: runtime.Version(), Commit: "unknown",
		Transport: "in-process, no link crossed",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// record is one workload run as written to an -out file (one JSON object per
// line) and read back by compare.
type record struct {
	header
	Workload string           `json:"workload"`
	Traced   bool             `json:"traced"`
	Ops      int              `json:"ops"`
	Failed   int              `json:"failed"`
	Metrics  map[string]value `json:"metrics"`
}

// finalLine is the last line of standard output, the form the benchmark's
// driver reads.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]finalMetric `json:"metrics"`
}

type finalMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	// At most four runnable goroutines exist at once (two sources, two
	// sinks), so more processors would only add scheduler noise.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareCmd(args[1:], stdout, stderr)
		case "selfcheck":
			return selfcheckCmd(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the generated inputs (table, churn mix, probe flows)")
	seconds := fs.Float64("seconds", 20, "measuring time per workload; scales cycle and repetition counts, never sizes or rates")
	trace := fs.String("trace", "0", "0: end-to-end run; 1: traced run printing the per-layer budget; a path: with -workload all, run end to end, then traced, and write the spans there as a Chrome trace")
	out := fs.String("out", "", "append one JSON line per workload run to this file (input of compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %v or non-positive -seconds\n", fs.Args())
		return 2
	}
	// The harness imports the program under test, so a checkout without it
	// does not build; this guards the remaining case of a stray binary.
	if _, err := os.Stat(risSample()); err != nil {
		fmt.Fprintf(stderr, "benchmark: not inside the repository: %v\n", err)
		return 1
	}

	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	hdr := newHeader(*seed, *seconds)
	hj, _ := json.Marshal(hdr)
	fmt.Fprintf(stdout, "benchmark %s\n", hj)

	tracePath := ""
	passes := []bool{false}
	switch *trace {
	case "0":
	case "1":
		passes = []bool{true}
	default:
		tracePath = *trace
		passes = []bool{false, true}
	}

	var runs []suiteRun
	for _, traced := range passes {
		more, err := runSuite(selected, hdr, traced, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		runs = append(runs, more...)
	}
	var records []record
	failed := false
	for _, r := range runs {
		records = append(records, r.rec)
		failed = failed || r.res.Failed > 0
	}
	if tracePath != "" {
		if err := writeChrome(tracePath, runs); err != nil {
			fmt.Fprintf(stderr, "benchmark: write trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace written to %s (open it at https://ui.perfetto.dev)\n", tracePath)
	}
	if *out != "" {
		if err := appendRecords(*out, records); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	// The machine-readable last line describes the last workload run.
	last := runs[len(runs)-1]
	if err := json.NewEncoder(stdout).Encode(finalOf(last.res, last.rec.Traced)); err != nil {
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

// suiteRun is one workload run of a suite: the result, its -out record and,
// for a traced run, the spans.
type suiteRun struct {
	res *result
	rec record
	tr  *tracer
}

// runSuite runs the workloads once each at full scale and prints the results.
func runSuite(selected []workload, hdr header, traced bool, stdout io.Writer) ([]suiteRun, error) {
	var runs []suiteRun
	for _, w := range selected {
		e := &env{sc: fullScale, seed: hdr.Seed, seconds: hdr.Seconds, log: stdout}
		res, err := runWorkload(e, w, traced)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		printResult(stdout, res, traced)
		rec := record{header: hdr, Workload: w.name, Traced: traced, Ops: res.Ops, Failed: res.Failed, Metrics: res.Named}
		if traced {
			rec.Metrics = map[string]value{}
			for k, v := range res.Layer {
				rec.Metrics[k] = value{V: v}
			}
		}
		runs = append(runs, suiteRun{res, rec, e.tr})
	}
	return runs, nil
}

// runWorkload sets the workload up, measures it and, in a traced run, adds
// the untraced reference pass and the isolated replays.
func runWorkload(e *env, w workload, traced bool) (*result, error) {
	mode := "end to end"
	if traced {
		mode = "traced"
		e.tr = newTracer()
		e.tr.off.Store(true)
	}
	e.logf("\n== %s (%s, %.0f s) ==", w.name, mode, e.seconds)
	reps := e.sc.setupReps
	if traced {
		reps = 1
	}
	// A cheap set-up is repeated more often (up to nine times within 1.5 s):
	// a tenth of a second cannot be timed steadily in three tries.
	var state any
	var setups []float64
	began := time.Now()
	for i := 0; i < reps || (!traced && i < 9 && time.Since(began) < 1500*time.Millisecond); i++ {
		closeState(state)
		runtime.GC()
		t0 := time.Now()
		var err error
		if state, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { closeState(state) }()

	if !traced {
		res := w.measure(e, state)
		res.Named["setup_s"] = medianOf(setups)
		return res, nil
	}
	// End-to-end numbers are never taken from a traced run. The reference
	// pass runs the same code with recording suspended, so the two passes'
	// throughputs give the tracing overhead.
	total, minReps := e.seconds, e.sc.minReps
	e.seconds, e.sc.minReps = 0.25*total, 1
	ref := w.measure(e, state)
	e.tr.off.Store(false)
	e.seconds, e.sc.minReps = 0.65*total, minReps
	res := w.measure(e, state)
	e.seconds = total
	res.Ops += ref.Ops
	res.Failed += ref.Failed
	res.Fails = append(res.Fails, ref.Fails...)
	res.Named["setup_s"] = medianOf(setups)
	if a, b := ref.slotValues()[slotRoutes].V, res.slotValues()[slotRoutes].V; a > 0 && b > 0 {
		res.Layer["trace.overhead_ratio"] = a / b
	}
	if w.isolated != nil {
		w.isolated(e, state, res)
	}
	return res, nil
}

func closeState(state any) {
	if c, ok := state.(interface{ Close() error }); ok {
		c.Close()
	}
}

// printResult prints every metric of the run by name with its unit.
func printResult(w io.Writer, res *result, traced bool) {
	fmt.Fprintf(w, "%s: ops %d, failed %d, wall %.1f s\n", res.Workload, res.Ops, res.Failed, res.Wall.Seconds())
	for _, f := range res.Fails {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", f)
	}
	if !traced {
		for _, d := range namedFor(res.Workload) {
			v, ok := res.Named[d.Name]
			if !ok {
				continue
			}
			slot := ""
			if d.Slot != "" && d.Slot != d.Name {
				slot = " = " + d.Slot
			}
			spread := ""
			switch {
			case v.N > 1 && v.IQR > 0:
				spread = fmt.Sprintf("  (%s of %d, IQR %.4g)", v.stat(), v.N, v.IQR)
			case v.N > 1 && v.Stat != "":
				spread = fmt.Sprintf("  (%s of %d)", v.Stat, v.N)
			case v.N > 1:
				spread = fmt.Sprintf("  (n %d)", v.N)
			}
			fmt.Fprintf(w, "  %-24s %14.4f %-9s%s%s\n", d.Name, v.V, d.Unit, slot, spread)
		}
		return
	}
	for _, d := range layers {
		if v, ok := res.Layer[d.Name]; ok {
			fmt.Fprintf(w, "  %-42s %16.4f %-9s -> %s\n", d.Name, v, d.Unit, d.Moves)
		}
	}
}

// finalOf renders a run the way the driver reads it: every end-to-end metric
// of BENCHMARK.json for an untraced run, every per-layer metric for a traced
// one (0 where the workload does not exercise the layer).
func finalOf(res *result, traced bool) finalLine {
	fl := finalLine{Correct: res.Failed == 0, Attempted: max(res.Ops, 1), Failed: res.Failed, Metrics: map[string]finalMetric{}}
	if traced {
		for _, d := range layers {
			fl.Metrics[d.Name] = finalMetric{Value: res.Layer[d.Name], Unit: d.Unit}
		}
		return fl
	}
	got := res.slotValues()
	for _, s := range slots {
		fl.Metrics[s.Name] = finalMetric{Value: got[s.Name].V, Unit: s.Unit}
	}
	return fl
}

func appendRecords(path string, records []record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range records {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

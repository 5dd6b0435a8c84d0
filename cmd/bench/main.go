// Command bench is the CI performance gate: the sweep mode (default)
// runs the default sweep (every registered scenario, both router modes)
// at multiple seeds, snapshots per-scenario wall-clock cost and the
// median convergence time of every (scenario, size, event, mode) cell,
// and — given a baseline — fails when anything regressed beyond
// tolerance:
//
//	bench -o BENCH_sweep.json                    # write/refresh the baseline
//	bench -o out.json -baseline BENCH_sweep.json # CI: snapshot + gate
//	bench -seeds 5 -store .sweep-cache           # defaults, spelled out
//
// The micro mode runs the hot-path micro-benchmark suite
// (internal/microbench: indexed vs full-scan RemovePeer at the 1M-prefix
// shape, RIB update churn, the processor's zero-alloc churn filter,
// group allocation) and gates BENCH_micro.json the same way:
//
//	bench micro -o BENCH_micro.json                     # refresh the baseline
//	bench micro -o out.json -baseline BENCH_micro.json  # CI: snapshot + gate
//	bench micro -filter remove-peer -cpuprofile rp.prof # profile one workload
//
// Snapshots are written BEFORE the gate runs, so CI can upload them as
// artifacts even on a failing push. Convergence medians and allocation
// counts are deterministic; wall-clock and ns/op numbers are host
// telemetry and get a fractional tolerance plus an absolute grace floor.
// Accepting a slower-but-correct change is a deliberate act: regenerate
// the baseline (`go run ./cmd/bench -store "" -o BENCH_sweep.json`, or
// `go run ./cmd/bench micro -o BENCH_micro.json`) and commit it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"time"

	"supercharged/internal/microbench"
	"supercharged/internal/results"
	"supercharged/internal/sweep"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "micro" {
		benchMicro(os.Args[2:])
		return
	}
	benchSweep()
}

// benchMicro is the `bench micro` mode: run the hot-path suite, write
// the snapshot, optionally gate against a committed baseline.
func benchMicro(args []string) {
	fs := flag.NewFlagSet("micro", flag.ExitOnError)
	out := fs.String("o", "BENCH_micro.json", "output snapshot path")
	baseline := fs.String("baseline", "", "baseline snapshot to gate against (empty = no gate)")
	tolerance := fs.Float64("tolerance", 0.20, "max fractional ns/op regression (plus absolute grace floor)")
	filter := fs.String("filter", "", "run only benchmarks whose name contains the substring")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the suite run (pprof)")
	quiet := fs.Bool("q", false, "suppress per-benchmark progress output")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench micro: unexpected arguments %v\n", fs.Args())
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench micro: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bench micro: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	opts := microbench.Options{Filter: *filter}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	t0 := time.Now()
	snap, err := microbench.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench micro: %v\n", err)
		os.Exit(1)
	}
	data, err := snap.JSON()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench micro: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench micro: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench micro: wrote %s (%d benchmarks, %v wall)\n",
		*out, len(snap.Benchmarks), time.Since(t0).Round(time.Millisecond))

	if *baseline == "" {
		return
	}
	baseData, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench micro: -baseline: %v\n", err)
		os.Exit(1)
	}
	base, err := microbench.Parse(baseData)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench micro: -baseline: %v\n", err)
		os.Exit(1)
	}
	violations := microbench.Compare(base, snap, *tolerance)
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "bench micro: %d regression(s) against %s:\n", len(violations), *baseline)
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "  - %s\n", v)
		}
		fmt.Fprintf(os.Stderr, "bench micro: if intentional, refresh the baseline: go run ./cmd/bench micro -o %s && git add %s\n",
			*baseline, *baseline)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench micro: no regressions against %s (tolerance %.0f%% + grace floor)\n",
		*baseline, *tolerance*100)
}

func benchSweep() {
	out := flag.String("o", "BENCH_sweep.json", "output snapshot path")
	baseline := flag.String("baseline", "", "baseline snapshot to gate against (empty = no gate)")
	seeds := flag.String("seeds", "5", "seed count, or comma-separated explicit seeds")
	tolerance := flag.Float64("tolerance", 0.20, "max fractional regression of any median convergence time")
	wallTol := flag.Float64("wall-tolerance", 0.20, "max fractional regression of sweep wall-clock")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	storeDir := flag.String("store", ".sweep-cache", "result-store directory for incremental re-sweeps (empty = disabled)")
	budget := flag.Duration("budget", 0, "wall-clock budget for the sweep (0 = none)")
	quiet := flag.Bool("q", false, "suppress per-run progress output")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}

	seedList, err := sweep.ParseSeeds(*seeds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -seeds: %v\n", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := sweep.Options{Workers: *workers, Budget: *budget}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	if *storeDir != "" {
		store, err := results.Open(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		opts.Store = store
	}
	walls := make(map[string]float64)
	cached := 0
	opts.OnResult = func(res sweep.UnitResult) {
		walls[res.Unit.Scenario] += float64(res.Wall) / float64(time.Millisecond)
		if res.Cached {
			cached++
		}
	}

	t0 := time.Now()
	agg, err := sweep.Run(ctx, sweep.Spec{Seeds: seedList}, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if agg.Failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d of %d runs failed; refusing to snapshot a broken sweep\n",
			agg.Failed, agg.Units)
		os.Exit(1)
	}
	bench := sweep.NewBench(agg, walls, cached, float64(time.Since(t0))/float64(time.Millisecond))

	data, err := bench.JSON()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s (%d units, %d cached, %.0f ms wall)\n",
		*out, bench.Units, bench.CachedUnits, bench.TotalWallMS)

	if *baseline == "" {
		return
	}
	baseData, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -baseline: %v\n", err)
		os.Exit(1)
	}
	base, err := sweep.ParseBench(baseData)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -baseline: %v\n", err)
		os.Exit(1)
	}
	violations := sweep.CompareBench(base, bench, *tolerance, *wallTol)
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d regression(s) against %s:\n", len(violations), *baseline)
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "  - %s\n", v)
		}
		// The refresh command disables the store: a baseline snapshotted
		// off a warm cache would commit near-zero wall numbers.
		fmt.Fprintf(os.Stderr, "bench: if intentional, refresh the baseline: go run ./cmd/bench -store \"\" -o %s && git add %s\n",
			*baseline, *baseline)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: no regressions against %s (tolerance %.0f%% conv / %.0f%% wall)\n",
		*baseline, *tolerance*100, *wallTol*100)
}

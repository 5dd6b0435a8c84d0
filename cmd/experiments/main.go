// Command experiments regenerates EXPERIMENTS.md — the repo's committed,
// self-reproducing record of its own paper-reproduction numbers — from a
// real sweep of every registered scenario in both router modes at
// multiple seeds:
//
//	experiments                    # rewrite EXPERIMENTS.md in place
//	experiments -o report.md       # write elsewhere
//	experiments -check             # regenerate, diff, fail on drift (CI)
//	experiments -seeds 5           # seeds 1..5 (a list like 2,7 also works)
//	experiments -workers 8 -q      # parallelism / quiet
//
// The default sweep (full registry, both modes, per-scenario table
// sizes, seeds 1..3) is deterministic: the same seeds yield
// byte-identical output at any worker count, which is what lets CI
// regenerate the file and fail the build when the committed copy drifts
// from the code. On drift, -check prints the unified diff of the stale
// sections so the CI log says what moved, not just that something did.
// Every run executes every unit: nothing is cached between invocations.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"supercharged/internal/sweep"
	"supercharged/internal/textdiff"
)

// baseCommand is the reproduction line embedded in the generated file;
// it must regenerate the committed EXPERIMENTS.md byte-for-byte, so any
// non-default flag that shapes the output is appended to it.
const baseCommand = "go run ./cmd/experiments"

// defaultSeeds is the committed file's seed axis: three seeds keep the
// spread columns honest (median [min–max] is meaningful) while the
// docs-freshness job stays cheap.
const defaultSeeds = "1,2,3"

func reproCommand(out, seeds string) string {
	cmd := baseCommand
	if seeds != defaultSeeds {
		cmd += " -seeds " + seeds
	}
	if out != "EXPERIMENTS.md" {
		cmd += " -o " + out
	}
	return cmd
}

func main() {
	out := flag.String("o", "EXPERIMENTS.md", "output path")
	check := flag.Bool("check", false, "regenerate and diff against -o instead of writing; exit 1 on drift")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	seeds := flag.String("seeds", defaultSeeds, "seed count, or comma-separated explicit seeds")
	quiet := flag.Bool("q", false, "suppress per-run progress output")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "experiments: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}

	seedList, err := sweep.ParseSeeds(*seeds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: -seeds: %v\n", err)
		os.Exit(2)
	}
	spec := sweep.Spec{Seeds: seedList}
	opts := sweep.Options{Workers: *workers}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	command := reproCommand(*out, *seeds)
	agg, err := sweep.Run(ctx, spec, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	if agg.Failed > 0 {
		// A partially failed sweep still renders (failures are reported in
		// the document), but is not a publishable record: refuse to
		// overwrite the committed file with it.
		fmt.Fprintf(os.Stderr, "experiments: %d of %d runs failed; not writing %s\n",
			agg.Failed, agg.Units, *out)
		os.Exit(1)
	}
	doc := agg.Markdown(sweep.MarkdownOptions{Command: command})

	if *check {
		committed, err := os.ReadFile(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -check: %v (regenerate with `%s`)\n", err, command)
			os.Exit(1)
		}
		if !bytes.Equal(committed, doc) {
			fmt.Fprintf(os.Stderr,
				"experiments: %s is stale: regenerate with `%s` and commit the result\n",
				*out, command)
			// The diff is the actionable part of a CI failure: show which
			// sections drifted instead of leaving the log at "exit 1".
			fmt.Fprint(os.Stderr, textdiff.Unified(
				*out+" (committed)", *out+" (regenerated)", committed, doc, 3))
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "experiments: %s is up to date\n", *out)
		return
	}
	if err := os.WriteFile(*out, doc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "experiments: wrote %s (%d runs, %d scenarios)\n",
		*out, agg.Units, len(agg.Scenarios))
}

package scenario

import (
	"context"
	"fmt"
	"io"

	"supercharged/internal/clock"
	"supercharged/internal/feed"
	"supercharged/internal/sim"
	"supercharged/internal/telemetry"
)

// DefaultPrefixes is the table size used when neither the spec nor the
// caller picks one.
const DefaultPrefixes = 5000

// Runner is the one scenario execution front door: every knob of an
// execution lives here, and every entrypoint (Run, RunNamed, RunUnit)
// funnels through it. The zero value runs the default experiment:
// standalone vs supercharged on a fresh virtual clock, seed 1,
// spec-chosen sizes, no telemetry.
type Runner struct {
	// Modes lists the router modes to run (default: standalone then
	// supercharged, so reports always compare the two).
	Modes []sim.Mode
	// Prefixes overrides the table size and disables the spec's sweep.
	Prefixes int
	// Flows overrides the probed-flow count.
	Flows int
	// Seed drives every random choice (default 1); the same seed yields
	// an identical report.
	Seed int64
	// Table overrides the spec's MRT dump path (replay a real RIB
	// through any scenario without editing it). Empty keeps the spec's.
	Table string
	// Progress, if set, receives one line per run.
	Progress io.Writer
	// Trace, if set, records every run's pipeline spans in source time.
	Trace *telemetry.Trace
	// Telemetry, if set, receives every run's metric series.
	Telemetry *telemetry.Registry
	// Source, if set, supplies the time source for each run. It is a
	// factory, not a value: every run owns its lab and must own its
	// source, so sharing one Source across runs would leak state between
	// them. Nil runs each lab on a fresh virtual clock at the Unix epoch
	// — the deterministic default whose reports are byte-reproducible.
	Source func() clock.Source
}

// modes returns the mode list with the compare-both default applied.
func (r Runner) modes() []sim.Mode {
	if len(r.Modes) > 0 {
		return r.Modes
	}
	return []sim.Mode{sim.Standalone, sim.Supercharged}
}

// Run executes spec in every requested mode (and, for sweeping specs, at
// every table size) and assembles the per-event convergence report. The
// context cancels the execution between simulator events.
func (r Runner) Run(ctx context.Context, spec Spec) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	seed := r.Seed
	if seed == 0 {
		seed = 1
	}
	if r.Table != "" {
		spec.Table = r.Table
	}
	// Load the replay table once for the whole matrix, not per run.
	var table *feed.Table
	if spec.Table != "" {
		var err error
		if table, err = LoadTable(spec.Table); err != nil {
			return nil, err
		}
	}
	sizes := spec.Sizes(r.Prefixes)

	rep := &Report{Scenario: spec.Name, Description: spec.Description, Seed: seed}
	for _, mode := range r.modes() {
		for _, n := range sizes {
			if r.Progress != nil {
				fmt.Fprintf(r.Progress, "scenario %s: %s @ %d prefixes...\n", spec.Name, mode, n)
			}
			run, err := r.runCompiled(ctx, spec, mode, n, r.Flows, seed, table)
			if err != nil {
				return nil, err
			}
			rep.Runs = append(rep.Runs, run)
		}
	}
	return rep, nil
}

// RunNamed looks up and runs a registered scenario.
func (r Runner) RunNamed(ctx context.Context, name string) (*Report, error) {
	spec, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q (have: %v)", name, Names())
	}
	return r.Run(ctx, spec)
}

// RunUnit executes spec exactly once — one mode, one table size — and
// returns that single run's report. It is the unit of work a parallel
// sweep distributes across workers: per-(mode, size) runs are fully
// independent (each builds its own lab and time source), so RunUnit is
// safe to call concurrently. The positional arguments vary per unit and
// therefore stay explicit rather than living on the Runner; prefixes,
// flows and seed of zero take the usual defaults. The Runner supplies
// everything a whole sweep shares: table override, instrumentation,
// time-source factory.
func (r Runner) RunUnit(ctx context.Context, spec Spec, mode sim.Mode, prefixes, flows int, seed int64) (RunReport, error) {
	if err := spec.Validate(); err != nil {
		return RunReport{}, err
	}
	if prefixes <= 0 {
		prefixes = spec.Sizes(0)[0]
	}
	if flows == 0 {
		flows = r.Flows
	}
	if seed == 0 {
		seed = r.Seed
	}
	if seed == 0 {
		seed = 1
	}
	if r.Table != "" {
		spec.Table = r.Table
	}
	var table *feed.Table
	if spec.Table != "" {
		var err error
		if table, err = LoadTable(spec.Table); err != nil {
			return RunReport{}, err
		}
	}
	return r.runCompiled(ctx, spec, mode, prefixes, flows, seed, table)
}

// runCompiled compiles and executes one (mode, size) cell with the
// runner's instrumentation and time source attached.
func (r Runner) runCompiled(ctx context.Context, spec Spec, mode sim.Mode, prefixes, flows int, seed int64, table *feed.Table) (RunReport, error) {
	cfg := spec.compile(mode, prefixes, flows, seed)
	cfg.Trace = r.Trace
	cfg.Telemetry = r.Telemetry
	cfg.Table = table
	if r.Source != nil {
		cfg.Source = r.Source()
	}
	res, err := sim.RunTimeline(ctx, cfg)
	if err != nil {
		return RunReport{}, fmt.Errorf("scenario %q (%s, %d prefixes): %w", spec.Name, mode, prefixes, err)
	}
	return buildRunReport(res), nil
}

// Sizes returns the table sizes one execution of the spec covers:
// override when positive (disabling the spec's sweep), else the spec's
// PrefixSweep, else its single default size. This is the size axis a
// parallel sweep (internal/sweep) expands into independent run units.
func (s Spec) Sizes(override int) []int {
	if override > 0 {
		return []int{override}
	}
	if len(s.PrefixSweep) > 0 {
		return append([]int(nil), s.PrefixSweep...)
	}
	n := s.Prefixes
	if n == 0 {
		n = DefaultPrefixes
	}
	return []int{n}
}

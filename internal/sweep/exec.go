package sweep

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"supercharged/internal/scenario"
	"supercharged/internal/telemetry"
)

// Options parameterizes a sweep execution.
type Options struct {
	// Workers bounds the worker pool (<= 0: GOMAXPROCS). Each unit is an
	// independent virtual-clock lab, so the worker count affects only
	// wall-clock time, never results.
	Workers int
	// Progress, if set, receives one line per completed unit (with its
	// host wall-clock cost) plus a sweep summary line.
	Progress io.Writer
	// Budget caps the sweep's host wall-clock time (0 = none): when it
	// expires, in-flight simulations stop at their next event and every
	// remaining unit fails with the deadline error.
	Budget time.Duration
	// OnResult, if set, observes every unit result from the collection
	// goroutine (serially, in completion order) — wall-clock accounting
	// without disturbing the aggregate.
	OnResult func(UnitResult)
	// Runner replaces the scenario-backed unit runner; nil uses
	// scenario.Runner.RunUnit. Tests inject failures and delays here.
	Runner func(context.Context, Unit) (scenario.RunReport, error)
	// Telemetry, if set, registers the sweep's metric series (unit
	// outcomes, per-unit wall and virtual time) and attaches the registry
	// to every executed unit's simulation.
	Telemetry *telemetry.Registry
	// Runs, if set, tracks units through their lifecycle for the live
	// /runs status page.
	Runs *telemetry.RunTracker
	// TraceDir, if set, writes each successful unit's virtual-time trace
	// into the directory as <key>.trace.jsonl plus the Perfetto-openable
	// <key>.trace.json.
	TraceDir string
}

// UnitResult is one completed unit, streamed as workers finish.
type UnitResult struct {
	// Index is the unit's position in the expanded order; the aggregate
	// reassembles the deterministic ordering from it.
	Index int
	Unit  Unit
	// Run holds the measurements on success; Err the failure otherwise.
	// A failed unit still reaches the aggregate (as a Failure row).
	Run *scenario.RunReport
	Err error
	// Wall is the unit's host wall-clock cost (not the virtual lab time).
	// It is progress telemetry only and never enters the aggregate,
	// which must be byte-reproducible.
	Wall time.Duration
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) runner() func(context.Context, Unit) (scenario.RunReport, error) {
	if o.Runner != nil {
		return o.Runner
	}
	return func(ctx context.Context, u Unit) (scenario.RunReport, error) {
		r := scenario.Runner{Telemetry: o.Telemetry}
		if o.TraceDir != "" {
			r.Trace = telemetry.NewTrace()
		}
		rep, err := r.RunUnit(ctx, u.spec, u.Mode, u.Prefixes, u.Flows, u.Seed)
		if err == nil && r.Trace != nil {
			if werr := writeUnitTrace(o.TraceDir, u, r.Trace); werr != nil {
				// Trace export is best-effort telemetry: the unit's
				// measurement stands even when the disk write fails.
				fmt.Fprintf(os.Stderr, "sweep: trace for %s: %v\n", u.Key(), werr)
			}
		}
		return rep, err
	}
}

// writeUnitTrace exports one unit's trace as JSONL plus Chrome
// trace-event JSON under dir, with the unit key's path separators
// flattened into a filename.
func writeUnitTrace(dir string, u Unit, tr *telemetry.Trace) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, strings.ReplaceAll(u.Key(), "/", "_"))
	jf, err := os.Create(base + ".trace.jsonl")
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(jf); err != nil {
		jf.Close()
		return err
	}
	if err := jf.Close(); err != nil {
		return err
	}
	cf, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(cf); err != nil {
		cf.Close()
		return err
	}
	return cf.Close()
}

// sweepMetrics is the executor's registry-backed instrument bundle; nil
// (no Options.Telemetry) disables every hook.
type sweepMetrics struct {
	unitsOK     *telemetry.Counter
	unitsFailed *telemetry.Counter
	unitWall    *telemetry.Histogram
	unitVirtual *telemetry.Histogram
}

// metrics registers the sweep series on the options' registry (nil
// registry returns the disabled bundle). Registration is idempotent, so
// repeated sweeps over one registry share the same series.
func (o Options) metrics() *sweepMetrics {
	reg := o.Telemetry
	if reg == nil {
		return nil
	}
	return &sweepMetrics{
		unitsOK: reg.Counter("supercharged_sweep_units_ok_total",
			"Units that completed successfully."),
		unitsFailed: reg.Counter("supercharged_sweep_units_failed_total",
			"Units that failed (including cancellation)."),
		unitWall: reg.Histogram("supercharged_sweep_unit_wall_seconds",
			"Host wall-clock cost per unit.", nil),
		unitVirtual: reg.Histogram("supercharged_sweep_unit_virtual_seconds",
			"Virtual lab time per unit (the report's elapsed).", nil),
	}
}

// unitDone classifies one finished unit and observes its costs.
func (m *sweepMetrics) unitDone(res UnitResult) {
	if m == nil {
		return
	}
	if res.Err != nil {
		m.unitsFailed.Inc()
	} else {
		m.unitsOK.Inc()
	}
	m.unitWall.ObserveDuration(res.Wall)
	if res.Run != nil {
		m.unitVirtual.Observe(res.Run.ElapsedMS / 1e3)
	}
}

// runUnit executes one unit; a unit whose turn comes after cancellation
// fails with the context's error without running.
func runUnit(ctx context.Context, u Unit, run func(context.Context, Unit) (scenario.RunReport, error)) (res UnitResult) {
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	rep, err := run(ctx, u)
	if err != nil {
		res.Err = err
		return res
	}
	res.Run = &rep
	return res
}

// Stream executes the units across the bounded worker pool and returns a
// channel delivering each unit's result as it completes (completion
// order, not expansion order). The channel closes once every unit has
// been delivered — partial failures included, so len(units) results
// always arrive. Cancelling the context stops in-flight simulations at
// their next event; units not yet started complete immediately with the
// context's error, so the contract of one result per unit holds even on
// a cancelled sweep.
func Stream(ctx context.Context, units []Unit, opts Options) <-chan UnitResult {
	workers := opts.workers()
	if workers > len(units) {
		workers = len(units)
	}
	run := opts.runner()
	m := opts.metrics()
	opts.Runs.SetTotal(len(units))

	jobs := make(chan int)
	out := make(chan UnitResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				key := units[i].Key()
				opts.Runs.Start(key)
				t0 := time.Now()
				res := runUnit(ctx, units[i], run)
				res.Index, res.Unit = i, units[i]
				res.Wall = time.Since(t0)
				opts.Runs.Finish(key, res.Wall, res.Err)
				m.unitDone(res)
				out <- res
			}
		}()
	}
	go func() {
		for i := range units {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		close(out)
	}()
	return out
}

// Run expands the spec, executes every unit across the worker pool while
// streaming progress, and aggregates the results in deterministic unit
// order. Unit failures do not abort the sweep: they surface as Failure
// rows of the aggregate. Cancellation (the caller's context, or the
// Options.Budget deadline) still returns the partial aggregate —
// cancelled units appear as failures — alongside the context's error, so
// callers can render what completed and still exit non-zero.
func Run(ctx context.Context, spec Spec, opts Options) (*Aggregate, error) {
	units, err := Expand(spec)
	if err != nil {
		return nil, err
	}
	if opts.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Budget)
		defer cancel()
	}
	if opts.Progress != nil {
		// One serialized writer for every progress line: the collection
		// loop below is single-goroutine, but worker-side warnings (trace
		// export) and a live status server can interleave on the same fd.
		opts.Progress = telemetry.NewSyncWriter(opts.Progress)
	}
	t0 := time.Now()
	collected := make([]UnitResult, len(units))
	done := 0
	interrupted := false
	for res := range Stream(ctx, units, opts) {
		collected[res.Index] = res
		done++
		if res.Err != nil && (errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded)) {
			interrupted = true
		}
		if opts.OnResult != nil {
			opts.OnResult(res)
		}
		if opts.Progress != nil {
			status := "ok"
			if res.Err != nil {
				status = "FAIL: " + res.Err.Error()
			}
			fmt.Fprintf(opts.Progress, "[%*d/%d] %-52s %s (%v)\n",
				digits(len(units)), done, len(units), res.Unit.Key(), status, res.Wall.Round(time.Millisecond))
		}
	}
	agg := aggregate(spec, units, collected)
	if opts.Progress != nil {
		fmt.Fprintf(opts.Progress, "sweep: %d units, %d failed, %d workers, %v wall\n",
			len(units), agg.Failed, opts.workers(), time.Since(t0).Round(time.Millisecond))
	}
	// Only a sweep that actually lost units to cancellation is
	// interrupted; a budget that expires after the last unit completed
	// took nothing, so it is not an error.
	if err := ctx.Err(); err != nil && interrupted {
		return agg, fmt.Errorf("sweep: interrupted: %w", err)
	}
	return agg, nil
}

func digits(n int) int { return len(fmt.Sprint(n)) }

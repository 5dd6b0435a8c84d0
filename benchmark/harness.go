package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"
)

// scale fixes the sizes a run uses. The benchmark of record always runs
// fullScale; only the smoke test runs smaller. To fit a time budget a run
// scales cycle and repetition counts through env.seconds, never these.
type scale struct {
	prefixes    int    // synthetic table size of the serve and core workloads
	labBig      int    // table size of the synthetic paper-fig5 units
	labSmall    int    // table size of the MRT and session-reset units
	rates       [2]int // paced churn rates in routes/s (reported as "60k" and "180k")
	unpaced     int    // routes of the unpaced churn phase per measuring second
	bursts      int    // separately drained bursts the unpaced phase is split into
	setupReps   int    // how often set-up is repeated, at least, for its median
	minReps     int    // fewest timed repetitions (cycles, loads, unit runs) whatever the time budget
	clockTimers int    // timers of the isolated clock.Virtual replay
}

var fullScale = scale{
	prefixes:    200_000,
	labBig:      200_000,
	labSmall:    50_000,
	rates:       [2]int{60_000, 180_000},
	unpaced:     100_000,
	bursts:      5,
	setupReps:   3,
	minReps:     3,
	clockTimers: 1_000_000,
}

// rateLabels name the two paced rates in metric names whatever the scale.
var rateLabels = [2]string{"60k", "180k"}

// env is what a workload needs to run: sizes, seed, time budget and the
// tracer (nil when untraced).
type env struct {
	sc      scale
	seed    int64
	seconds float64
	tr      *tracer
	log     io.Writer
	// dropSeq, when non-zero, makes every sink swallow the batch with that
	// sequence number: the smoke test's proof that a lost batch is caught.
	dropSeq uint64
}

func (e *env) logf(format string, args ...any) {
	if e.log != nil {
		fmt.Fprintf(e.log, format+"\n", args...)
	}
}

// rng derives an independent stream per purpose from the run's seed.
func (e *env) rng(purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*7919 + purpose))
}

// budget reports whether the workload may start another repetition: it has
// done fewer than the scale's minimum, or its measuring time is not used up.
func (e *env) budget(start time.Time, done int) bool {
	return done < e.sc.minReps || time.Since(start).Seconds() < e.seconds
}

// result is one workload run.
type result struct {
	Workload string
	// Ops counts the operations attempted (routes, cycles, units), Failed
	// the operations and checks that failed; Fails says which.
	Ops    int
	Failed int
	Fails  []string
	// Named holds the workload's own end-to-end metrics, Layer the per-layer
	// budget (traced runs only).
	Named map[string]value
	Layer map[string]float64
	Wall  time.Duration
}

func newResult(workload string) *result {
	return &result{Workload: workload, Named: map[string]value{}, Layer: map[string]float64{}}
}

// check records a failed correctness check.
func (r *result) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.Failed++
		if len(r.Fails) < 20 {
			r.Fails = append(r.Fails, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// slotValues maps the workload's named metrics onto BENCHMARK.json's
// end-to-end names.
func (r *result) slotValues() map[string]value {
	out := make(map[string]value, len(slots))
	for _, d := range namedFor(r.Workload) {
		if v, ok := r.Named[d.Name]; ok && d.Slot != "" {
			out[d.Slot] = v
		}
	}
	return out
}

// heapInuse settles the heap with two collections (the first frees, the
// second sweeps what the first's finalizers released) and reads HeapInuse.
func heapInuse() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse)
}

// watchHeap samples the bytes held by heap objects (live or not yet swept)
// every few milliseconds until stop is called; stop returns the peak in MB.
// Unlike MemStats.HeapSys it forgets what earlier workloads of the same
// process needed.
func watchHeap() (stop func() float64) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	quit, done := make(chan struct{}), make(chan struct{})
	var peak uint64
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(quit)
		<-done
		return float64(peak) / (1 << 20)
	}
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// runtimeLayer fills the runtime.* layer metrics from the MemStats delta over
// the workload's measured part.
func (r *result) runtimeLayer(before, after runtime.MemStats, routes int) {
	if routes < 1 {
		routes = 1
	}
	r.Layer["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	r.Layer["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	r.Layer["runtime.allocs_per_route"] = float64(after.Mallocs-before.Mallocs) / float64(routes)
	r.Layer["runtime.alloc_bytes_per_route"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(routes)
	r.Layer["runtime.heap_peak_mb"] = float64(after.HeapSys) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

package main

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"supercharged/internal/telemetry"
)

// tracer records spans around the harness's own calls into each layer. A nil
// tracer is the untraced configuration: every method returns at once, so the
// end-to-end run pays one nil check per call site. Spans stay in memory and
// leave through telemetry.Trace at exit, so the file opens in Perfetto next
// to a lab trace.
type tracer struct {
	epoch time.Time
	// off suspends recording: the traced run measures its untraced
	// reference pass through the same sources and sinks.
	off atomic.Bool

	mu    sync.Mutex
	spans []span
	tids  map[string]int
	agg   map[string]*spanSum
}

type span struct {
	name  string
	tid   int
	start time.Duration
	dur   time.Duration
	n     int
}

// spanSum is the running total of one span name: calls, busy time and the
// work count the spans carried (routes, messages, frames).
type spanSum struct {
	calls int
	dur   time.Duration
	n     int
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		spans: make([]span, 0, 1<<16),
		tids:  make(map[string]int),
		agg:   make(map[string]*spanSum),
	}
}

// begin returns the span's start; pair it with end.
func (t *tracer) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// end records a span that began at t0 on the named thread row, carrying n
// units of work.
func (t *tracer) end(name, thread string, t0 time.Time, n int) {
	if t == nil {
		return
	}
	t.add(name, thread, t0, time.Since(t0), n)
}

func (t *tracer) add(name, thread string, t0 time.Time, dur time.Duration, n int) {
	if t == nil || t.off.Load() {
		return
	}
	t.mu.Lock()
	tid, ok := t.tids[thread]
	if !ok {
		tid = len(t.tids) + 1
		t.tids[thread] = tid
	}
	t.spans = append(t.spans, span{name: name, tid: tid, start: t0.Sub(t.epoch), dur: dur, n: n})
	s := t.agg[name]
	if s == nil {
		s = &spanSum{}
		t.agg[name] = s
	}
	s.calls++
	s.dur += dur
	s.n += n
	t.mu.Unlock()
}

// total returns the running total of a span name (zero if never recorded).
func (t *tracer) total(name string) spanSum {
	if t == nil {
		return spanSum{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.agg[name]; s != nil {
		return *s
	}
	return spanSum{}
}

// perUnit is busy nanoseconds per unit of carried work.
func (s spanSum) perUnit() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.dur) / float64(s.n)
}

// perCall is busy nanoseconds per call.
func (s spanSum) perCall() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.dur) / float64(s.calls)
}

// writeChrome exports the traced runs' spans as Chrome trace-event JSON
// through telemetry.Trace, one process row per workload and one thread row
// per harness goroutine.
func writeChrome(path string, runs []suiteRun) error {
	out := telemetry.NewTrace()
	for _, r := range runs {
		t := r.tr
		if t == nil {
			continue
		}
		pid := out.Process("benchmark " + r.rec.Workload)
		t.mu.Lock()
		for name, tid := range t.tids {
			out.Thread(pid, tid, name)
		}
		for _, s := range t.spans {
			dur := s.dur
			if dur == 0 {
				dur = 1 // a zero duration would render as an instant marker
			}
			out.Add(telemetry.Span{Name: s.name, Cat: "benchmark", PID: pid, TID: s.tid, Start: s.start, Dur: dur, N: s.n})
		}
		t.mu.Unlock()
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := out.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

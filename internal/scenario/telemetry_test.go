package scenario

import (
	"context"
	"testing"
	"time"

	"supercharged/internal/metrics"
	"supercharged/internal/sim"
	"supercharged/internal/telemetry"
)

// The trace is not decoration: its flow-converged spans must carry the
// run's actual measurements. Reconstructing each event's convergence
// summary from span durations alone has to land within one virtual
// millisecond of the report's numbers (they are the same quantized gaps,
// so in practice they match exactly).
func TestTraceReconstructsReportedConvergence(t *testing.T) {
	spec, ok := Lookup("paper-fig5")
	if !ok {
		t.Fatal("paper-fig5 not registered")
	}
	for _, mode := range []sim.Mode{sim.Standalone, sim.Supercharged} {
		tr := telemetry.NewTrace()
		rep, err := Runner{Trace: tr}.RunUnit(context.Background(), spec, mode, 2000, 0, 1)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}

		// flow-converged spans live on the tid of their event (idx+1).
		byEvent := map[int][]time.Duration{}
		for _, s := range tr.Spans() {
			if s.Name == "flow-converged" {
				byEvent[s.TID-1] = append(byEvent[s.TID-1], s.Dur)
			}
		}

		const tolMS = 1.0 // acceptance bound: one virtual millisecond
		for _, ev := range rep.Events {
			if ev.Convergence == nil {
				continue
			}
			durs := byEvent[ev.Index]
			if len(durs) != ev.Convergence.Samples {
				t.Fatalf("%v event %d: %d converge spans, report has %d samples",
					mode, ev.Index, len(durs), ev.Convergence.Samples)
			}
			s := metrics.SummarizeDurations(durs)
			checks := []struct {
				name       string
				span, want float64
			}{
				{"min", s.Min * 1e3, ev.Convergence.MinMS},
				{"p50", s.Median * 1e3, ev.Convergence.P50MS},
				{"p95", s.P95 * 1e3, ev.Convergence.P95MS},
				{"max", s.Max * 1e3, ev.Convergence.MaxMS},
			}
			for _, c := range checks {
				if diff := c.span - c.want; diff > tolMS || diff < -tolMS {
					t.Errorf("%v event %d: trace %s = %.3fms, report %.3fms (|Δ| > %vms)",
						mode, ev.Index, c.name, c.span, c.want, tolMS)
				}
			}
		}
		if len(byEvent) == 0 {
			t.Fatalf("%v: no flow-converged spans recorded", mode)
		}
	}
}

// The pipeline spans of one event must be causally ordered in virtual
// time: the event fires, the failure is detected, flows converge.
func TestTracePipelineOrdering(t *testing.T) {
	spec, ok := Lookup("paper-fig5")
	if !ok {
		t.Fatal("paper-fig5 not registered")
	}
	tr := telemetry.NewTrace()
	if _, err := (Runner{Trace: tr}).RunUnit(context.Background(), spec, sim.Supercharged, 1000, 0, 1); err != nil {
		t.Fatal(err)
	}
	var eventAt, detectAt, convEnd time.Duration = -1, -1, -1
	for _, s := range tr.Spans() {
		switch s.Name {
		case "event":
			eventAt = s.Start
		case "failure-detected":
			detectAt = s.Start + s.Dur
		case "flow-converged":
			if end := s.Start + s.Dur; end > convEnd {
				convEnd = end
			}
		}
	}
	if eventAt < 0 || detectAt < 0 || convEnd < 0 {
		t.Fatalf("pipeline spans missing: event=%v detect=%v conv=%v", eventAt, detectAt, convEnd)
	}
	if !(eventAt <= detectAt && detectAt <= convEnd) {
		t.Fatalf("pipeline out of order: event=%v detect=%v convergence-end=%v", eventAt, detectAt, convEnd)
	}

	// Instrumented and bare runs must report identical measurements:
	// telemetry observes, it never steers.
	bare, err := Runner{}.RunUnit(context.Background(), spec, sim.Supercharged, 1000, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	instr, err := Runner{Trace: telemetry.NewTrace(), Telemetry: telemetry.NewRegistry()}.RunUnit(context.Background(), spec, sim.Supercharged, 1000, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bare.ElapsedMS != instr.ElapsedMS || len(bare.Events) != len(instr.Events) {
		t.Fatalf("instrumentation changed the run: bare %+v vs instrumented %+v", bare, instr)
	}
	for i := range bare.Events {
		b, n := bare.Events[i], instr.Events[i]
		if b.DetectMS != n.DetectMS || b.Affected != n.Affected ||
			(b.Convergence != nil) != (n.Convergence != nil) ||
			(b.Convergence != nil && *b.Convergence != *n.Convergence) {
			t.Fatalf("event %d drifted under instrumentation:\nbare  %+v\ninstr %+v", i, b, n)
		}
	}
}

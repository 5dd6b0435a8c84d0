package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"supercharged/internal/telemetry"
)

// One instrumented sweep: the registry's unit series must account for
// every unit, the run tracker must drain, and the trace dir must hold
// one JSONL + Chrome pair per executed unit.
func TestSweepTelemetryAccounting(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Scenarios: []string{"paper-fig5"}, Sizes: []int{300}, Seeds: []int64{1, 2}}

	reg := telemetry.NewRegistry()
	runs := telemetry.NewRunTracker(0)
	opts := Options{
		Workers:   2,
		Telemetry: reg, Runs: runs, TraceDir: dir,
	}
	agg, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	units := agg.Units

	counter := func(name string) uint64 { return reg.Counter(name, "").Value() }
	if got := counter("supercharged_sweep_units_ok_total"); got != uint64(units) {
		t.Fatalf("units_ok = %d, want %d", got, units)
	}
	if got := counter("supercharged_sim_runs_total"); got != uint64(units) {
		t.Fatalf("sim_runs = %d, want %d (registry not attached to units?)", got, units)
	}
	snap := runs.Snapshot()
	if snap.Total != units || snap.Done != units || len(snap.Active) != 0 || snap.Failed != 0 {
		t.Fatalf("tracker snapshot %+v, want %d done", snap, units)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var jsonl, chrome int
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".trace.jsonl"):
			jsonl++
		case strings.HasSuffix(e.Name(), ".trace.json"):
			chrome++
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(b, []byte(`"traceEvents"`)) {
				t.Fatalf("%s is not a Chrome trace", e.Name())
			}
		}
	}
	if jsonl != units || chrome != units {
		t.Fatalf("trace dir holds %d jsonl + %d chrome files, want %d each", jsonl, chrome, units)
	}

	// The exposition endpoint sees all of it.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"supercharged_sweep_unit_wall_seconds_count",
		"supercharged_sweep_unit_virtual_seconds_count",
		"supercharged_sim_flow_convergence_seconds_bucket",
	} {
		if !strings.Contains(buf.String(), series) {
			t.Errorf("exposition missing %s", series)
		}
	}
}

package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
)

// smokeScale runs every workload in well under a second: the smoke test
// checks the benchmark's shape and its correctness checks, not its numbers.
var smokeScale = scale{
	prefixes:    2000,
	labBig:      2000,
	labSmall:    1000,
	rates:       [2]int{2000, 6000},
	unpaced:     20_000,
	bursts:      1,
	setupReps:   1,
	minReps:     1,
	clockTimers: 10_000,
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesTables pins BENCHMARK.json to the tables the harness
// prints from, and both to the limits of the benchmark contract.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a valid metric or workload name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(m.Workloads) != len(workloads) || len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d (limit 2..8)", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) != len(slots) || len(m.EndToEnd) > 16 {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d (limit 16)", len(m.EndToEnd), len(slots))
	}
	for i, s := range m.EndToEnd {
		unique(s.Name)
		if got := (slotDef{s.Name, s.Unit, s.Better, s.Bound}); got != slots[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, got, slots[i])
		}
		if !unit.MatchString(s.Unit) || s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bad unit %q or bound %v", s.Name, s.Unit, s.Bound)
		}
	}
	if len(m.PerLayer) != len(layers) || len(m.PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d (limit 128)", len(m.PerLayer), len(layers))
	}
	for i, l := range m.PerLayer {
		unique(l.Name)
		if l.Name != layers[i].Name || l.Unit != layers[i].Unit || l.Better != layers[i].Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, l, layers[i])
		}
		if !unit.MatchString(l.Unit) || (l.Better != "lower" && l.Better != "higher") {
			t.Errorf("per-layer metric %s: bad unit %q or direction %q", l.Name, l.Unit, l.Better)
		}
	}
	// Every named metric belongs to a workload, and every workload fills
	// every slot exactly once.
	for _, w := range workloads {
		filled := map[string]int{}
		for _, d := range namedFor(w.name) {
			if d.Slot != "" {
				filled[d.Slot]++
			}
		}
		for _, s := range slots {
			if filled[s.Name] != 1 {
				t.Errorf("workload %s fills slot %s %d times", w.name, s.Name, filled[s.Name])
			}
		}
	}
}

// TestSmoke runs every workload traced (which includes an untraced reference
// pass) at the tiny scale and checks that exactly the declared metrics come
// out, each measured, and that every correctness check passes.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	for _, w := range workloads {
		e := &env{sc: smokeScale, seed: 1, seconds: 0.5, log: io.Discard}
		res, err := runWorkload(e, w, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.Ops < 1 {
			t.Errorf("%s: ops %d, failed %d: %v", w.name, res.Ops, res.Failed, res.Fails)
		}

		e2e := finalOf(res, false)
		if len(e2e.Metrics) != len(m.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, %d declared", w.name, len(e2e.Metrics), len(m.EndToEnd))
		}
		for _, d := range m.EndToEnd {
			got, ok := e2e.Metrics[d.Name]
			if !ok || got.Unit != d.Unit || !(got.Value > 0) {
				t.Errorf("%s: end-to-end metric %s: emitted %v (%+v), want unit %q and a positive value", w.name, d.Name, ok, got, d.Unit)
			}
		}
		for _, d := range namedFor(w.name) {
			if v, ok := res.Named[d.Name]; !ok || !(v.V > 0) {
				t.Errorf("%s: named metric %s missing or not positive: %+v", w.name, d.Name, v)
			}
		}
		for name := range res.Named {
			found := false
			for _, d := range namedFor(w.name) {
				found = found || d.Name == name
			}
			if !found {
				t.Errorf("%s: undeclared named metric %s", w.name, name)
			}
		}

		layer := finalOf(res, true)
		if len(layer.Metrics) != len(m.PerLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, %d declared", w.name, len(layer.Metrics), len(m.PerLayer))
		}
		for _, d := range m.PerLayer {
			if got, ok := layer.Metrics[d.Name]; !ok || got.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s: emitted %v with unit %q, want %q", w.name, d.Name, ok, got.Unit, d.Unit)
			}
		}
		for name := range res.Layer {
			if _, ok := layer.Metrics[name]; !ok {
				t.Errorf("%s: undeclared per-layer metric %s", w.name, name)
			}
		}
		if _, ok := res.Layer["trace.overhead_ratio"]; !ok {
			t.Errorf("%s: no trace.overhead_ratio", w.name)
		}
	}
}

// TestDroppedBatchIsCaught injects the fault the checks exist for: a sink
// wrapper (the one both serve workloads share) that swallows one batch.
func TestDroppedBatchIsCaught(t *testing.T) {
	e := &env{sc: smokeScale, seed: 1, seconds: 0.1, log: io.Discard, dropSeq: 2}
	f, err := newServeFeed(e)
	if err != nil {
		t.Fatal(err)
	}
	res := fulltableMeasure(e, f)
	if res.Failed == 0 {
		t.Error("a sink dropped batch 2 and no check failed")
	}
	if fl := finalOf(res, false); fl.Correct || fl.Failed == 0 {
		t.Errorf("final line reports correct=%v failed=%d after a dropped batch", fl.Correct, fl.Failed)
	}
}

// TestQuartilesMatchPython pins the spread computation to Python's
// statistics.quantiles(xs, n=4), which the benchmark's driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 50, 20, 40, 30})
	if q1 != 15 || q3 != 45 {
		t.Errorf("quartiles(10..50) = %v, %v; Python gives 15, 45", q1, q3)
	}
}

// TestCompareVerdicts covers the three verdicts of compare.
func TestCompareVerdicts(t *testing.T) {
	rec := func(v ...float64) []record {
		var out []record
		for _, x := range v {
			out = append(out, record{Workload: wlFulltable, Metrics: map[string]value{"failover_ms": {V: x}}})
		}
		return out
	}
	for _, tc := range []struct {
		a, b []record
		want string
	}{
		{rec(100, 101, 102, 103), rec(104, 105, 106, 107), "ok"},
		{rec(100, 101, 102, 103), rec(130, 131, 132, 133), "worse"},
		{rec(100, 150, 200, 250), rec(130, 131, 132, 133), "unresolved"},
	} {
		rows := compareRecords(tc.a, tc.b)
		if len(rows) != 1 || rows[0].verdict != tc.want {
			t.Errorf("compare(%v, %v) = %+v, want verdict %s", tc.a, tc.b, rows, tc.want)
		}
	}
}

package microbench

import (
	"strings"
	"testing"
)

// TestRunFiltered executes the cheap group-allocation benchmark end to
// end (the 1M-table benches are cmd/bench micro territory, not unit-test
// territory) and sanity-checks the measurement.
func TestRunFiltered(t *testing.T) {
	snap, err := Run(Options{Filter: "core/group-ensure"})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 1 {
		t.Fatalf("filter matched %d benchmarks, want 1", len(snap.Benchmarks))
	}
	r := snap.Benchmarks[0]
	if r.NsPerOp <= 0 {
		t.Fatalf("ns/op %v, want > 0", r.NsPerOp)
	}
	if r.Samples != 3 || r.Ops <= 0 {
		t.Fatalf("bad sample accounting: %+v", r)
	}
	data, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Benchmarks[0].Name != r.Name {
		t.Fatal("JSON round trip lost the benchmark")
	}
}

func TestRunUnknownFilter(t *testing.T) {
	if _, err := Run(Options{Filter: "no-such-bench"}); err == nil {
		t.Fatal("unknown filter accepted")
	}
}

func snapOf(results ...Result) *Snapshot { return &Snapshot{Benchmarks: results} }

func TestCompareGates(t *testing.T) {
	base := snapOf(
		Result{Name: "a", NsPerOp: 1000, AllocsPerOp: 2},
		Result{Name: "b", NsPerOp: 100, AllocsPerOp: 0},
	)
	// Identical: clean.
	if v := Compare(base, base, 0.20); len(v) != 0 {
		t.Fatalf("self-compare violations: %v", v)
	}
	// 19% slower: inside tolerance.
	if v := Compare(base, snapOf(
		Result{Name: "a", NsPerOp: 1190, AllocsPerOp: 2},
		Result{Name: "b", NsPerOp: 119, AllocsPerOp: 0},
	), 0.20); len(v) != 0 {
		t.Fatalf("in-tolerance violations: %v", v)
	}
	// 2x slower but under the absolute grace floor: noise, passes.
	if v := Compare(base, snapOf(
		Result{Name: "a", NsPerOp: 1000, AllocsPerOp: 2},
		Result{Name: "b", NsPerOp: 200, AllocsPerOp: 0},
	), 0.20); len(v) != 0 {
		t.Fatalf("grace-floor violations: %v", v)
	}
	// Real regression: beyond tolerance AND the grace floor.
	v := Compare(base, snapOf(
		Result{Name: "a", NsPerOp: 2000, AllocsPerOp: 2},
		Result{Name: "b", NsPerOp: 100, AllocsPerOp: 0},
	), 0.20)
	if len(v) != 1 || !strings.Contains(v[0], "a regressed") {
		t.Fatalf("missed ns/op regression: %v", v)
	}
	// Allocation regression on a zero-alloc baseline: even one alloc/op
	// fails (0.5 rounding slack only).
	v = Compare(base, snapOf(
		Result{Name: "a", NsPerOp: 1000, AllocsPerOp: 2},
		Result{Name: "b", NsPerOp: 100, AllocsPerOp: 1},
	), 0.20)
	if len(v) != 1 || !strings.Contains(v[0], "allocations regressed") {
		t.Fatalf("missed alloc regression: %v", v)
	}
	// Vanished benchmark.
	v = Compare(base, snapOf(Result{Name: "a", NsPerOp: 1000, AllocsPerOp: 2}), 0.20)
	if len(v) != 1 || !strings.Contains(v[0], "vanished") {
		t.Fatalf("missed vanished benchmark: %v", v)
	}
	// Faster and brand-new: both pass.
	if v := Compare(base, snapOf(
		Result{Name: "a", NsPerOp: 500, AllocsPerOp: 1},
		Result{Name: "b", NsPerOp: 50, AllocsPerOp: 0},
		Result{Name: "c", NsPerOp: 9999, AllocsPerOp: 99},
	), 0.20); len(v) != 0 {
		t.Fatalf("improvement flagged: %v", v)
	}
}

package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"supercharged/internal/feed"
	"supercharged/internal/sim"
)

// writeTestDump renders a synthetic table as an MRT dump in dir and
// returns its path.
func writeTestDump(t *testing.T, dir string, n int) string {
	t.Helper()
	table := feed.Generate(feed.Config{N: n, Seed: 11})
	path := filepath.Join(dir, "table.mrt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := table.WriteMRT(f, nil); err != nil {
		t.Fatal(err)
	}
	return path
}

// LoadTable resolves relative paths upward from the working directory —
// the property that lets `go test` in a package dir and a repo-root CI
// job name the same committed dump — and memoizes per resolved path.
func TestLoadTableResolution(t *testing.T) {
	dir := t.TempDir()
	abs := writeTestDump(t, dir, 50)

	tb, err := LoadTable(abs)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 50 {
		t.Fatalf("loaded %d routes, want 50", tb.Len())
	}
	again, err := LoadTable(abs)
	if err != nil {
		t.Fatal(err)
	}
	if tb != again {
		t.Error("second load returned a different table (memoization broken)")
	}

	// Relative resolution: chdir into a subdirectory; the path names the
	// file relative to a parent.
	sub := filepath.Join(dir, "a", "b")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	if err := os.Chdir(sub); err != nil {
		t.Fatal(err)
	}
	fromChild, err := LoadTable("table.mrt")
	if err != nil {
		t.Fatalf("upward resolution failed: %v", err)
	}
	if fromChild != tb {
		t.Error("upward-resolved load did not hit the memoized table")
	}
	if _, err := LoadTable("definitely-not-here.mrt"); err == nil {
		t.Fatal("missing table loaded without error")
	}
}

// A spec's Table path must not be required at registration/validation
// time — builtins referencing the committed dump validate in every
// binary, dump present or not.
func TestSpecTableNotRequiredByValidate(t *testing.T) {
	spec, ok := Lookup("paper-fig5-real")
	if !ok {
		t.Fatal("paper-fig5-real not registered")
	}
	spec.Table = "no/such/dump.mrt"
	if err := spec.Validate(); err != nil {
		t.Fatalf("Validate must not open the dump: %v", err)
	}
	// Running it, though, fails loudly.
	if _, err := (Runner{Prefixes: 100}).Run(context.Background(), spec); err == nil {
		t.Fatal("run with a missing dump succeeded")
	}
}

// A run must fail loudly when the dump holds fewer routes than the
// requested table size — never silently shrink the experiment.
func TestTableShorterThanRunFails(t *testing.T) {
	path := writeTestDump(t, t.TempDir(), 100)
	spec, _ := Lookup("paper-fig5-real")
	if _, err := (Runner{Prefixes: 5000, Table: path}).Run(context.Background(), spec); err == nil {
		t.Fatal("run over a 100-route dump at 5000 prefixes succeeded")
	}
}

// The differential harness: the same scenario over the synthetic feed
// and over an MRT dump of different content must produce reports with
// the identical schema and run structure, each deterministic per seed.
// This is what makes synthetic and real results comparable side by side.
func TestSyntheticVsMRTDifferential(t *testing.T) {
	path := writeTestDump(t, t.TempDir(), 2000)
	spec, _ := Lookup("paper-fig5")

	runIt := func(table string) *Report {
		t.Helper()
		rep, err := Runner{Prefixes: 1000, Seed: 1, Table: table}.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	synthetic := runIt("")
	real := runIt(path)

	// Identical report schema: same JSON keys at every level.
	if a, b := jsonKeys(t, synthetic), jsonKeys(t, real); a != b {
		t.Fatalf("report schemas diverge:\nsynthetic %s\nreal      %s", a, b)
	}
	// Identical run structure: mode/size grid, event count, peer set.
	if len(synthetic.Runs) != len(real.Runs) {
		t.Fatalf("%d synthetic runs vs %d real", len(synthetic.Runs), len(real.Runs))
	}
	for i := range synthetic.Runs {
		s, r := synthetic.Runs[i], real.Runs[i]
		if s.Mode != r.Mode || s.Prefixes != r.Prefixes || len(s.Events) != len(r.Events) {
			t.Fatalf("run %d structure diverges: %+v vs %+v", i, s, r)
		}
	}
	// Both backends converge every probed flow; the supercharged runs
	// must show the same flat convergence on either feed.
	for _, rep := range []*Report{synthetic, real} {
		for _, run := range rep.Runs {
			ev := run.Events[0]
			if ev.Affected == 0 || ev.Recovered != ev.Affected {
				t.Fatalf("run %s: %d affected, %d recovered", run.Mode, ev.Affected, ev.Recovered)
			}
		}
	}

	// Deterministic per seed on the real backend too.
	again := runIt(path)
	aj, err := real.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := again.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("same seed, different MRT-backed reports:\n%s\nvs\n%s", aj, bj)
	}
}

// jsonKeys flattens a report's JSON key structure (keys only, no
// values) for schema comparison.
func jsonKeys(t *testing.T, rep *Report) string {
	t.Helper()
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	var walk func(v any) any
	walk = func(v any) any {
		switch x := v.(type) {
		case map[string]any:
			out := map[string]any{}
			for k, vv := range x {
				out[k] = walk(vv)
			}
			return out
		case []any:
			if len(x) == 0 {
				return x
			}
			// One element stands in for all: runs share a schema.
			return []any{walk(x[0])}
		default:
			return "·"
		}
	}
	out, err := json.Marshal(walk(v))
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// paper-fig5-real runs end to end over the committed sample dump — the
// PR's acceptance scenario, trimmed to one sweep size for test time.
func TestPaperFig5RealOverCommittedDump(t *testing.T) {
	spec, ok := Lookup("paper-fig5-real")
	if !ok {
		t.Fatal("paper-fig5-real not registered")
	}
	if spec.Table != "testdata/ris-sample.mrt" {
		t.Fatalf("builtin table path = %q", spec.Table)
	}
	if spec.MaxSeeds != 1 {
		t.Fatalf("MaxSeeds = %d, want 1", spec.MaxSeeds)
	}
	rep, err := Runner{Prefixes: 1000, Seed: 1}.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 2 {
		t.Fatalf("%d runs, want standalone + supercharged", len(rep.Runs))
	}
	for _, run := range rep.Runs {
		ev := run.Events[0]
		if ev.Kind != sim.EventPeerDown || ev.Peer != "R2" {
			t.Fatalf("run %s: event %+v", run.Mode, ev)
		}
		if ev.Recovered != ev.Affected || ev.Affected == 0 {
			t.Fatalf("run %s: %d affected, %d recovered", run.Mode, ev.Affected, ev.Recovered)
		}
		if run.Mode == sim.Supercharged.String() {
			// The headline number: flat ~130 ms on the real table.
			if ev.Convergence == nil || ev.Convergence.MaxMS > 200 {
				t.Fatalf("supercharged convergence over the real table: %+v", ev.Convergence)
			}
		}
	}
}

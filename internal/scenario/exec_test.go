package scenario

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"supercharged/internal/sim"
)

// TestSameSeedSameReport: the determinism contract — the whole report,
// byte for byte.
func TestSameSeedSameReport(t *testing.T) {
	spec, _ := Lookup("double-failure")
	opts := Runner{Prefixes: 2000, Flows: 50, Seed: 42}
	a, err := opts.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := opts.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("same seed, different reports:\n%s\nvs\n%s", aj, bj)
	}
}

func TestPaperFig5FlatVsLinear(t *testing.T) {
	spec, ok := Lookup("paper-fig5")
	if !ok {
		t.Fatal("paper-fig5 not registered")
	}
	// Trim the sweep for test time; the shape survives.
	spec.PrefixSweep = []int{1000, 10_000}
	rep, err := Runner{Seed: 1}.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	max := map[string]map[int]float64{}
	for _, run := range rep.Runs {
		if run.Events[0].Convergence == nil {
			t.Fatalf("run %s@%d: no convergence", run.Mode, run.Prefixes)
		}
		if max[run.Mode] == nil {
			max[run.Mode] = map[int]float64{}
		}
		max[run.Mode][run.Prefixes] = run.Events[0].Convergence.MaxMS
	}
	std, sup := max[sim.Standalone.String()], max[sim.Supercharged.String()]
	// Standalone grows linearly: 9000 more entries at ~0.28 ms each.
	if growth := std[10_000] - std[1000]; growth < 1500 || growth > 3500 {
		t.Fatalf("standalone growth %v ms over 9k entries; want ~2520", growth)
	}
	// Supercharged stays flat and fast at both sizes.
	for n, ms := range sup {
		if ms > 160 {
			t.Fatalf("supercharged @%d: %v ms, want ≤160", n, ms)
		}
	}
	if spread := sup[10_000] - sup[1000]; spread > 30 || spread < -30 {
		t.Fatalf("supercharged spread %v ms across sizes; not flat", spread)
	}
}

func TestDoubleFailureBothEventsConverge(t *testing.T) {
	rep, err := Runner{
		Modes: []sim.Mode{sim.Supercharged}, Prefixes: 2000, Seed: 1,
	}.RunNamed(context.Background(), "double-failure")
	if err != nil {
		t.Fatal(err)
	}
	run := rep.Runs[0]
	if len(run.Events) != 2 {
		t.Fatalf("events %d, want 2", len(run.Events))
	}
	for _, ev := range run.Events {
		if ev.Affected == 0 || ev.Recovered != ev.Affected || ev.Unrecovered != 0 {
			t.Fatalf("event %d: affected %d recovered %d unrecovered %d",
				ev.Index, ev.Affected, ev.Recovered, ev.Unrecovered)
		}
		if ev.Convergence.MaxMS > 160 {
			t.Fatalf("event %d: max %v ms, want ≤160 (constant per-failure rewrite)",
				ev.Index, ev.Convergence.MaxMS)
		}
	}
	if run.RuleRewrites == 0 {
		t.Fatal("no rule rewrites recorded")
	}
}

func TestRuleLossOnlyHurtsSupercharged(t *testing.T) {
	rep, err := Runner{Prefixes: 1000, Seed: 1}.RunNamed(context.Background(), "rule-loss")
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range rep.Runs {
		ev := run.Events[0]
		if run.Mode == sim.Supercharged.String() {
			if ev.Affected == 0 || ev.Unrecovered != 0 {
				t.Fatalf("supercharged rule-loss: affected %d unrecovered %d", ev.Affected, ev.Unrecovered)
			}
			if ev.Convergence.MaxMS > 100 {
				t.Fatalf("resync took %v ms; want fast constant recovery", ev.Convergence.MaxMS)
			}
		} else if ev.Affected != 0 {
			t.Fatalf("standalone affected by rule loss: %d flows", ev.Affected)
		}
	}
}

func TestOptionsPrefixesOverridesSweep(t *testing.T) {
	spec, _ := Lookup("paper-fig5")
	rep, err := Runner{Modes: []sim.Mode{sim.Supercharged}, Prefixes: 1500, Seed: 1}.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 1 || rep.Runs[0].Prefixes != 1500 {
		t.Fatalf("override ignored: %d runs, first at %d prefixes", len(rep.Runs), rep.Runs[0].Prefixes)
	}
}

func TestCSVAndTableRender(t *testing.T) {
	rep, err := Runner{
		Modes: []sim.Mode{sim.Supercharged}, Prefixes: 1000, Seed: 1,
	}.RunNamed(context.Background(), "backup-then-primary")
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := rep.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 1+2 { // header + one row per event
		t.Fatalf("CSV lines %d, want 3:\n%s", len(lines), csvBuf.String())
	}
	if !strings.HasPrefix(lines[0], "scenario,mode,prefixes") {
		t.Fatalf("CSV header: %q", lines[0])
	}
	if table := rep.RenderTable(); !strings.Contains(table, "peer-down") {
		t.Fatalf("table render missing events:\n%s", table)
	}
}

func TestRunRejectsInvalidSpec(t *testing.T) {
	s := validSpec()
	s.Events[0].At = -time.Second
	if _, err := (Runner{Prefixes: 1000}).Run(context.Background(), s); err == nil {
		t.Fatal("Run accepted an invalid spec")
	}
}

func TestSizes(t *testing.T) {
	sweep := Spec{PrefixSweep: []int{1000, 2000}, Prefixes: 7000}
	if got := sweep.Sizes(0); len(got) != 2 || got[0] != 1000 || got[1] != 2000 {
		t.Fatalf("Sizes(0) = %v, want the spec sweep", got)
	}
	if got := sweep.Sizes(500); len(got) != 1 || got[0] != 500 {
		t.Fatalf("Sizes(500) = %v, want the override alone", got)
	}
	if got := (Spec{Prefixes: 7000}).Sizes(0); len(got) != 1 || got[0] != 7000 {
		t.Fatalf("Sizes(0) = %v, want the spec default", got)
	}
	if got := (Spec{}).Sizes(0); len(got) != 1 || got[0] != DefaultPrefixes {
		t.Fatalf("Sizes(0) = %v, want the executor default", got)
	}
}

// TestRunOneMatchesRun: RunUnit is the sweep's unit of work — it must
// measure exactly what the sequential executor (Run) measures for the
// same (mode, size, seed) cell.
func TestRunOneMatchesRun(t *testing.T) {
	spec, _ := Lookup("double-failure")
	opts := Runner{Modes: []sim.Mode{sim.Supercharged}, Prefixes: 1200, Seed: 7}
	whole, err := opts.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	one, err := Runner{}.RunUnit(context.Background(), spec, sim.Supercharged, 1200, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&Report{Runs: []RunReport{whole.Runs[0]}}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&Report{Runs: []RunReport{one}}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("RunUnit diverges from Run:\n%s\nvs\n%s", got, want)
	}
}

func TestRunOneRejectsInvalidSpec(t *testing.T) {
	s := validSpec()
	s.Events[0].At = -time.Second
	if _, err := (Runner{}).RunUnit(context.Background(), s, sim.Standalone, 1000, 0, 1); err == nil {
		t.Fatal("RunUnit accepted an invalid spec")
	}
}

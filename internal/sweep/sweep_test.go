package sweep

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"supercharged/internal/scenario"
	"supercharged/internal/sim"
)

func TestExpandDefaultsCoverRegistry(t *testing.T) {
	units, err := Expand(Spec{})
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	names := scenario.Names()
	if len(names) == 0 {
		t.Fatal("no scenarios registered")
	}
	// Every registered scenario appears, at each of its own sizes, in both
	// modes, with seed 1.
	want := 0
	for _, name := range names {
		sc, _ := scenario.Lookup(name)
		want += len(sc.Sizes(0)) * 2
	}
	if len(units) != want {
		t.Fatalf("expanded %d units, want %d", len(units), want)
	}
	seen := make(map[string]bool)
	for _, u := range units {
		if seen[u.Key()] {
			t.Fatalf("duplicate unit key %q", u.Key())
		}
		seen[u.Key()] = true
		if u.Seed != 1 {
			t.Fatalf("unit %s: seed %d, want default 1", u.Key(), u.Seed)
		}
	}
	// Scenario blocks follow registry (sorted-name) order.
	var scOrder []string
	for _, u := range units {
		if len(scOrder) == 0 || scOrder[len(scOrder)-1] != u.Scenario {
			scOrder = append(scOrder, u.Scenario)
		}
	}
	if fmt.Sprint(scOrder) != fmt.Sprint(names) {
		t.Fatalf("scenario order %v, want %v", scOrder, names)
	}
}

func TestExpandIsDeterministic(t *testing.T) {
	spec := Spec{Seeds: []int64{3, 1}, Sizes: []int{500, 100}}
	a, err := Expand(spec)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	b, err := Expand(spec)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatalf("unit %d: %q vs %q", i, a[i].Key(), b[i].Key())
		}
	}
}

func TestExpandErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown scenario", Spec{Scenarios: []string{"no-such"}}, "unknown scenario"},
		{"duplicate scenario", Spec{Scenarios: []string{"paper-fig5", "paper-fig5"}}, "listed twice"},
		{"bad size", Spec{Sizes: []int{0}}, "must be positive"},
		{"bad seed", Spec{Seeds: []int64{-1}}, "must be positive"},
		// Duplicate axis values would collide on unit keys.
		{"duplicate size", Spec{Sizes: []int{300, 300}}, "listed twice"},
		{"duplicate seed", Spec{Seeds: []int64{1, 1}}, "listed twice"},
		{"duplicate mode", Spec{Modes: []sim.Mode{sim.Standalone, sim.Standalone}}, "listed twice"},
	}
	for _, tc := range cases {
		if _, err := Expand(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// smallSpec is a cheap real sweep: two scenarios, tiny tables.
func smallSpec() Spec {
	return Spec{
		Scenarios: []string{"double-failure", "rule-loss"},
		Sizes:     []int{300, 600},
	}
}

// TestWorkerCountInvariance is the core determinism contract: the same
// spec and seed produce byte-identical aggregates (JSON and markdown) at
// any worker count.
func TestWorkerCountInvariance(t *testing.T) {
	var docs [][]byte
	var jsons [][]byte
	for _, workers := range []int{1, 3, 16} {
		agg, err := Run(context.Background(), smallSpec(), Options{Workers: workers})
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		j, err := agg.JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		jsons = append(jsons, j)
		docs = append(docs, agg.Markdown(MarkdownOptions{Command: "go run ./cmd/experiments"}))
	}
	for i := 1; i < len(docs); i++ {
		if !bytes.Equal(jsons[0], jsons[i]) {
			t.Errorf("aggregate JSON differs between worker counts 1 and %d", []int{1, 3, 16}[i])
		}
		if !bytes.Equal(docs[0], docs[i]) {
			t.Errorf("markdown differs between worker counts 1 and %d", []int{1, 3, 16}[i])
		}
	}
	if len(docs[0]) == 0 || !bytes.Contains(docs[0], []byte("## scenario: double-failure")) {
		t.Fatalf("markdown missing scenario section:\n%s", docs[0])
	}
}

// TestRepeatRunDeterminism re-runs the identical sweep and demands
// byte-identical output — the property the committed EXPERIMENTS.md and
// its CI freshness gate stand on.
func TestRepeatRunDeterminism(t *testing.T) {
	render := func() []byte {
		agg, err := Run(context.Background(), smallSpec(), Options{Workers: 4})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return agg.Markdown(MarkdownOptions{Command: "go run ./cmd/experiments"})
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("same spec + seed produced different markdown bytes")
	}
}

// fakeRun fabricates a plausible single-event report for a unit.
func fakeRun(u Unit) scenario.RunReport {
	conv := 150.0
	if u.Mode == sim.Standalone {
		conv = 150.0 * float64(u.Prefixes) / 100
	}
	return scenario.RunReport{
		Mode:     u.Mode.String(),
		Prefixes: u.Prefixes,
		Events: []scenario.EventReport{{
			Index: 0, Kind: sim.EventPeerDown, Peer: "R2", DetectMS: 90,
			Affected: 10, Recovered: 10,
			Convergence: &scenario.ConvergenceSummary{Samples: 10, P50MS: conv, MaxMS: conv * 1.2},
		}},
	}
}

// TestPartialFailureReported injects a runner that fails exactly one
// unit: the sweep must finish, report the failure in the aggregate (and
// both renderings), and keep every other result.
func TestPartialFailureReported(t *testing.T) {
	spec := Spec{Scenarios: []string{"paper-fig5"}, Sizes: []int{100, 200}}
	failKey := "paper-fig5/non-supercharged/200/1"
	opts := Options{
		Workers: 4,
		Runner: func(_ context.Context, u Unit) (scenario.RunReport, error) {
			if u.Key() == failKey {
				return scenario.RunReport{}, fmt.Errorf("injected fault")
			}
			return fakeRun(u), nil
		},
	}
	agg, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatalf("Run must tolerate unit failures, got: %v", err)
	}
	if agg.Failed != 1 || agg.Units != 4 {
		t.Fatalf("Failed=%d Units=%d, want 1/4", agg.Failed, agg.Units)
	}
	sr := agg.Scenarios[0]
	if len(sr.Runs) != 3 {
		t.Fatalf("kept %d runs, want 3", len(sr.Runs))
	}
	if len(sr.Failures) != 1 || sr.Failures[0].Key != failKey ||
		!strings.Contains(sr.Failures[0].Error, "injected fault") {
		t.Fatalf("failure row %+v, want key %q", sr.Failures, failKey)
	}
	// The surviving (100-prefix) pair still compares; the broken 200 pair
	// must not fabricate a comparison.
	if len(sr.Comparisons) != 1 || sr.Comparisons[0].Prefixes != 100 {
		t.Fatalf("comparisons %+v, want exactly the 100-prefix pair", sr.Comparisons)
	}
	doc := string(agg.Markdown(MarkdownOptions{}))
	if !strings.Contains(doc, failKey) || !strings.Contains(doc, "injected fault") {
		t.Error("markdown does not report the failed unit")
	}
	if !strings.Contains(agg.RenderTable(), failKey) {
		t.Error("text table does not report the failed unit")
	}
}

// TestStreamDeliversEveryUnit checks the streaming contract: one result
// per unit, channel closed afterwards, indexes covering the expansion.
func TestStreamDeliversEveryUnit(t *testing.T) {
	units, err := Expand(Spec{Scenarios: []string{"flap-storm"}, Sizes: []int{100, 200, 300}, Seeds: []int64{1, 2}})
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	opts := Options{Workers: 3, Runner: func(_ context.Context, u Unit) (scenario.RunReport, error) {
		if u.Seed == 2 {
			return scenario.RunReport{}, fmt.Errorf("boom")
		}
		return fakeRun(u), nil
	}}
	got := make(map[int]bool)
	for res := range Stream(context.Background(), units, opts) {
		if got[res.Index] {
			t.Fatalf("index %d delivered twice", res.Index)
		}
		got[res.Index] = true
		if (res.Err == nil) == (res.Run == nil) {
			t.Fatalf("result %d: exactly one of Run/Err must be set: %+v", res.Index, res)
		}
	}
	if len(got) != len(units) {
		t.Fatalf("received %d results, want %d", len(got), len(units))
	}
}

// TestPartialRecoveryIsVisible: an event that leaves flows blackholed
// must say so in every rendering and must not claim a speedup computed
// over the survivors alone.
func TestPartialRecoveryIsVisible(t *testing.T) {
	spec := Spec{Scenarios: []string{"paper-fig5"}, Sizes: []int{100}}
	agg, err := Run(context.Background(), spec, Options{Runner: func(_ context.Context, u Unit) (scenario.RunReport, error) {
		r := fakeRun(u)
		if u.Mode == sim.Supercharged {
			// 9 of 10 flows recover fast; one never does.
			r.Events[0].Recovered = 9
			r.Events[0].Unrecovered = 1
		}
		return r, nil
	}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	c := agg.Scenarios[0].Comparisons[0]
	if c.SpeedupP50 != 0 || c.SpeedupMax != 0 {
		t.Fatalf("speedup claimed (%v/%v) despite an unrecovered flow", c.SpeedupP50, c.SpeedupMax)
	}
	doc := string(agg.Markdown(MarkdownOptions{}))
	if !strings.Contains(doc, "(+1 never)") {
		t.Errorf("markdown hides the unrecovered flow:\n%s", doc)
	}
	if !strings.Contains(doc, "| 1 |\n") { // glance table: 1 unrecovered event
		t.Errorf("glance table does not count the unrecovered event:\n%s", doc)
	}
	if !strings.Contains(agg.RenderTable(), "(+1 never)") {
		t.Error("text table hides the unrecovered flow")
	}
}

func TestSpeedupRatios(t *testing.T) {
	spec := Spec{Scenarios: []string{"paper-fig5"}, Sizes: []int{100}}
	agg, err := Run(context.Background(), spec, Options{Runner: func(_ context.Context, u Unit) (scenario.RunReport, error) {
		return fakeRun(u), nil
	}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	cs := agg.Scenarios[0].Comparisons
	if len(cs) != 1 {
		t.Fatalf("got %d comparisons, want 1", len(cs))
	}
	c := cs[0]
	// fakeRun: standalone 150*100/100=150ms vs supercharged 150ms → 1.0.
	if c.SpeedupP50 != 1 || c.SpeedupMax != 1 {
		t.Fatalf("speedups %v/%v, want 1/1", c.SpeedupP50, c.SpeedupMax)
	}
	if c.DetectMS != 90 || c.Kind != string(sim.EventPeerDown) {
		t.Fatalf("comparison carries wrong event identity: %+v", c)
	}
}

// TestCancelMidSweep: cancellation mid-sweep must (a) finish promptly
// with one result per unit, and (b) report the cancelled units as
// failures alongside the error.
func TestCancelMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := Spec{Scenarios: []string{"paper-fig5"}, Sizes: []int{100, 200}, Seeds: []int64{1, 2}}

	opts := Options{
		Workers: 2,
		Runner: func(ctx context.Context, u Unit) (scenario.RunReport, error) {
			if u.Seed == 2 {
				// Block until the sweep is cancelled, like a unit caught
				// mid-simulation when the budget expires.
				<-ctx.Done()
				return scenario.RunReport{}, ctx.Err()
			}
			return fakeRun(u), nil
		},
		OnResult: func(res UnitResult) {
			if res.Err == nil && res.Unit.Seed == 1 {
				cancel() // first completed unit pulls the plug
			}
		},
	}
	agg, err := Run(ctx, spec, opts)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("Run error = %v; want interrupted", err)
	}
	if agg == nil {
		t.Fatal("cancelled Run must still return the partial aggregate")
	}
	if agg.Failed == 0 || agg.Failed == agg.Units {
		t.Fatalf("Failed=%d of %d; want a partial sweep", agg.Failed, agg.Units)
	}
}

// TestBudgetBoundsSweep: a sweep over budget stops instead of running to
// completion.
func TestBudgetBoundsSweep(t *testing.T) {
	spec := Spec{Scenarios: []string{"paper-fig5"}, Sizes: []int{100, 200, 300, 400}}
	agg, err := Run(context.Background(), spec, Options{
		Workers: 1,
		Budget:  30 * time.Millisecond,
		Runner: func(ctx context.Context, u Unit) (scenario.RunReport, error) {
			select {
			case <-time.After(25 * time.Millisecond):
				return fakeRun(u), nil
			case <-ctx.Done():
				return scenario.RunReport{}, ctx.Err()
			}
		},
	})
	if err == nil {
		t.Fatal("sweep finished under an impossible budget without error")
	}
	if agg == nil || agg.Failed == 0 {
		t.Fatalf("expected budget-failed units in the aggregate, got %+v", agg)
	}
}

// TestMultiSeedStatistics: per-cell distributions must summarize the
// per-seed values, and the renderings must show median plus spread.
func TestMultiSeedStatistics(t *testing.T) {
	spec := Spec{Scenarios: []string{"paper-fig5"}, Sizes: []int{100}, Seeds: []int64{1, 2, 3}}
	agg, err := Run(context.Background(), spec, Options{
		Runner: func(_ context.Context, u Unit) (scenario.RunReport, error) {
			r := fakeRun(u)
			// Standalone blackout scales with the seed: 100, 200, 300 ms
			// (max 120, 240, 360); supercharged stays flat at 150/180.
			if u.Mode == sim.Standalone {
				c := 100.0 * float64(u.Seed)
				r.Events[0].Convergence = &scenario.ConvergenceSummary{
					Samples: 10, P50MS: c, MaxMS: c * 1.2,
				}
			}
			return r, nil
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	cs := agg.Scenarios[0].Comparisons
	if len(cs) != 1 {
		t.Fatalf("got %d comparisons, want 1 (seeds aggregated into one row)", len(cs))
	}
	c := cs[0]
	if c.Seeds != 3 {
		t.Fatalf("Seeds = %d, want 3", c.Seeds)
	}
	sa := c.Standalone
	if sa == nil || sa.P50 == nil || sa.Max == nil {
		t.Fatalf("standalone stats missing: %+v", sa)
	}
	if sa.Seeds != 3 || sa.Affected != 30 || sa.Recovered != 30 {
		t.Fatalf("flow totals wrong: %+v", sa)
	}
	if sa.P50.N != 3 || sa.P50.MinMS != 100 || sa.P50.MedianMS != 200 || sa.P50.MaxMS != 300 {
		t.Fatalf("p50 dist wrong: %+v", sa.P50)
	}
	if sa.P50.MeanMS != 200 || sa.P50.IQRMS != 100 {
		t.Fatalf("mean/IQR wrong: %+v", sa.P50)
	}
	// Speedup compares medians across seeds: 240 (standalone median max)
	// over 180 (supercharged, flat).
	if got, want := c.SpeedupMax, 240.0/180.0; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("SpeedupMax = %v, want %v", got, want)
	}
	doc := string(agg.Markdown(MarkdownOptions{}))
	if !strings.Contains(doc, "| seeds |") {
		t.Error("markdown comparison table lacks the seeds column")
	}
	if !strings.Contains(doc, "[100ms–300ms]") {
		t.Errorf("markdown lacks the spread cell, got:\n%s", doc)
	}
	if !strings.Contains(agg.RenderTable(), "[100ms–300ms]") {
		t.Error("text table lacks the spread cell")
	}
}

func TestParseSeeds(t *testing.T) {
	cases := []struct {
		in   string
		want string
		err  bool
	}{
		{"", "[]", false},
		{"5", "[1 2 3 4 5]", false}, // bare integer = seed count
		{"7,11", "[7 11]", false},   // list = explicit seeds
		{"3,", "[3]", false},        // trailing comma tolerated
		{" 2 ", "[1 2]", false},     // count, trimmed
		{"0", "", true},             // zero count
		{"-3", "", true},            // negative count
		{"x", "", true},             // not a number
		{"1,x", "", true},           // bad list element
		{"0,1", "", true},           // zero seed in a list
		{"-5,2", "", true},          // negative seed in a list
	}
	for _, tc := range cases {
		got, err := ParseSeeds(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParseSeeds(%q): want error, got %v", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSeeds(%q): %v", tc.in, err)
			continue
		}
		if fmt.Sprint(got) != tc.want {
			t.Errorf("ParseSeeds(%q) = %v, want %s", tc.in, got, tc.want)
		}
	}
}

package sim

import (
	"context"
	"reflect"
	"testing"
	"time"

	"supercharged/internal/metrics"
)

// failPrimary is the paper's Fig. 5 experiment as a timeline: two
// full-feed providers, the primary R2 cut 1 s after steady state, 100
// probed flows.
func failPrimary(mode Mode, prefixes int, seed int64) TimelineConfig {
	cfg := timelineConfig(mode, prefixes,
		TimelineEvent{At: time.Second, Kind: EventPeerDown, Peer: "R2"})
	cfg.NumFlows = 100
	cfg.Seed = seed
	return cfg
}

// gaps runs cfg and returns event 0's per-flow blackout gaps, failing the
// test if any affected flow never recovered.
func gaps(t *testing.T, cfg TimelineConfig) []time.Duration {
	t.Helper()
	ev := runTL(t, cfg).Events[0]
	if ev.Unrecovered != 0 || ev.Recovered != ev.Affected {
		t.Fatalf("affected %d recovered %d unrecovered %d", ev.Affected, ev.Recovered, ev.Unrecovered)
	}
	return ev.Convergence
}

func summary(t *testing.T, cfg TimelineConfig) metrics.Summary {
	t.Helper()
	return metrics.SummarizeDurations(gaps(t, cfg))
}

func TestStandaloneConvergenceIsLinear(t *testing.T) {
	// The paper's core baseline behaviour: worst-case convergence grows
	// linearly with the prefix count (≈ fixed + N × perEntry).
	maxSmall := summary(t, failPrimary(Standalone, 1000, 1)).Max
	maxBig := summary(t, failPrimary(Standalone, 10000, 1)).Max

	// Slope check: (maxBig-maxSmall)/(9000 entries) ≈ 280µs within 20%.
	slope := (maxBig - maxSmall) / 9000
	if slope < 0.000280*0.8 || slope > 0.000280*1.2 {
		t.Fatalf("per-entry slope %.0fµs, want ≈280µs", slope*1e6)
	}
}

func TestStandaloneWorstCaseMatchesPaperShape(t *testing.T) {
	conv := gaps(t, failPrimary(Standalone, 1000, 1))
	s := metrics.SummarizeDurations(conv)
	// Paper @1k: max 0.9s. Ours must land in the same regime (0.4–1.2s).
	if s.Max < 0.4 || s.Max > 1.2 {
		t.Fatalf("1k worst case %.3fs outside [0.4,1.2]", s.Max)
	}
	// Best case must reflect detection+ctl+first entry (paper: 375 ms).
	if s.Min < 0.3 || s.Min > 0.8 {
		t.Fatalf("1k best case %.3fs outside [0.3,0.8]", s.Min)
	}
	if len(conv) != 100 {
		t.Fatalf("flows %d", len(conv))
	}
}

func TestFirstEntryMatchesPaperRegime(t *testing.T) {
	// E2: the best case across seeds 1–3 is the time to rewrite the first
	// FIB entry — detection 90 ms + control plane 285 ms + jitter ≥ 375 ms
	// (the paper's 375 ms), bounded above by jitter and quantization.
	best := time.Duration(1<<63 - 1)
	for seed := int64(1); seed <= 3; seed++ {
		for _, d := range gaps(t, failPrimary(Standalone, 1000, seed)) {
			best = min(best, d)
		}
	}
	if best < 350*time.Millisecond || best > 700*time.Millisecond {
		t.Fatalf("first-entry best case %v outside the paper's regime", best)
	}
}

func TestSuperchargedIsFlatAndFast(t *testing.T) {
	// Fig. 5's headline: supercharged convergence is ~150 ms regardless
	// of the number of prefixes.
	var maxes []float64
	for _, n := range []int{1000, 10000, 50000} {
		s := summary(t, failPrimary(Supercharged, n, 1))
		if s.Max > 0.160 {
			t.Fatalf("supercharged @%d max %.3fs exceeds 160ms", n, s.Max)
		}
		if s.Min < 0.050 {
			t.Fatalf("supercharged @%d min %.3fs suspiciously small", n, s.Min)
		}
		maxes = append(maxes, s.Max)
	}
	// Flat: spread across sizes within one flow-mod latency.
	spread := maxes[len(maxes)-1] - maxes[0]
	if spread < 0 {
		spread = -spread
	}
	if spread > 0.030 {
		t.Fatalf("supercharged spread %.3fs across sizes; not flat", spread)
	}
}

func TestSuperchargedSingleGroupSingleRewrite(t *testing.T) {
	// Two providers, full shared table: exactly one backup-group and one
	// rule rewrite on failure (Fig. 2's "only one entry needs to update").
	res := runTL(t, failPrimary(Supercharged, 2000, 3))
	if res.Groups != 1 {
		t.Fatalf("groups %d, want 1", res.Groups)
	}
	if res.RuleRewrites != 1 {
		t.Fatalf("rewrites %d, want 1", res.RuleRewrites)
	}
}

func TestDetectionTimeIsBFD(t *testing.T) {
	res := runTL(t, failPrimary(Supercharged, 1000, 1))
	want := 90 * time.Millisecond
	if res.Events[0].DetectAt != want {
		t.Fatalf("detected at %v, want %v", res.Events[0].DetectAt, want)
	}
}

func TestControlPlaneLagsDataPlaneWhenSupercharged(t *testing.T) {
	// The insight of the paper: data plane converges in ~150ms while the
	// router's FIB walk (control plane) takes its usual slow pace.
	cfg := failPrimary(Supercharged, 20000, 1)
	res := runTL(t, cfg)
	// Every flow's blackout starts at the cut, so the slowest gap bounds
	// when the data plane was done.
	if dp := time.Duration(metrics.SummarizeDurations(res.Events[0].Convergence).Max * float64(time.Second)); dp > 200*time.Millisecond {
		t.Fatalf("data plane %v", dp)
	}
	// 20000 entries × 280µs ≈ 5.6s of FIB walking afterwards.
	if cp := res.Elapsed - cfg.Events[0].At; cp < 3*time.Second {
		t.Fatalf("control plane done after only %v — FIB walk missing", cp)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	a := runTL(t, failPrimary(Standalone, 2000, 99))
	b := runTL(t, failPrimary(Standalone, 2000, 99))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

func TestSeedChangesJitter(t *testing.T) {
	sa := summary(t, failPrimary(Standalone, 1000, 1))
	sb := summary(t, failPrimary(Standalone, 1000, 2))
	if sa.Min == sb.Min && sa.Max == sb.Max {
		t.Fatal("different seeds produced identical distributions")
	}
}

func TestConvergencePositionCorrelation(t *testing.T) {
	// In the standalone router, a flow's convergence is ordered by its
	// prefix's FIB position — the entry-by-entry walk made visible.
	cfg := failPrimary(Standalone, 5000, 5)
	cfg.Config = cfg.Config.withDefaults()
	l := newLab(cfg.Config, cfg.Peers, cfg.Routers)
	l.tcfg = &cfg
	l.replicasLeft = 1
	if _, err := l.runTimeline(context.Background()); err != nil {
		t.Fatal(err)
	}
	type flow struct {
		pos  int
		conv time.Duration
	}
	var flows []flow
	for _, pr := range l.sortedProbes() {
		if len(pr.outages) != 1 || !pr.outages[0].ended {
			t.Fatalf("flow %v: outages %+v, want one that ended", pr.prefix, pr.outages)
		}
		pos, _ := pr.rtr.fib.Position(pr.prefix)
		flows = append(flows, flow{pos, l.quantizedGap(pr, pr.outages[0])})
	}
	if len(flows) != 100 {
		t.Fatalf("flows %d", len(flows))
	}
	for i := 0; i < len(flows); i++ {
		for j := 0; j < len(flows); j++ {
			if flows[i].pos < flows[j].pos && flows[i].conv > flows[j].conv {
				t.Fatalf("position %d converged after position %d", flows[i].pos, flows[j].pos)
			}
		}
	}
}

func TestGroupSize3SurvivesDoubleFailure(t *testing.T) {
	// Ablation A2: k=3 with 3 providers; primary fails, then the first
	// backup fails 500ms later; flows recover both times.
	cfg := failPrimary(Supercharged, 1000, 1)
	cfg.GroupSize = 3
	cfg.Peers = []PeerSpec{{Name: "R2"}, {Name: "R3"}, {Name: "R4"}}
	cfg.Events = append(cfg.Events,
		TimelineEvent{At: 1500 * time.Millisecond, Kind: EventPeerDown, Peer: "R3"})
	res := runTL(t, cfg)
	for _, ev := range res.Events {
		if ev.Unrecovered != 0 {
			t.Fatalf("event %d: %d flows never recovered", ev.Index, ev.Unrecovered)
		}
	}
	s := metrics.SummarizeDurations(res.Events[0].Convergence)
	// First-failure convergence still fast — and strictly positive (a
	// second failure must never shift a measured flow's window).
	if s.Max > 0.160 {
		t.Fatalf("first failover max %.3fs", s.Max)
	}
	if s.Min <= 0 {
		t.Fatalf("non-positive convergence %.3fs after double failure", s.Min)
	}
	if res.RuleRewrites < 2 {
		t.Fatalf("rewrites %d, want ≥2 (both failures)", res.RuleRewrites)
	}
}

func TestProbeQuantizationRespectsInterval(t *testing.T) {
	iv := 70 * time.Microsecond
	for _, d := range gaps(t, failPrimary(Supercharged, 1000, 1)) {
		if d%iv != 0 {
			t.Fatalf("convergence %v not quantized to %v", d, iv)
		}
	}
}

func TestImprovementFactorAtScale(t *testing.T) {
	// E5: the paper reports 900× at 512k. At 50k (kept CI-friendly) the
	// factor must already exceed ~80×.
	std := summary(t, failPrimary(Standalone, 50000, 1))
	sup := summary(t, failPrimary(Supercharged, 50000, 1))
	if f := std.Max / sup.Max; f < 80 {
		t.Fatalf("improvement factor %.0f× too small", f)
	}
}

func TestFig5ShapeOnReducedSweep(t *testing.T) {
	// Fig. 5 on a reduced sweep, two runs of 50 flows per cell pooled:
	// standalone maxima grow with the table, supercharged stays under
	// 160 ms, and at the largest size the supercharged worst case beats
	// the standalone best case (the crossover) by a wide factor.
	sizes := []int{1000, 5000, 10000}
	cell := func(mode Mode, n int) metrics.Summary {
		var all []time.Duration
		for run := int64(0); run < 2; run++ {
			cfg := failPrimary(mode, n, 3+run*7919)
			cfg.NumFlows = 50
			all = append(all, gaps(t, cfg)...)
		}
		return metrics.SummarizeDurations(all)
	}
	var std, sup metrics.Summary
	for i, n := range sizes {
		prev := std
		std, sup = cell(Standalone, n), cell(Supercharged, n)
		if i > 0 && std.Max <= prev.Max {
			t.Fatalf("standalone max %.3fs @%d not above %.3fs @%d", std.Max, n, prev.Max, sizes[i-1])
		}
		if sup.Max > 0.160 {
			t.Fatalf("supercharged max %.3fs @%d", sup.Max, n)
		}
	}
	if sup.Max >= std.Min {
		t.Fatalf("supercharged max %.3fs not below standalone min %.3fs", sup.Max, std.Min)
	}
	if f := std.Max / sup.Max; f < 10 {
		t.Fatalf("improvement factor %.1f too small even at 10k", f)
	}
}

func TestConvergenceMonotoneInBFDInterval(t *testing.T) {
	// Ablation A3: supercharged convergence versus the BFD transmit
	// interval — detection is the largest share of the ~150 ms budget.
	var prev struct{ detect, max time.Duration }
	for i, iv := range []time.Duration{
		10 * time.Millisecond, 30 * time.Millisecond,
		50 * time.Millisecond, 100 * time.Millisecond,
	} {
		cfg := failPrimary(Supercharged, 2000, 1)
		cfg.BFDInterval = iv
		res := runTL(t, cfg)
		detect := res.Events[0].DetectAt
		worst := time.Duration(metrics.SummarizeDurations(res.Events[0].Convergence).Max * float64(time.Second))
		if i > 0 && worst < prev.max {
			t.Fatalf("interval %v: max convergence %v below %v at the shorter interval", iv, worst, prev.max)
		}
		if i > 0 && detect <= prev.detect {
			t.Fatalf("interval %v: detection %v did not grow from %v", iv, detect, prev.detect)
		}
		prev.detect, prev.max = detect, worst
	}
}

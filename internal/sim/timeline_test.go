package sim

import (
	"context"
	"testing"
	"time"
)

// timelineConfig builds a 2-peer timeline base config for tests.
func timelineConfig(mode Mode, prefixes int, events ...TimelineEvent) TimelineConfig {
	return TimelineConfig{
		Config: Config{Mode: mode, NumPrefixes: prefixes, NumFlows: 50, Seed: 1},
		Peers:  []PeerSpec{{Name: "R2"}, {Name: "R3"}},
		Events: events,
	}
}

func runTL(t *testing.T, cfg TimelineConfig) *TimelineResult {
	t.Helper()
	res, err := RunTimeline(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunTimelineCancelled: a cancelled context stops the simulation
// between events and surfaces the context error instead of a partial
// (meaningless) measurement.
func TestRunTimelineCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead before the first event fires
	cfg := timelineConfig(Standalone, 2000,
		TimelineEvent{At: time.Second, Kind: EventPeerDown, Peer: "R2"})
	res, err := RunTimeline(ctx, cfg)
	if err == nil {
		t.Fatal("cancelled RunTimeline returned no error")
	}
	if res != nil {
		t.Fatalf("cancelled RunTimeline returned a partial result: %+v", res)
	}
	if got := context.Cause(ctx); got != context.Canceled {
		t.Fatalf("unexpected cause: %v", got)
	}
}

func TestTimelineValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*TimelineConfig)
	}{
		{"zero prefixes", func(c *TimelineConfig) { c.NumPrefixes = 0 }},
		{"no peers", func(c *TimelineConfig) { c.Peers = nil }},
		{"one peer", func(c *TimelineConfig) { c.Peers = c.Peers[:1] }},
		{"duplicate peers", func(c *TimelineConfig) { c.Peers[1].Name = "R2" }},
		{"unknown kind", func(c *TimelineConfig) { c.Events[0].Kind = "quake" }},
		{"negative at", func(c *TimelineConfig) { c.Events[0].At = -1 }},
		{"unknown peer", func(c *TimelineConfig) { c.Events[0].Peer = "R7" }},
		{"missing peer", func(c *TimelineConfig) { c.Events[0].Peer = "" }},
		{"bad detection", func(c *TimelineConfig) { c.Events[0].Detection = "sixth-sense" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := timelineConfig(Supercharged, 1000,
				TimelineEvent{At: time.Second, Kind: EventPeerDown, Peer: "R2"})
			tc.mutate(&cfg)
			if _, err := RunTimeline(context.Background(), cfg); err == nil {
				t.Fatal("invalid timeline accepted")
			}
		})
	}
}

func TestTimelineSingleFailureMatchesRunShape(t *testing.T) {
	// One BFD-detected peer-down is the paper's Fig. 5 experiment.
	res := runTL(t, timelineConfig(Supercharged, 2000,
		TimelineEvent{At: time.Second, Kind: EventPeerDown, Peer: "R2"}))
	ev := res.Events[0]
	if ev.DetectAt != 90*time.Millisecond {
		t.Fatalf("detect at %v, want 90ms (BFD)", ev.DetectAt)
	}
	if ev.Affected != 50 || ev.Recovered != 50 {
		t.Fatalf("affected %d recovered %d, want 50/50", ev.Affected, ev.Recovered)
	}
	for _, d := range ev.Convergence {
		if d > 160*time.Millisecond {
			t.Fatalf("supercharged convergence %v > 160ms", d)
		}
	}
	if res.RuleRewrites != 1 {
		t.Fatalf("rewrites %d, want 1", res.RuleRewrites)
	}
}

func TestTimelineHoldTimerDetection(t *testing.T) {
	cfg := timelineConfig(Supercharged, 1000,
		TimelineEvent{At: time.Second, Kind: EventPeerDown, Peer: "R2", Detection: DetectHoldTimer})
	cfg.HoldTimer = 9 * time.Second
	res := runTL(t, cfg)
	if res.Events[0].DetectAt != 9*time.Second {
		t.Fatalf("detect at %v, want 9s hold timer", res.Events[0].DetectAt)
	}
	for _, d := range res.Events[0].Convergence {
		if d < 9*time.Second {
			t.Fatalf("convergence %v below detection time", d)
		}
	}
}

func TestTimelineAbsorbedFlap(t *testing.T) {
	// Hold below BFD detection (90ms): the failure is never declared —
	// no detection, no rule rewrite, blackout ≈ hold in BOTH modes.
	for _, mode := range []Mode{Standalone, Supercharged} {
		res := runTL(t, timelineConfig(mode, 1000,
			TimelineEvent{At: time.Second, Kind: EventLinkFlap, Peer: "R2", Hold: 50 * time.Millisecond}))
		ev := res.Events[0]
		if ev.DetectAt != 0 {
			t.Fatalf("%v: absorbed flap was detected at %v", mode, ev.DetectAt)
		}
		if ev.Affected == 0 || ev.Unrecovered != 0 {
			t.Fatalf("%v: affected %d unrecovered %d", mode, ev.Affected, ev.Unrecovered)
		}
		for _, d := range ev.Convergence {
			if d < 50*time.Millisecond || d > 51*time.Millisecond {
				t.Fatalf("%v: absorbed-flap blackout %v, want ≈50ms", mode, d)
			}
		}
		if res.RuleRewrites != 0 {
			t.Fatalf("%v: %d rule rewrites for an absorbed flap", mode, res.RuleRewrites)
		}
	}
}

func TestTimelineDetectedFlapRecoversAndRestores(t *testing.T) {
	// A long flap fails over, then the peer comes back and re-announces:
	// the FIB must end up preferring the primary again with no second
	// outage.
	res := runTL(t, timelineConfig(Supercharged, 1000,
		TimelineEvent{At: time.Second, Kind: EventLinkFlap, Peer: "R2", Hold: 3 * time.Second}))
	ev := res.Events[0]
	if ev.DetectAt != 90*time.Millisecond {
		t.Fatalf("detect at %v", ev.DetectAt)
	}
	if ev.Affected != 50 || ev.Unrecovered != 0 {
		t.Fatalf("affected %d unrecovered %d", ev.Affected, ev.Unrecovered)
	}
	// Failover rewrite + restoration rewrite.
	if res.RuleRewrites != 2 {
		t.Fatalf("rewrites %d, want 2 (failover + restore)", res.RuleRewrites)
	}
}

func TestTimelineRuleLossResync(t *testing.T) {
	res := runTL(t, timelineConfig(Supercharged, 1000,
		TimelineEvent{At: time.Second, Kind: EventRuleLoss}))
	ev := res.Events[0]
	if ev.Affected != 50 || ev.Unrecovered != 0 {
		t.Fatalf("affected %d unrecovered %d, want 50/0", ev.Affected, ev.Unrecovered)
	}
	// Recovery = controller notices (15ms) + push (15+25ms): fast and flat.
	for _, d := range ev.Convergence {
		if d > 100*time.Millisecond {
			t.Fatalf("resync convergence %v > 100ms", d)
		}
	}
	// Standalone forwards router→switch ports directly: rule loss is
	// invisible.
	res = runTL(t, timelineConfig(Standalone, 1000,
		TimelineEvent{At: time.Second, Kind: EventRuleLoss}))
	if res.Events[0].Affected != 0 {
		t.Fatalf("standalone affected by rule loss: %d", res.Events[0].Affected)
	}
}

func TestTimelineControllerRestartDefersFailover(t *testing.T) {
	// Failure lands inside the restart window: convergence waits for the
	// controller to come back (~2.5s) instead of the usual ~150ms.
	res := runTL(t, timelineConfig(Supercharged, 1000,
		TimelineEvent{At: time.Second, Kind: EventControllerRestart, Hold: 3 * time.Second},
		TimelineEvent{At: 1500 * time.Millisecond, Kind: EventPeerDown, Peer: "R2"}))
	ev := res.Events[1]
	if ev.Affected != 50 || ev.Unrecovered != 0 {
		t.Fatalf("affected %d unrecovered %d", ev.Affected, ev.Unrecovered)
	}
	for _, d := range ev.Convergence {
		if d < 2*time.Second || d > 3*time.Second {
			t.Fatalf("deferred convergence %v, want ~2.5s (wait for controller)", d)
		}
	}
}

func TestTimelinePartialWithdrawIsPerEntryInBothModes(t *testing.T) {
	var maxes []time.Duration
	for _, mode := range []Mode{Standalone, Supercharged} {
		res := runTL(t, timelineConfig(mode, 2000,
			TimelineEvent{At: time.Second, Kind: EventPartialWithdraw, Peer: "R2", Fraction: 0.5}))
		ev := res.Events[0]
		if ev.Affected == 0 || ev.Unrecovered != 0 {
			t.Fatalf("%v: affected %d unrecovered %d", mode, ev.Affected, ev.Unrecovered)
		}
		var max time.Duration
		for _, d := range ev.Convergence {
			if d > max {
				max = d
			}
		}
		// Convergence is a control-plane FIB walk, well above the
		// supercharged fast path.
		if max < 200*time.Millisecond {
			t.Fatalf("%v: withdraw converged in %v — suspiciously fast", mode, max)
		}
		maxes = append(maxes, max)
	}
	// The supercharger must NOT accelerate per-prefix withdraws: both
	// modes pay a comparable per-entry walk (within 3x of each other).
	if maxes[1] > 3*maxes[0] || maxes[0] > 3*maxes[1] {
		t.Fatalf("withdraw asymmetry: standalone %v vs supercharged %v", maxes[0], maxes[1])
	}
}

func TestTimelineAsymmetricFeedsLeaveUncoveredPrefixesDown(t *testing.T) {
	// R3 advertises only the first half of the table: prefixes beyond it
	// have no backup, so after R2 dies some flows never recover.
	cfg := TimelineConfig{
		Config: Config{Mode: Supercharged, NumPrefixes: 2000, NumFlows: 50, Seed: 1},
		Peers:  []PeerSpec{{Name: "R2"}, {Name: "R3", Prefixes: 1000}},
		Events: []TimelineEvent{{At: time.Second, Kind: EventPeerDown, Peer: "R2"}},
	}
	res := runTL(t, cfg)
	ev := res.Events[0]
	if ev.Unrecovered == 0 {
		t.Fatal("no unrecovered flows despite half-size backup feed")
	}
	if ev.Recovered == 0 {
		t.Fatal("no recovered flows despite covered half")
	}
	if ev.Recovered+ev.Unrecovered != ev.Affected {
		t.Fatalf("accounting: %d + %d != %d", ev.Recovered, ev.Unrecovered, ev.Affected)
	}
}

func TestTimelineSessionBounceClearsPartialWithdraw(t *testing.T) {
	// Withdraw part of the table, then bounce the peer: the fresh session
	// replays the full feed, superseding the withdraw — no flow may stay
	// down for good.
	res := runTL(t, timelineConfig(Standalone, 1000,
		TimelineEvent{At: 1 * time.Second, Kind: EventPartialWithdraw, Peer: "R2", Fraction: 0.5},
		TimelineEvent{At: 5 * time.Second, Kind: EventPeerDown, Peer: "R2"},
		TimelineEvent{At: 10 * time.Second, Kind: EventPeerUp, Peer: "R2"}))
	for _, ev := range res.Events {
		if ev.Unrecovered != 0 {
			t.Fatalf("event %d (%s): %d flows never recovered after session bounce",
				ev.Index, ev.Kind, ev.Unrecovered)
		}
	}
}

func TestTimelineManyPeersFirstIsPrimary(t *testing.T) {
	// Auto weights must stay positive and descending for any peer count:
	// with 13 unweighted peers, killing the first must still black out
	// every flow (it was the primary for the whole table).
	peers := make([]PeerSpec, 13)
	cfg := TimelineConfig{
		Config: Config{Mode: Standalone, NumPrefixes: 1000, NumFlows: 20, Seed: 1},
		Peers:  peers,
		Events: []TimelineEvent{{At: time.Second, Kind: EventPeerDown, Peer: "R2"}},
	}
	res := runTL(t, cfg)
	if ev := res.Events[0]; ev.Affected != 20 || ev.Unrecovered != 0 {
		t.Fatalf("primary failure with 13 peers: affected %d unrecovered %d, want 20/0",
			ev.Affected, ev.Unrecovered)
	}
}

func TestTimelineDeterministic(t *testing.T) {
	cfg := timelineConfig(Standalone, 2000,
		TimelineEvent{At: time.Second, Kind: EventLinkFlap, Peer: "R2", Hold: 3 * time.Second},
		TimelineEvent{At: 6 * time.Second, Kind: EventPartialWithdraw, Peer: "R2", Fraction: 0.25})
	cfg.Seed = 99
	a := runTL(t, cfg)
	b := runTL(t, cfg)
	if len(a.Events) != len(b.Events) || a.FIBWrites != b.FIBWrites || a.Elapsed != b.Elapsed {
		t.Fatalf("top-level results differ: %+v vs %+v", a, b)
	}
	for i := range a.Events {
		ae, be := a.Events[i], b.Events[i]
		if ae.Affected != be.Affected || ae.Recovered != be.Recovered || ae.DetectAt != be.DetectAt {
			t.Fatalf("event %d differs: %+v vs %+v", i, ae, be)
		}
		if len(ae.Convergence) != len(be.Convergence) {
			t.Fatalf("event %d sample counts differ", i)
		}
		for j := range ae.Convergence {
			if ae.Convergence[j] != be.Convergence[j] {
				t.Fatalf("event %d sample %d: %v vs %v", i, j, ae.Convergence[j], be.Convergence[j])
			}
		}
	}
}

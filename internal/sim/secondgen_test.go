package sim

// Tests for the second-generation event model: shared-risk link groups,
// session resets with and without graceful restart, and background
// UPDATE noise. Each test pins the outage accounting — affected /
// recovered / unrecovered flows and the qualitative convergence shape —
// that docs/scenarios.md promises for the corresponding builtin.

import (
	"context"
	"testing"
	"time"
)

func maxConv(ev EventResult) time.Duration {
	var max time.Duration
	for _, d := range ev.Convergence {
		if d > max {
			max = d
		}
	}
	return max
}

func TestSRLGDownKillsAllMembersAtOnce(t *testing.T) {
	// R2 and R3 share a conduit; k=3 groups know the surviving R4, so the
	// supercharger recovers every flow with constant-time rewrites.
	cfg := TimelineConfig{
		Config: Config{Mode: Supercharged, NumPrefixes: 2000, NumFlows: 50, Seed: 1, GroupSize: 3},
		Peers:  []PeerSpec{{Name: "R2"}, {Name: "R3"}, {Name: "R4"}},
		Events: []TimelineEvent{{At: time.Second, Kind: EventSRLGDown, Peers: []string{"R2", "R3"}}},
	}
	res := runTL(t, cfg)
	ev := res.Events[0]
	if ev.Peer != "R2+R3" {
		t.Fatalf("event peer label %q, want R2+R3", ev.Peer)
	}
	if ev.DetectAt != 90*time.Millisecond {
		t.Fatalf("detect at %v, want 90ms (BFD)", ev.DetectAt)
	}
	if ev.Affected != 50 || ev.Unrecovered != 0 {
		t.Fatalf("affected %d unrecovered %d, want 50/0", ev.Affected, ev.Unrecovered)
	}
	if max := maxConv(ev); max > 200*time.Millisecond {
		t.Fatalf("supercharged SRLG convergence %v, want constant-time (<200ms)", max)
	}

	// Standalone recovers too (R4 is in its RIB), but per-entry.
	cfg.Mode = Standalone
	cfg.Config.GroupSize = 3
	res = runTL(t, cfg)
	ev = res.Events[0]
	if ev.Affected != 50 || ev.Unrecovered != 0 {
		t.Fatalf("standalone affected %d unrecovered %d, want 50/0", ev.Affected, ev.Unrecovered)
	}
	if max := maxConv(ev); max < 200*time.Millisecond {
		t.Fatalf("standalone SRLG convergence %v — should pay the FIB walk", max)
	}
}

func TestSRLGDownExhaustsPairGroups(t *testing.T) {
	// With k=2 groups over (R2, R3), losing both members leaves the
	// supercharger nothing to retarget to: flows stay black. The honest
	// accounting (unrecovered, not silently dropped) is the point.
	cfg := TimelineConfig{
		Config: Config{Mode: Supercharged, NumPrefixes: 1000, NumFlows: 30, Seed: 1},
		Peers:  []PeerSpec{{Name: "R2"}, {Name: "R3"}},
		Events: []TimelineEvent{{At: time.Second, Kind: EventSRLGDown, Peers: []string{"R2", "R3"}}},
	}
	res := runTL(t, cfg)
	ev := res.Events[0]
	if ev.Affected != 30 || ev.Unrecovered != 30 {
		t.Fatalf("affected %d unrecovered %d, want 30/30 (no surviving member)", ev.Affected, ev.Unrecovered)
	}
}

func TestSessionResetHardIsAnnouncedNotDetected(t *testing.T) {
	// A hard reset blacks traffic out for the restart window, but there is
	// no detection latency: the supercharger reacts immediately and
	// converges in ControllerReact+FlowModLatency, under the 130 ms
	// BFD-detected baseline.
	res := runTL(t, timelineConfig(Supercharged, 2000,
		TimelineEvent{At: time.Second, Kind: EventSessionReset, Peer: "R2"}))
	ev := res.Events[0]
	if ev.DetectAt != 0 {
		t.Fatalf("announced reset has detection latency %v", ev.DetectAt)
	}
	if ev.Affected != 50 || ev.Unrecovered != 0 {
		t.Fatalf("affected %d unrecovered %d, want 50/0", ev.Affected, ev.Unrecovered)
	}
	if max := maxConv(ev); max > 90*time.Millisecond {
		t.Fatalf("supercharged reset convergence %v, want <90ms (no detection term)", max)
	}

	// Standalone pays RouterCtl + the FIB walk, capped by the 1 s session
	// restore: strictly slower than the supercharger.
	res = runTL(t, timelineConfig(Standalone, 2000,
		TimelineEvent{At: time.Second, Kind: EventSessionReset, Peer: "R2"}))
	ev = res.Events[0]
	if ev.Affected != 50 || ev.Unrecovered != 0 {
		t.Fatalf("standalone affected %d unrecovered %d, want 50/0", ev.Affected, ev.Unrecovered)
	}
	if max := maxConv(ev); max < 200*time.Millisecond {
		t.Fatalf("standalone reset convergence %v — should pay the control plane + walk", max)
	}
}

func TestSessionResetGracefulRestartPreservesForwarding(t *testing.T) {
	// RFC 4724: forwarding state survives the restart, so the data plane
	// never notices in either mode. The full-feed replay is churn only —
	// and the supercharged controller's semantic filter keeps even that
	// away from the router.
	for _, mode := range []Mode{Standalone, Supercharged} {
		res := runTL(t, timelineConfig(mode, 1000,
			TimelineEvent{At: time.Second, Kind: EventSessionReset, Peer: "R2", Graceful: true}))
		ev := res.Events[0]
		if ev.Affected != 0 {
			t.Fatalf("%v: graceful restart blacked out %d flows", mode, ev.Affected)
		}
		switch mode {
		case Standalone:
			if res.FIBWrites == 0 {
				t.Fatal("standalone: graceful replay caused no FIB churn — the naive router should rewrite entries")
			}
		case Supercharged:
			if res.FIBWrites != 0 {
				t.Fatalf("supercharged: %d FIB writes leaked through the churn filter", res.FIBWrites)
			}
		}
	}
}

func TestSessionResetCustomRestartWindow(t *testing.T) {
	// Hold overrides the re-establishment delay: with a 5 s restart the
	// standalone walk finishes first, so the worst blackout tracks the
	// walk, and no flow outlives the restore.
	cfg := timelineConfig(Standalone, 1000,
		TimelineEvent{At: time.Second, Kind: EventSessionReset, Peer: "R2", Hold: 5 * time.Second})
	res := runTL(t, cfg)
	ev := res.Events[0]
	if ev.Unrecovered != 0 {
		t.Fatalf("%d flows never recovered", ev.Unrecovered)
	}
	if max := maxConv(ev); max > 5100*time.Millisecond {
		t.Fatalf("blackout %v beyond the 5s restore", max)
	}
}

func TestUpdateNoiseDelaysStandaloneNotSupercharged(t *testing.T) {
	failover := TimelineEvent{At: 2 * time.Second, Kind: EventPeerDown, Peer: "R2"}
	noise := TimelineEvent{At: 500 * time.Millisecond, Kind: EventUpdateNoise,
		Peer: "R3", Hold: 4 * time.Second, Rate: 5000}

	worst := func(mode Mode, events ...TimelineEvent) time.Duration {
		res := runTL(t, timelineConfig(mode, 2000, events...))
		for _, ev := range res.Events {
			if ev.Kind == EventUpdateNoise && ev.Affected != 0 {
				t.Fatalf("%v: noise itself blacked out %d flows", mode, ev.Affected)
			}
			if ev.Kind == EventPeerDown && (ev.Affected == 0 || ev.Unrecovered != 0) {
				t.Fatalf("%v: failover affected %d unrecovered %d", mode, ev.Affected, ev.Unrecovered)
			}
		}
		for _, ev := range res.Events {
			if ev.Kind == EventPeerDown {
				return maxConv(ev)
			}
		}
		t.Fatal("no failover event in result")
		return 0
	}

	// Standalone: the failure's FIB walk queues behind the noise backlog.
	quietSA := worst(Standalone, failover)
	noisySA := worst(Standalone, noise, failover)
	if noisySA <= quietSA {
		t.Fatalf("standalone under noise converged in %v, quiet %v — backlog had no effect", noisySA, quietSA)
	}

	// Supercharged: the churn filter keeps the router idle; convergence
	// stays at the constant baseline.
	noisySC := worst(Supercharged, noise, failover)
	if noisySC > 200*time.Millisecond {
		t.Fatalf("supercharged under noise converged in %v, want constant-time (<200ms)", noisySC)
	}
}

func TestFeedWindowsDiversifyGroups(t *testing.T) {
	// Staggered circular windows give different prefixes different
	// covering peer sets: the group table must hold several distinct
	// (primary, backup) pairs, where nested Head feeds would yield one.
	peers := []PeerSpec{
		{Name: "R2", Prefixes: 400, Offset: 0},
		{Name: "R3", Prefixes: 400, Offset: 250},
		{Name: "R4", Prefixes: 400, Offset: 500},
		{Name: "R5", Prefixes: 400, Offset: 750},
	}
	cfg := TimelineConfig{
		Config: Config{Mode: Supercharged, NumPrefixes: 1000, NumFlows: 20, Seed: 1},
		Peers:  peers,
		Events: []TimelineEvent{{At: time.Second, Kind: EventPeerDown, Peer: "R2"}},
	}
	res := runTL(t, cfg)
	if res.Groups < 4 {
		t.Fatalf("windowed fabric allocated %d groups, want ≥4 distinct pairs", res.Groups)
	}
	ev := res.Events[0]
	if ev.Affected == 0 {
		t.Fatal("primary failure affected no flows")
	}
	if ev.Unrecovered != 0 {
		t.Fatalf("%d flows unrecovered despite 1.6× coverage", ev.Unrecovered)
	}
}

func TestSessionResetSurvivesAbsorbedFlapAcrossRestore(t *testing.T) {
	// A sub-detection flap spanning the hard reset's restore instant must
	// not cancel the re-establishment for good: the session still comes
	// back and every flow recovers (regression: the restore closure bailed
	// on a down link and the absorbed-flap path never replayed).
	res := runTL(t, timelineConfig(Standalone, 1000,
		TimelineEvent{At: 1 * time.Second, Kind: EventSessionReset, Peer: "R2"},
		TimelineEvent{At: 1960 * time.Millisecond, Kind: EventLinkFlap, Peer: "R2", Hold: 80 * time.Millisecond}))
	for _, ev := range res.Events {
		if ev.Unrecovered != 0 {
			t.Fatalf("event %d (%s): %d flows never recovered — session lost forever",
				ev.Index, ev.Kind, ev.Unrecovered)
		}
	}
}

func TestDeadPeerEmitsNothing(t *testing.T) {
	// A peer whose link or session is down cannot announce or withdraw:
	// burst-reannounce and partial-withdraw after a peer-down must not
	// resurrect its routes (the FIB would point at a dead peer forever).
	for _, tail := range []TimelineEvent{
		{At: 3 * time.Second, Kind: EventBurstReannounce, Peer: "R2"},
		{At: 3 * time.Second, Kind: EventPartialWithdraw, Peer: "R2", Fraction: 0.5},
	} {
		res := runTL(t, timelineConfig(Standalone, 1000,
			TimelineEvent{At: time.Second, Kind: EventPeerDown, Peer: "R2"}, tail))
		for _, ev := range res.Events {
			if ev.Unrecovered != 0 {
				t.Fatalf("%s after peer-down: event %d left %d flows unrecovered",
					tail.Kind, ev.Index, ev.Unrecovered)
			}
		}
		if res.Events[1].Affected != 0 {
			t.Fatalf("%s from a dead peer affected %d flows", tail.Kind, res.Events[1].Affected)
		}
	}
}

func TestSecondGenValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*TimelineConfig)
	}{
		{"srlg one member", func(c *TimelineConfig) {
			c.Events[0] = TimelineEvent{At: time.Second, Kind: EventSRLGDown, Peers: []string{"R2"}}
		}},
		{"srlg unknown member", func(c *TimelineConfig) {
			c.Events[0] = TimelineEvent{At: time.Second, Kind: EventSRLGDown, Peers: []string{"R2", "R9"}}
		}},
		{"srlg duplicate member", func(c *TimelineConfig) {
			c.Events[0] = TimelineEvent{At: time.Second, Kind: EventSRLGDown, Peers: []string{"R2", "R2"}}
		}},
		{"peers on non-srlg", func(c *TimelineConfig) {
			c.Events[0].Peers = []string{"R2", "R3"}
		}},
		{"graceful on non-reset", func(c *TimelineConfig) {
			c.Events[0].Graceful = true
		}},
		{"rate on non-noise", func(c *TimelineConfig) {
			c.Events[0].Rate = 100
		}},
		{"noise without rate", func(c *TimelineConfig) {
			c.Events[0] = TimelineEvent{At: time.Second, Kind: EventUpdateNoise, Peer: "R2", Hold: time.Second}
		}},
		{"noise without hold", func(c *TimelineConfig) {
			c.Events[0] = TimelineEvent{At: time.Second, Kind: EventUpdateNoise, Peer: "R2", Rate: 100}
		}},
		{"noise volume over cap", func(c *TimelineConfig) {
			c.Events[0] = TimelineEvent{At: time.Second, Kind: EventUpdateNoise,
				Peer: "R2", Hold: time.Hour, Rate: 50_000}
		}},
		{"negative reset hold", func(c *TimelineConfig) {
			c.Events[0] = TimelineEvent{At: time.Second, Kind: EventSessionReset, Peer: "R2", Hold: -1}
		}},
		{"negative feed offset", func(c *TimelineConfig) {
			c.Peers[1].Offset = -5
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := timelineConfig(Supercharged, 1000,
				TimelineEvent{At: time.Second, Kind: EventPeerDown, Peer: "R2"})
			tc.mutate(&cfg)
			if _, err := RunTimeline(context.Background(), cfg); err == nil {
				t.Fatal("invalid second-generation timeline accepted")
			}
		})
	}
}

func TestSecondGenDeterministic(t *testing.T) {
	// A timeline mixing every new kind must reproduce byte-for-byte from
	// its seed — the property the pinned EXPERIMENTS.md and the fuzzer rest on.
	cfg := TimelineConfig{
		Config: Config{Mode: Supercharged, NumPrefixes: 1500, NumFlows: 40, Seed: 7, GroupSize: 3},
		Peers:  []PeerSpec{{Name: "R2"}, {Name: "R3"}, {Name: "R4", Prefixes: 800, Offset: 300}},
		Events: []TimelineEvent{
			{At: 500 * time.Millisecond, Kind: EventUpdateNoise, Peer: "R3", Hold: 2 * time.Second, Rate: 1000},
			{At: time.Second, Kind: EventSRLGDown, Peers: []string{"R2", "R3"}},
			{At: 4 * time.Second, Kind: EventPeerUp, Peer: "R2"},
			{At: 8 * time.Second, Kind: EventSessionReset, Peer: "R2"},
		},
	}
	a := runTL(t, cfg)
	b := runTL(t, cfg)
	if a.FIBWrites != b.FIBWrites || a.Elapsed != b.Elapsed || len(a.Events) != len(b.Events) {
		t.Fatalf("top-level results differ: %+v vs %+v", a, b)
	}
	for i := range a.Events {
		ae, be := a.Events[i], b.Events[i]
		if ae.Affected != be.Affected || ae.Recovered != be.Recovered ||
			ae.Unrecovered != be.Unrecovered || ae.DetectAt != be.DetectAt {
			t.Fatalf("event %d differs: %+v vs %+v", i, ae, be)
		}
		for j := range ae.Convergence {
			if ae.Convergence[j] != be.Convergence[j] {
				t.Fatalf("event %d sample %d: %v vs %v", i, j, ae.Convergence[j], be.Convergence[j])
			}
		}
	}
}

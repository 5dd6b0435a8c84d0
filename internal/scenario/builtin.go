package scenario

import (
	"fmt"
	"time"

	"supercharged/internal/sim"
)

// The built-in scenario catalogue. paper-fig5 reproduces the paper's one
// experiment; the rest are the failure patterns the paper's claim should
// — and sometimes does not — extend to. Every builtin carries its paper
// mapping (Paper) and expected qualitative outcome (Expect):
// docs/scenarios.md is generated from these fields (`cmd/scenario docs`)
// and CI fails when the two drift apart.
func init() {
	// --- first generation: single-failure timelines over the Fig. 4 shape ---

	MustRegister(Spec{
		Name: "paper-fig5",
		Description: "The paper's Fig. 5 experiment as a scenario: a single " +
			"BFD-detected primary-peer (R2) failure, swept across table sizes.",
		Paper: "§4, Fig. 5 (and the E1/E2 experiments around it) — the headline " +
			"comparison of supercharged vs standalone convergence against table size. " +
			"The maxima printed on the paper's standalone box plots are 0.9 s, " +
			"1.6 s, 3.4 s, 13.8 s, 29.2 s, 56.9 s, 86.4 s, 113.1 s and 140.9 s at " +
			"1k, 5k, 10k, 50k, 100k, 200k, 300k, 400k and 500k prefixes; the " +
			"supercharged router stays under 150 ms at every size.",
		Expect: "The headline claim. Supercharged convergence is flat (~130 ms: " +
			"90 ms BFD + 15 ms controller + 25 ms rule install) at every size; " +
			"standalone grows linearly with the prefix count — ~28 s at 100 k " +
			"entries — because each affected prefix waits for its position in the " +
			"FIB walk.",
		Peers: []Peer{{Name: "R2"}, {Name: "R3"}},
		Events: []Event{
			{At: 1 * time.Second, Kind: sim.EventPeerDown, Peer: "R2"},
		},
		PrefixSweep: []int{1_000, 10_000, 50_000, 100_000},
	})

	xlSizes, ok := TierSizes("xl")
	if !ok {
		panic("scenario: size tier \"xl\" missing from the tier registry")
	}
	MustRegister(Spec{
		Name: "paper-fig5-xl",
		Description: "The Fig. 5 failover at full-Internet scale: the same single " +
			"BFD-detected primary failure at the xl size tier (100k and 1M " +
			"prefixes), seed-capped to keep CI within budget.",
		Paper: "§4, Fig. 5 extrapolated past the paper's 500k ceiling to ~1M " +
			"prefixes — today's full-table scale, the ROADMAP's north star. The " +
			"paper's linear fit predicts ~4.7 min of standalone blackout at 1M " +
			"entries (280 µs × 10⁶ after detection).",
		Expect: "Constant-time failover is only interesting if it holds where " +
			"the linear term hurts: supercharged convergence stays ~130 ms at " +
			"1M prefixes — the same number as at 1k — while standalone needs " +
			"minutes, a speedup over three orders of magnitude. One seed " +
			"(MaxSeeds 1): a 1M-prefix lab is deterministic per seed and the " +
			"sweep spends its repetitions on the cheap sizes.",
		Peers: []Peer{{Name: "R2"}, {Name: "R3"}},
		Events: []Event{
			{At: 1 * time.Second, Kind: sim.EventPeerDown, Peer: "R2"},
		},
		PrefixSweep: xlSizes,
		MaxSeeds:    1,
	})

	MustRegister(Spec{
		Name: "paper-fig5-real",
		Description: "The Fig. 5 failover replayed over a real routing table: " +
			"the committed RIS-style MRT sample (testdata/ris-sample.mrt) " +
			"instead of the synthetic feed, swept s through l.",
		Paper: "§4's experimental setup — the paper drives its testbed with a " +
			"RIB \"from one of our production routers\", not a generated one. " +
			"This scenario closes that gap: same failure, same sweep, but the " +
			"announced prefixes, AS paths and attribute-sharing skew come from " +
			"an MRT TABLE_DUMP_V2 dump (internal/mrt → feed.FromMRT).",
		Expect: "The headline claim must not depend on the synthetic feed's " +
			"attribute statistics: supercharged convergence stays flat " +
			"(~130 ms) and standalone linear over the real table too. Real " +
			"dumps share attribute sets far more unevenly than the generator " +
			"— this is the scenario that would expose a template-shape " +
			"dependence in the grouping pipeline. MaxSeeds 1: the table is " +
			"fixed, so seeds only move probe-flow choices.",
		Peers: []Peer{{Name: "R2"}, {Name: "R3"}},
		Events: []Event{
			{At: 1 * time.Second, Kind: sim.EventPeerDown, Peer: "R2"},
		},
		PrefixSweep: []int{1_000, 5_000, 10_000, 50_000},
		MaxSeeds:    1,
		Table:       "testdata/ris-sample.mrt",
	})

	MustRegister(Spec{
		Name: "double-failure",
		Description: "Primary fails, then the backup fails too (k=3 groups over " +
			"three providers).",
		Paper: "§3's backup-group construction (Listing 1 computes ordered " +
			"tuples, not just pairs); the ablation the paper sketches for k>2.",
		Expect: "The supercharger retargets every group twice, but each retarget " +
			"is still one rule rewrite, so both convergences stay ~150 ms. " +
			"Standalone pays the full FIB walk twice.",
		Peers:     []Peer{{Name: "R2"}, {Name: "R3"}, {Name: "R4"}},
		GroupSize: 3,
		Events: []Event{
			{At: 1 * time.Second, Kind: sim.EventPeerDown, Peer: "R2"},
			{At: 8 * time.Second, Kind: sim.EventPeerDown, Peer: "R3"},
		},
	})

	MustRegister(Spec{
		Name: "flap-storm",
		Description: "A flapping primary link: two sub-detection blips (50 ms, " +
			"absorbed before BFD declares anything) around one real 3 s outage " +
			"with full failover and restoration churn.",
		Paper: "§2's motivation that detection and convergence are separate " +
			"terms; stresses the detection boundary the paper's 150 ms number " +
			"sits on.",
		Expect: "The absorbed blips blackhole traffic for exactly their hold " +
			"time in both modes — no detection, no reaction, nothing the " +
			"supercharger can accelerate. Only the detected middle outage " +
			"separates the modes (~15× here).",
		Peers: []Peer{{Name: "R2"}, {Name: "R3"}},
		Events: []Event{
			{At: 1 * time.Second, Kind: sim.EventLinkFlap, Peer: "R2", Hold: 50 * time.Millisecond},
			{At: 3 * time.Second, Kind: sim.EventLinkFlap, Peer: "R2", Hold: 3 * time.Second},
			{At: 12 * time.Second, Kind: sim.EventLinkFlap, Peer: "R2", Hold: 50 * time.Millisecond},
		},
	})

	MustRegister(Spec{
		Name: "backup-then-primary",
		Description: "The backup (R3) dies first — no traffic impact, nothing to " +
			"rewrite — then the primary (R2) dies and the engine must skip the " +
			"dead backup and retarget straight to the tertiary (R4).",
		Paper: "The liveness bookkeeping inside Listing 2 (the engine consults " +
			"peer state when it picks a group's next target).",
		Expect: "The first event affects nothing; the second converges in one " +
			"rewrite per group — constant time — with traffic landing on R4. " +
			"Standalone re-walks the FIB on the second failure.",
		Peers:     []Peer{{Name: "R2"}, {Name: "R3"}, {Name: "R4"}},
		GroupSize: 3,
		Events: []Event{
			{At: 1 * time.Second, Kind: sim.EventPeerDown, Peer: "R3"},
			{At: 5 * time.Second, Kind: sim.EventPeerDown, Peer: "R2"},
		},
	})

	MustRegister(Spec{
		Name: "partial-withdraw",
		Description: "The primary withdraws 30% of its table while the link " +
			"stays up, then re-announces it in one burst 9 s later.",
		Paper: "§5's limits discussion. The supercharger accelerates " +
			"link-failure convergence; per-prefix routing changes are outside " +
			"the backup-group abstraction.",
		Expect: "The boundary case. No link failure means no group rewrite: the " +
			"withdrawn prefixes converge entry-by-entry in both modes (speedup " +
			"≈ 1). A reproduction that showed a supercharged win here would be " +
			"a bug.",
		Peers: []Peer{{Name: "R2"}, {Name: "R3"}},
		Events: []Event{
			{At: 1 * time.Second, Kind: sim.EventPartialWithdraw, Peer: "R2", Fraction: 0.3},
			{At: 10 * time.Second, Kind: sim.EventBurstReannounce, Peer: "R2"},
		},
	})

	MustRegister(Spec{
		Name: "rule-loss",
		Description: "The switch loses its entire flow table (reboot, table " +
			"eviction) under a healthy control plane; the controller resyncs " +
			"every group rule from its own state.",
		Paper: "The fate-sharing/failure-model discussion of putting an SDN " +
			"switch in the forwarding path (§5).",
		Expect: "The cost of the new dependency. Supercharged traffic rides the " +
			"VMAC rules, so everything blackholes until the resync (~55 ms, one " +
			"rule per group). Standalone has no switch rules in its path and " +
			"never notices — the one scenario where only the supercharged mode " +
			"is affected, so the comparison table shows no speedup ratio.",
		Peers: []Peer{{Name: "R2"}, {Name: "R3"}},
		Events: []Event{
			{At: 1 * time.Second, Kind: sim.EventRuleLoss},
		},
	})

	MustRegister(Spec{
		Name: "controller-restart",
		Description: "The primary fails 500 ms into a 3 s controller restart. " +
			"Installed switch rules keep forwarding (fail-standalone), but the " +
			"failover rewrite waits for the controller to come back.",
		Paper: "§5's single-point-of-failure discussion and the deterministic-" +
			"allocation/replica story (internal/core's " +
			"TestReplicasAgreeUnderReorderedFeeds checks the recovery half).",
		Expect: "The supercharger's worst case. The rewrite is deferred ~2.5 s " +
			"while the standalone router converges on its own schedule — the one " +
			"comparison where standalone wins (speedup < 1 at small table " +
			"sizes). At full-table sizes the standalone walk would still be " +
			"slower; the crossover is the point of the scenario.",
		Peers: []Peer{{Name: "R2"}, {Name: "R3"}},
		Events: []Event{
			{At: 1 * time.Second, Kind: sim.EventControllerRestart, Hold: 3 * time.Second},
			{At: 1500 * time.Millisecond, Kind: sim.EventPeerDown, Peer: "R2"},
		},
	})

	MustRegister(Spec{
		Name: "holdtimer-failover",
		Description: "The same single primary failure as paper-fig5, but " +
			"noticed by the BGP hold timer (90 s) instead of BFD (90 ms).",
		Paper: "§2/§4 — the paper pairs the supercharger with fast detection " +
			"and this scenario shows why.",
		Expect: "Detection dwarfs both convergence pipelines: both modes " +
			"blackhole for ~90 s and the speedup collapses to ≈1. Fast " +
			"convergence without fast detection buys nothing.",
		Peers: []Peer{{Name: "R2"}, {Name: "R3"}},
		Events: []Event{
			{At: 1 * time.Second, Kind: sim.EventPeerDown, Peer: "R2", Detection: sim.DetectHoldTimer},
		},
	})

	// --- second generation: fabrics, correlated failures, resets, noise ---

	// Twelve providers with staggered 2000-prefix windows over a 6000-entry
	// table: every prefix is covered by four peers, and which four rotates
	// along the table, so the group table holds many distinct
	// (primary, backup) pairs instead of paper-fig5's single one.
	fabric := make([]Peer, 12)
	for i := range fabric {
		fabric[i] = Peer{Name: fabricName(i), Prefixes: 2000, Offset: 500 * i}
	}
	MustRegister(Spec{
		Name: "route-server-fabric",
		Description: "A many-peer fabric: 12 providers with staggered partial " +
			"feeds (2000-prefix windows rotated around a 6000-entry table), " +
			"per-position preferences, and a failure of the most-preferred " +
			"peer (R2).",
		Paper: "§3's group-table scaling analysis: with n peers the number of " +
			"(primary, backup) groups is bounded by n(n-1), and E4 " +
			"(internal/core's TestGroupCountFromAnnouncements) checks that " +
			"combinatorial growth. " +
			"This scenario realizes a realistic slice of it — 12 distinct " +
			"groups instead of paper-fig5's one — and checks convergence " +
			"stays constant anyway.",
		Expect: "The group table grows 12× (watch the Groups column), yet the " +
			"failover still rewrites only the groups whose primary died — " +
			"two rules here — so supercharged convergence stays ~130 ms " +
			"while standalone walks every affected entry. Only ~1/3 of flows " +
			"are affected (R2 carries only its window); the rest never " +
			"notice.",
		Peers:    fabric,
		Prefixes: 6_000,
		Events: []Event{
			{At: 1 * time.Second, Kind: sim.EventPeerDown, Peer: "R2"},
		},
	})

	MustRegister(Spec{
		Name: "srlg-dual-failure",
		Description: "A shared-risk link group: the primary (R2) and first " +
			"backup (R3) ride the same conduit and one cut takes both down in " +
			"a single event. Four providers, k=3 groups.",
		Paper: "§3's argument for ordered k-tuples rather than (primary, " +
			"backup) pairs: a correlated failure consumes two members at once, " +
			"and only a group that already knows the tertiary can converge " +
			"with one rewrite.",
		Expect: "One detection, one reaction: the engine skips both dead " +
			"members and retargets every group straight to R4 — still one " +
			"rewrite per group, still ~130 ms. Standalone pays one combined " +
			"FIB walk. With k=2 the same event would strand traffic (see the " +
			"srlg test suite): correlated failures are why k matters.",
		Peers:     []Peer{{Name: "R2"}, {Name: "R3"}, {Name: "R4"}, {Name: "R5"}},
		GroupSize: 3,
		Events: []Event{
			{At: 1 * time.Second, Kind: sim.EventSRLGDown, Peers: []string{"R2", "R3"}},
		},
	})

	MustRegister(Spec{
		Name: "maintenance-rolling",
		Description: "Rolling maintenance: three providers are taken down for " +
			"2 s windows one after another (R4, then R3, then R2), never two " +
			"at once. k=3 groups.",
		Paper: "The operational case §1 motivates: planned maintenance is the " +
			"common source of peer-down churn, and staggered windows are how " +
			"operators avoid correlated loss.",
		Expect: "Only the primary's window (R2, the last) affects traffic — " +
			"one constant-time failover and a restoration when it returns; " +
			"staggering is what keeps the group non-empty throughout. The " +
			"backup windows are zero-impact on traffic, but not free for the " +
			"standalone router: each one churns its whole FIB (remove on the " +
			"flap, rewrite on the replay), and that backlog queues ahead of " +
			"the real failover — its recovery ends up riding the 2 s restore " +
			"window rather than its own walk. The supercharger rewrites a " +
			"handful of rules and ignores the rest.",
		Peers:     []Peer{{Name: "R2"}, {Name: "R3"}, {Name: "R4"}},
		GroupSize: 3,
		Events: []Event{
			{At: 1 * time.Second, Kind: sim.EventLinkFlap, Peer: "R4", Hold: 2 * time.Second},
			{At: 4 * time.Second, Kind: sim.EventLinkFlap, Peer: "R3", Hold: 2 * time.Second},
			{At: 7 * time.Second, Kind: sim.EventLinkFlap, Peer: "R2", Hold: 2 * time.Second},
		},
	})

	MustRegister(Spec{
		Name: "session-reset-hard",
		Description: "The primary's BGP session resets without graceful " +
			"restart: its forwarding state is flushed for the 1 s restart " +
			"window and the re-established session replays the full table.",
		Paper: "§2's decomposition of convergence into detection + reaction: " +
			"a reset is announced (TCP reset / NOTIFICATION), not detected, so " +
			"this isolates the reaction term the supercharger accelerates. " +
			"The full-feed replay afterwards is the re-convergence churn " +
			"RFC 4724 §1 exists to avoid.",
		Expect: "No detection latency in either mode (detect column is empty). " +
			"Supercharged converges in ~40 ms — controller reaction plus one " +
			"rule install, its best case anywhere. Standalone starts its FIB " +
			"walk immediately but is capped by the 1 s session restore; the " +
			"replay then churns its FIB a second time (watch FIB writes).",
		Peers: []Peer{{Name: "R2"}, {Name: "R3"}},
		Events: []Event{
			{At: 1 * time.Second, Kind: sim.EventSessionReset, Peer: "R2"},
		},
	})

	MustRegister(Spec{
		Name: "session-reset-graceful",
		Description: "The same primary session reset with RFC 4724 graceful " +
			"restart: forwarding state survives the restart and the replay " +
			"refreshes routes that never stopped working.",
		Paper: "RFC 4724 as the standard answer to session-reset churn, and " +
			"§5's observation that the supercharger must coexist with it: the " +
			"controller's semantic churn filter is what keeps the replayed " +
			"(byte-identical) table from re-walking the router's FIB.",
		Expect: "Zero blackout in both modes — no comparison rows at all, " +
			"which is the result. The control-plane cost table tells the real " +
			"story: standalone rewrites its whole FIB digesting the replay " +
			"(thousands of writes for nothing), while the supercharged " +
			"controller suppresses every redundant announcement and the " +
			"router's FIB write count stays at zero.",
		Peers: []Peer{{Name: "R2"}, {Name: "R3"}},
		Events: []Event{
			{At: 1 * time.Second, Kind: sim.EventSessionReset, Peer: "R2", Graceful: true},
		},
	})

	// --- third generation: centralization economics — partial deployment,
	// controller cost, replica failover (the Sermpezis & Dimitropoulos
	// questions: when does centralized convergence actually win?) ---

	// Six edge routers behind the same two providers; only the first k
	// are supercharged in the partial-deployment builtins.
	deployment := func(k int) []Router {
		routers := make([]Router, 6)
		for i := range routers {
			routers[i] = Router{Supercharged: i < k}
		}
		return routers
	}
	MustRegister(Spec{
		Name: "partial-deployment-k2",
		Description: "Partial SDN deployment: six edge routers share the two " +
			"providers but only two are supercharged; the primary (R2) fails " +
			"once. Probed flows are dealt across all six routers.",
		Paper: "§5's deployment discussion read against Sermpezis & " +
			"Dimitropoulos (\"Can SDN Accelerate BGP Convergence?\"): " +
			"centralized convergence only helps the routers that are behind " +
			"the controller, and real deployments are incremental.",
		Expect: "The crossover surface's deployment axis. The supercharged " +
			"class converges flat (~130 ms, see the supercharged-class " +
			"column) while the vanilla class walks its FIB linearly — so the " +
			"aggregate speedup collapses toward 1, because the slowest flow " +
			"always rides a vanilla router. Partial deployment buys exactly " +
			"the deployed fraction, nothing more.",
		Peers:   []Peer{{Name: "R2"}, {Name: "R3"}},
		Routers: deployment(2),
		Events: []Event{
			{At: 1 * time.Second, Kind: sim.EventPeerDown, Peer: "R2"},
		},
		PrefixSweep: []int{5_000, 50_000},
	})

	MustRegister(Spec{
		Name: "partial-deployment-k6",
		Description: "The same six-router deployment with every router " +
			"supercharged — full deployment expressed through the partial-" +
			"deployment machinery.",
		Paper: "The k=N end of the deployment axis; the paper's own setup " +
			"(every edge router supercharged) recovered as a special case.",
		Expect: "Equivalence check. With no vanilla routers left there is no " +
			"per-class breakdown and every flow converges flat (~130 ms), " +
			"matching paper-fig5 at the same size: the deployment refactor " +
			"must not change what full deployment measures.",
		Peers:    []Peer{{Name: "R2"}, {Name: "R3"}},
		Routers:  deployment(6),
		Prefixes: 10_000,
		Events: []Event{
			{At: 1 * time.Second, Kind: sim.EventPeerDown, Peer: "R2"},
		},
	})

	cost := sim.DefaultControllerCost()
	MustRegister(Spec{
		Name: "costed-controller",
		Description: "The paper-fig5 failover with a controller that is no " +
			"longer free: the calibrated cost model (125 ms base reaction, " +
			"a per-update tax seeded from the churn filter's in-process " +
			"timing, which internal/sim's calibration test keeps within 2×, " +
			"and a per-rule tax) prices every centralized step.",
		Paper: "E3's ~125 ms p99 reaction latency under load (§4), applied " +
			"as a standing tax the way \"Analysing the Effects of Routing " +
			"Centralization on BGP Convergence Time\" models controller " +
			"processing delay.",
		Expect: "The crossover surface's cost axis. At 1k prefixes the base " +
			"tax eats most of the margin (speedup drops from ~7× to ~2×); " +
			"at 50k the standalone FIB walk dwarfs the tax and supercharging " +
			"still wins ≥10×. Centralization pays off exactly where the " +
			"linear term hurts.",
		Peers: []Peer{{Name: "R2"}, {Name: "R3"}},
		Cost:  &cost,
		Events: []Event{
			{At: 1 * time.Second, Kind: sim.EventPeerDown, Peer: "R2"},
		},
		PrefixSweep: []int{1_000, 50_000},
	})

	MustRegister(Spec{
		Name: "replica-failover-hard",
		Description: "The controller primary is killed 100 ms before the " +
			"primary peer fails; the standby needs a slow 3 s takeover and " +
			"the dead primary's in-flight FLOW_MODs are lost (non-durable), " +
			"so the standby resyncs the switch after taking over.",
		Paper: "§5's single-point-of-failure discussion and the " +
			"deterministic-VNH replica story (internal/core's " +
			"TestReplicasAgreeUnderReorderedFeeds), stress-tested: the " +
			"takeover window is when centralized convergence is worse than " +
			"no centralization at all.",
		Expect: "The crossover surface's failure axis — the builtin where " +
			"supercharging loses outright (speedup < 1). The failover " +
			"rewrite waits out the takeover (~3 s) while the standalone " +
			"router converges on its own schedule in under a second at this " +
			"size.",
		Peers:    []Peer{{Name: "R2"}, {Name: "R3"}},
		Replicas: 2,
		Takeover: 3 * time.Second,
		Prefixes: 1_000,
		Events: []Event{
			{At: 900 * time.Millisecond, Kind: sim.EventControllerFailover},
			{At: 1 * time.Second, Kind: sim.EventPeerDown, Peer: "R2"},
		},
	})

	MustRegister(Spec{
		Name: "replica-failover-warm",
		Description: "A warm standby: three replicas, 150 ms takeover, " +
			"durable rule log. The primary peer fails and the controller " +
			"primary is killed 100 ms later — mid-reaction, with the " +
			"failover FLOW_MODs still in flight; the standby replays them.",
		Paper: "The replica design §5 sketches (deterministic VNH allocation " +
			"means the standby shares the primary's group table byte for " +
			"byte; internal/core's TestReplicasAgreeUnderReorderedFeeds checks " +
			"the allocation half).",
		Expect: "Centralization done right survives its own failure: the " +
			"replayed FLOW_MODs land right after the 150 ms takeover, so " +
			"supercharged convergence degrades from ~130 ms to ~300 ms — " +
			"still far ahead of the standalone walk, ≥10× at 50k prefixes.",
		Peers:    []Peer{{Name: "R2"}, {Name: "R3"}},
		Replicas: 3,
		Takeover: 150 * time.Millisecond,
		Durable:  true,
		Events: []Event{
			{At: 1 * time.Second, Kind: sim.EventPeerDown, Peer: "R2"},
			{At: 1100 * time.Millisecond, Kind: sim.EventControllerFailover},
		},
		PrefixSweep: []int{5_000, 50_000},
	})

	MustRegister(Spec{
		Name: "noisy-failover",
		Description: "Background UPDATE noise during failover: a tertiary peer " +
			"(R4) re-announces its feed at 5000 updates/s for 4 s, and the " +
			"primary (R2) fails in the middle of it.",
		Paper: "The E3 micro-benchmark (§4): reaction latency under " +
			"control-plane load. The paper injects update bursts at the " +
			"controller and shows failover latency stays flat; here the same " +
			"churn also hits the standalone router for comparison.",
		Expect: "The noise changes no routes, but the naive standalone router " +
			"turns every update into a FIB write, so the failover walk queues " +
			"behind the backlog and converges measurably slower than " +
			"paper-fig5 at the same size. The supercharged controller's churn " +
			"filter drops the noise before the router sees it: failover stays " +
			"~130 ms, and the noise event itself affects zero flows in both " +
			"modes.",
		Peers: []Peer{{Name: "R2"}, {Name: "R3"}, {Name: "R4"}},
		Events: []Event{
			{At: 500 * time.Millisecond, Kind: sim.EventUpdateNoise, Peer: "R4", Hold: 4 * time.Second, Rate: 5_000},
			{At: 2 * time.Second, Kind: sim.EventPeerDown, Peer: "R2"},
		},
	})
}

// fabricName names the route-server-fabric peers R2..R13 by position.
func fabricName(i int) string { return fmt.Sprintf("R%d", i+2) }

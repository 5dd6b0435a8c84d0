package sim

import (
	"context"
	"fmt"
	"math"
	"net/netip"
	"strings"
	"time"

	"supercharged/internal/bgp"
	"supercharged/internal/core"
	"supercharged/internal/dataplane"
	"supercharged/internal/feed"
)

// EventKind enumerates the scripted timeline events the lab can replay.
// The string values are the declarative names used by scenario specs and
// their JSON encodings.
type EventKind string

const (
	// EventPeerDown cuts a provider's link; the failure is noticed via
	// the event's Detection and the mode's convergence pipeline runs.
	EventPeerDown EventKind = "peer-down"
	// EventPeerUp restores a provider's link; after SessionUp the BGP
	// session re-establishes and the peer re-announces its feed.
	EventPeerUp EventKind = "peer-up"
	// EventLinkFlap cuts the link and restores it Hold later. A Hold
	// shorter than the detection time is absorbed: the failure is never
	// declared and only the physical blackout is visible.
	EventLinkFlap EventKind = "link-flap"
	// EventPartialWithdraw has the peer withdraw the first
	// ceil(Fraction×feed) prefixes of its table while the link stays up —
	// the destinations become unreachable via that peer upstream.
	EventPartialWithdraw EventKind = "partial-withdraw"
	// EventBurstReannounce has the peer re-announce its withdrawn chunk
	// (or, with nothing withdrawn, replay its full feed) in one burst.
	EventBurstReannounce EventKind = "burst-reannounce"
	// EventRuleLoss wipes the switch flow table (switch reboot / eviction);
	// the controller resyncs it from the group table. Standalone mode has
	// no switch rules in the forwarding path, so the event is a no-op.
	EventRuleLoss EventKind = "rule-loss"
	// EventControllerRestart takes the controller down for Hold. Installed
	// switch rules keep forwarding (fail-standalone), but reactions to
	// failures detected during the window wait for the restart to finish.
	EventControllerRestart EventKind = "controller-restart"
	// EventSRLGDown cuts every link of a shared-risk link group (Peers) at
	// one instant — a conduit cut or power failure taking several
	// providers down together. Each member is detected via the event's
	// Detection path and reacted to independently; all resulting outages
	// are attributed to this one event.
	EventSRLGDown EventKind = "srlg-down"
	// EventSessionReset bounces the peer's BGP session while the physical
	// link stays up (the peer's BGP process restarted). The reset is
	// announced (TCP reset / NOTIFICATION), so there is no detection
	// latency. Without Graceful the peer's forwarding state dies for the
	// restart window (Hold, default SessionUp) and the re-established
	// session replays the full feed — full-table re-convergence churn.
	// With Graceful (RFC 4724) forwarding state is preserved across the
	// restart: zero blackout, and only the replay churn remains.
	EventSessionReset EventKind = "session-reset"
	// EventControllerFailover kills the current controller primary. With
	// replicas left (TimelineConfig.Replicas), a standby — holding the
	// same deterministic VNH allocation, as internal/core's replica
	// agreement test checks — takes over after the takeover latency (Hold,
	// else TimelineConfig.Takeover, else 2 s); in-flight FLOW_MODs are
	// replayed by the standby when TimelineConfig.Durable, lost otherwise
	// (the standby resyncs the switch instead). Killing the last replica leaves the deployment
	// controller-less for the rest of the run: installed rules keep
	// forwarding (fail-standalone) but no new reaction ever happens.
	EventControllerFailover EventKind = "controller-failover"
	// EventUpdateNoise has the peer re-announce chunks of its feed in
	// 100 ms bursts at Rate updates/s for Hold — background churn during
	// failover, the control-plane load of the paper's E3 micro-benchmark.
	// The re-announcements change no routes: the naive standalone router
	// still rewrites one FIB entry per update, so a failure during the
	// noise queues behind the backlog, while the supercharged controller's
	// churn filter drops them before they reach the router.
	EventUpdateNoise EventKind = "update-noise"
)

// knownEventKinds lists every valid kind, in display order.
var knownEventKinds = []EventKind{
	EventPeerDown, EventPeerUp, EventLinkFlap, EventPartialWithdraw,
	EventBurstReannounce, EventRuleLoss, EventControllerRestart,
	EventControllerFailover, EventSRLGDown, EventSessionReset,
	EventUpdateNoise,
}

// KnownEventKinds returns the valid event kinds in display order.
func KnownEventKinds() []EventKind {
	return append([]EventKind(nil), knownEventKinds...)
}

// ValidEventKind reports whether k names a known event kind.
func ValidEventKind(k EventKind) bool {
	for _, known := range knownEventKinds {
		if k == known {
			return true
		}
	}
	return false
}

// Detection selects how a link failure is noticed.
type Detection string

const (
	// DetectBFD is the paper's fast path: BFDMult × BFDInterval.
	DetectBFD Detection = "bfd"
	// DetectHoldTimer is the slow path of a router without BFD: the BGP
	// hold timer (TimelineConfig.HoldTimer) must expire first.
	DetectHoldTimer Detection = "hold-timer"
)

// PeerSpec declares one provider peer of a timeline topology.
type PeerSpec struct {
	// Name identifies the peer in events ("" = R2, R3, ... by position).
	Name string
	// Weight is the router's preference for this peer (higher wins;
	// 0 = auto-descending by position, first peer primary).
	Weight uint32
	// Prefixes caps the peer's advertised feed (0 = the full table).
	Prefixes int
	// Offset rotates the peer's feed window: the peer advertises Prefixes
	// routes starting at table index Offset (modulo the table size),
	// wrapping around the end. Staggered windows give different prefixes
	// different covering peer sets — the path-set diversity that makes a
	// many-peer fabric allocate many distinct backup-groups.
	Offset int
}

// RouterSpec declares one edge router of a timeline deployment: partial
// deployment mixes SDN-assisted (Supercharged) and vanilla-BGP routers
// behind the same providers in a single run.
type RouterSpec struct {
	// Name identifies the router ("" = E1, E2, ... by position; a single
	// unnamed router keeps the classic name R1).
	Name string
	// Supercharged puts the controller and switch in front of this
	// router; false is the vanilla baseline class.
	Supercharged bool
}

// TimelineEvent is one scripted event, At after traffic steady-state.
type TimelineEvent struct {
	At   time.Duration
	Kind EventKind
	// Peer names the affected peer (required for peer/link events).
	Peer string
	// Peers names the members of a shared-risk link group (srlg-down
	// only, ≥ 2 distinct peers).
	Peers []string
	// Hold is the link-flap downtime, controller-restart duration,
	// session-reset re-establishment time (0 = SessionUp) or update-noise
	// duration.
	Hold time.Duration
	// Fraction is the partial-withdraw share of the peer's feed, (0, 1].
	Fraction float64
	// Detection selects the failure-detection path ("" = bfd).
	Detection Detection
	// Graceful preserves forwarding state across a session-reset
	// (RFC 4724 graceful restart).
	Graceful bool
	// Rate is the update-noise intensity in UPDATEs per second.
	Rate int
}

// TimelineConfig drives RunTimeline: the Config timing model plus a
// parameterized peer topology and an event timeline.
type TimelineConfig struct {
	Config
	Peers  []PeerSpec
	Events []TimelineEvent
	// Table, when set, replaces the synthetic feed: the run announces
	// the first NumPrefixes routes of this table (an MRT-loaded real RIB,
	// typically) instead of feed.Generate output. The table must hold at
	// least NumPrefixes routes — a short table fails loudly rather than
	// silently shrinking the experiment.
	Table *feed.Table `json:"-"`
	// HoldTimer is the hold-timer detection latency (default 90 s, the
	// BGP default).
	HoldTimer time.Duration
	// SessionUp is the BGP re-establishment delay after a link returns
	// (default 1 s).
	SessionUp time.Duration

	// Routers declares the deployment (nil = the classic single router
	// whose class follows Config.Mode). Supercharged routers are only
	// valid in Supercharged mode; a run whose Routers mix classes
	// reports per-class convergence breakdowns.
	Routers []RouterSpec
	// Replicas is the controller replica count for controller-failover
	// events (0 = 1: a single primary, no standby).
	Replicas int
	// Takeover is the standby's default takeover latency after a
	// controller-failover (0 = 2 s; a failover event's Hold overrides).
	Takeover time.Duration
	// Durable replays in-flight FLOW_MODs from the standby after a
	// takeover; without it the dead primary's unacknowledged batch is
	// lost and the standby resyncs the switch instead.
	Durable bool
}

// eventState tracks one scheduled event through the run.
type eventState struct {
	ev       TimelineEvent
	idx      int
	absAt    time.Time
	detectAt time.Duration
}

// EventResult is one event's measured impact.
type EventResult struct {
	Index int           `json:"index"`
	Kind  EventKind     `json:"kind"`
	Peer  string        `json:"peer,omitempty"`
	At    time.Duration `json:"at"`
	// DetectAt is the detection latency after the event fired (0 when the
	// event needs no detection or the failure was never declared).
	DetectAt time.Duration `json:"detect_at"`
	// Affected counts probed flows that blacked out due to this event;
	// Recovered of those came back, Unrecovered never did.
	Affected    int `json:"affected"`
	Recovered   int `json:"recovered"`
	Unrecovered int `json:"unrecovered"`
	// Convergence holds the per-recovered-flow quantized blackout gaps.
	Convergence []time.Duration `json:"convergence,omitempty"`
	// SuperchargedClass / VanillaClass break the counts above down by
	// router class. Only populated on genuinely mixed (partial
	// deployment) runs, so full-deployment reports keep their exact
	// legacy encoding.
	SuperchargedClass *ClassResult `json:"supercharged_class,omitempty"`
	VanillaClass      *ClassResult `json:"vanilla_class,omitempty"`
}

// ClassResult is one router class's share of an event's impact in a
// mixed partial-deployment run.
type ClassResult struct {
	// Routers counts the deployment's routers of this class.
	Routers     int `json:"routers"`
	Affected    int `json:"affected"`
	Recovered   int `json:"recovered"`
	Unrecovered int `json:"unrecovered"`
	// Convergence holds this class's recovered-flow blackout gaps.
	Convergence []time.Duration `json:"convergence,omitempty"`
}

// RouterResult names one router of a multi-router deployment.
type RouterResult struct {
	Name         string `json:"name"`
	Supercharged bool   `json:"supercharged"`
}

// TimelineResult is one timeline run's measurements.
type TimelineResult struct {
	Mode        Mode     `json:"-"`
	NumPrefixes int      `json:"prefixes"`
	Peers       []string `json:"peers"`
	// Routers lists the deployment when it has more than one router;
	// classic single-router runs omit it (legacy encoding).
	Routers []RouterResult `json:"routers,omitempty"`
	Events  []EventResult  `json:"events"`
	// Groups and RuleRewrites sum over the supercharged routers (zero in
	// standalone mode).
	Groups       int `json:"groups"`
	RuleRewrites int `json:"rule_rewrites"`
	// FIBWrites counts per-entry FIB installs after steady state — the
	// control-plane churn the events caused.
	FIBWrites uint64 `json:"fib_writes"`
	// Elapsed is the virtual time from steady state to quiescence.
	Elapsed time.Duration `json:"elapsed"`
}

// RunTimeline executes a scripted multi-event experiment and returns the
// per-event measurements. The context cancels the run between simulator
// events (a sweep budget expiring, ^C): a cancelled run returns ctx's
// error and no partial result, since a half-drained timeline measures
// nothing meaningful.
func RunTimeline(ctx context.Context, cfg TimelineConfig) (*TimelineResult, error) {
	if cfg.NumPrefixes <= 0 {
		return nil, fmt.Errorf("sim: NumPrefixes must be positive")
	}
	cfg.Config = cfg.Config.withDefaults()
	if cfg.HoldTimer == 0 {
		cfg.HoldTimer = 90 * time.Second
	}
	if cfg.SessionUp == 0 {
		cfg.SessionUp = time.Second
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := newLab(cfg.Config, cfg.Peers, cfg.Routers)
	l.tcfg = &cfg
	l.replicasLeft = cfg.Replicas
	if l.replicasLeft <= 0 {
		l.replicasLeft = 1
	}
	return l.runTimeline(ctx)
}

// Validate rejects malformed topologies and events up front, so a
// scripted scenario fails loudly instead of running a half-meaningful lab.
func (cfg *TimelineConfig) Validate() error {
	if len(cfg.Peers) < 2 {
		return fmt.Errorf("sim: timeline needs at least 2 peers, got %d", len(cfg.Peers))
	}
	names := make(map[string]bool, len(cfg.Peers))
	for i, p := range cfg.Peers {
		name := p.Name
		if name == "" {
			name = fmt.Sprintf("R%d", i+2)
		}
		if names[name] {
			return fmt.Errorf("sim: duplicate peer name %q", name)
		}
		names[name] = true
		if p.Prefixes < 0 {
			return fmt.Errorf("sim: peer %q: negative feed size %d", name, p.Prefixes)
		}
		if p.Offset < 0 {
			return fmt.Errorf("sim: peer %q: negative feed offset %d", name, p.Offset)
		}
	}
	rnames := make(map[string]bool, len(cfg.Routers))
	for i, r := range cfg.Routers {
		name := r.Name
		if name == "" {
			if len(cfg.Routers) == 1 {
				name = "R1"
			} else {
				name = fmt.Sprintf("E%d", i+1)
			}
		}
		if rnames[name] {
			return fmt.Errorf("sim: duplicate router name %q", name)
		}
		if names[name] {
			return fmt.Errorf("sim: router name %q collides with a peer", name)
		}
		rnames[name] = true
		if r.Supercharged && cfg.Mode != Supercharged {
			return fmt.Errorf("sim: router %q: supercharged routers need Supercharged mode", name)
		}
	}
	if cfg.Replicas < 0 {
		return fmt.Errorf("sim: negative replica count %d", cfg.Replicas)
	}
	if cfg.Takeover < 0 {
		return fmt.Errorf("sim: negative takeover latency %v", cfg.Takeover)
	}
	if cfg.Cost.Base < 0 || cfg.Cost.PerUpdate < 0 || cfg.Cost.PerRule < 0 {
		return fmt.Errorf("sim: controller cost fields must be non-negative")
	}
	for i, ev := range cfg.Events {
		if ev.At < 0 {
			return fmt.Errorf("sim: event %d (%s): scheduled before t=0 (%v)", i, ev.Kind, ev.At)
		}
		if !ValidEventKind(ev.Kind) {
			return fmt.Errorf("sim: event %d: unknown kind %q", i, ev.Kind)
		}
		switch ev.Kind {
		case EventPeerDown, EventPeerUp, EventLinkFlap, EventPartialWithdraw,
			EventBurstReannounce, EventSessionReset, EventUpdateNoise:
			if ev.Peer == "" {
				return fmt.Errorf("sim: event %d (%s): missing peer", i, ev.Kind)
			}
			if !names[ev.Peer] {
				return fmt.Errorf("sim: event %d (%s): unknown peer %q", i, ev.Kind, ev.Peer)
			}
		}
		if ev.Kind == EventSRLGDown {
			if len(ev.Peers) < 2 {
				return fmt.Errorf("sim: event %d (%s): a shared-risk group needs at least 2 peers, got %d",
					i, ev.Kind, len(ev.Peers))
			}
			member := make(map[string]bool, len(ev.Peers))
			for _, name := range ev.Peers {
				if !names[name] {
					return fmt.Errorf("sim: event %d (%s): unknown peer %q", i, ev.Kind, name)
				}
				if member[name] {
					return fmt.Errorf("sim: event %d (%s): peer %q listed twice", i, ev.Kind, name)
				}
				member[name] = true
			}
		} else if len(ev.Peers) > 0 {
			return fmt.Errorf("sim: event %d (%s): Peers is only valid on %s", i, ev.Kind, EventSRLGDown)
		}
		switch ev.Kind {
		case EventLinkFlap, EventControllerRestart:
			if ev.Hold <= 0 {
				return fmt.Errorf("sim: event %d (%s): Hold must be positive", i, ev.Kind)
			}
		case EventPartialWithdraw:
			if ev.Fraction <= 0 || ev.Fraction > 1 {
				return fmt.Errorf("sim: event %d (%s): Fraction %v outside (0, 1]", i, ev.Kind, ev.Fraction)
			}
		case EventSessionReset, EventControllerFailover:
			if ev.Hold < 0 {
				return fmt.Errorf("sim: event %d (%s): negative Hold %v", i, ev.Kind, ev.Hold)
			}
		case EventUpdateNoise:
			if ev.Hold <= 0 {
				return fmt.Errorf("sim: event %d (%s): Hold must be positive", i, ev.Kind)
			}
			if ev.Rate <= 0 {
				return fmt.Errorf("sim: event %d (%s): Rate must be positive", i, ev.Kind)
			}
			// Cap the total volume so a fuzzer-generated spec cannot turn
			// one event into a multi-minute simulation.
			if volume := float64(ev.Rate) * ev.Hold.Seconds(); volume > maxNoiseUpdates {
				return fmt.Errorf("sim: event %d (%s): Rate×Hold is %.0f updates, above the %d cap",
					i, ev.Kind, volume, int(maxNoiseUpdates))
			}
		}
		if ev.Graceful && ev.Kind != EventSessionReset {
			return fmt.Errorf("sim: event %d (%s): Graceful is only valid on %s", i, ev.Kind, EventSessionReset)
		}
		if ev.Rate != 0 && ev.Kind != EventUpdateNoise {
			return fmt.Errorf("sim: event %d (%s): Rate is only valid on %s", i, ev.Kind, EventUpdateNoise)
		}
		if ev.Detection != "" && ev.Detection != DetectBFD && ev.Detection != DetectHoldTimer {
			return fmt.Errorf("sim: event %d (%s): unknown detection %q", i, ev.Kind, ev.Detection)
		}
	}
	return nil
}

// maxNoiseUpdates bounds one update-noise event's total UPDATE count.
const maxNoiseUpdates = 1_000_000

// runTimeline sets up steady state, replays the script, drains to
// quiescence and attributes outages to events.
func (l *lab) runTimeline(ctx context.Context) (*TimelineResult, error) {
	cfg := l.cfg
	l.traceStart()
	if l.tcfg.Table != nil {
		if l.tcfg.Table.Len() < cfg.NumPrefixes {
			return nil, fmt.Errorf("sim: table holds %d routes, run needs %d prefixes", l.tcfg.Table.Len(), cfg.NumPrefixes)
		}
		l.table = l.tcfg.Table.Head(cfg.NumPrefixes)
	} else {
		l.table = feed.Generate(feed.Config{N: cfg.NumPrefixes, Seed: cfg.Seed})
	}
	l.assignFeeds()

	if err := l.setup(ctx); err != nil {
		return nil, err
	}
	l.wireMetrics()
	l.setupProbes()
	l.traceSetup()

	l.base = l.clk.Now()
	for _, r := range l.routers {
		r.fibBase = r.fib.Applied()
	}
	for i := range l.tcfg.Events {
		st := &eventState{ev: l.tcfg.Events[i], idx: i, absAt: l.base.Add(l.tcfg.Events[i].At)}
		l.events = append(l.events, st)
		l.clk.AfterFunc(st.ev.At, func() { l.applyEvent(st) })
	}
	if _, err := l.clk.Drive(ctx, 50_000_000); err != nil {
		return nil, fmt.Errorf("sim: timeline cancelled: %w", err)
	}
	return l.harvestTimeline(), nil
}

func (l *lab) applyEvent(st *eventState) {
	l.traceEvent(st)
	l.metrics.eventApplied()
	var prov *provider
	if st.ev.Peer != "" {
		var ok bool
		if prov, ok = l.providerByName(st.ev.Peer); !ok {
			panic(fmt.Sprintf("sim: event references unknown peer %q", st.ev.Peer))
		}
	}
	switch st.ev.Kind {
	case EventPeerDown:
		l.eventLinkDown(st, prov)
	case EventPeerUp:
		l.eventLinkUp(prov)
	case EventLinkFlap:
		l.eventLinkDown(st, prov)
		l.clk.AfterFunc(st.ev.Hold, func() { l.eventLinkUp(prov) })
	case EventPartialWithdraw:
		l.eventPartialWithdraw(st, prov)
	case EventBurstReannounce:
		l.eventBurstReannounce(prov)
	case EventRuleLoss:
		l.eventRuleLoss()
	case EventControllerRestart:
		l.eventControllerRestart(st)
	case EventControllerFailover:
		l.eventControllerFailover(st)
	case EventSRLGDown:
		for _, name := range st.ev.Peers {
			member, ok := l.providerByName(name)
			if !ok {
				panic(fmt.Sprintf("sim: event references unknown peer %q", name))
			}
			l.eventLinkDown(st, member)
		}
	case EventSessionReset:
		l.eventSessionReset(st, prov)
	case EventUpdateNoise:
		l.eventUpdateNoise(st, prov)
	}
}

// eventLinkDown cuts the link and arms the detection timer for the
// event's detection path.
func (l *lab) eventLinkDown(st *eventState, prov *provider) {
	if !prov.up {
		return
	}
	cutAt := l.clk.Now()
	l.linkDown(prov)
	detect := time.Duration(l.cfg.BFDMult) * l.cfg.BFDInterval
	if st.ev.Detection == DetectHoldTimer {
		detect = l.tcfg.HoldTimer
	}
	prov.detect = l.clk.AfterFunc(detect, func() {
		prov.detect = nil
		// An SRLG event shares one eventState across members; the first
		// detection stamps the event's latency (they fire together anyway).
		if st.detectAt == 0 {
			st.detectAt = l.clk.Now().Sub(st.absAt)
		}
		l.traceDetect(st.idx+1, prov, cutAt)
		l.reactToFailure(prov)
	})
}

// eventLinkUp restores the link. If detection has not fired yet the
// failure is absorbed (timer cancelled, routes and FIB untouched);
// otherwise the session re-establishes after SessionUp and the peer
// re-announces its feed.
func (l *lab) eventLinkUp(prov *provider) {
	if prov.up {
		return
	}
	prov.up = true
	absorbed := prov.detect != nil
	if absorbed {
		prov.detect.Stop()
		prov.detect = nil
	}
	l.reevaluateAllProbes()
	if absorbed && prov.session {
		return // absorbed flap: the session never dropped, nothing to replay
	}
	// Either the failure was detected (session torn down) or a hard
	// session reset is still pending re-establishment — a flap across the
	// restart window must not cancel it for good.
	l.clk.AfterFunc(l.tcfg.SessionUp, func() { l.replayFeed(prov, true) })
}

// replayFeed models a freshly (re-)established BGP session replaying the
// peer's entire feed. The replay supersedes any earlier partial withdraw:
// the peer advertises the routes again, so they are reachable via it from
// now on. peerUp additionally runs the engine's PeerUp retarget in
// supercharged mode (a session the engine saw die).
func (l *lab) replayFeed(prov *provider, peerUp bool) {
	if !prov.up {
		// The link died again between the recovery being scheduled and
		// now (down/up/down inside one SessionUp window): a session
		// cannot establish over a dead link, and replaying anyway would
		// resurrect the dead peer's routes with no withdraw ever coming —
		// a permanent phantom blackhole for every flow steered into it.
		return
	}
	prov.session = true // a replaying session is an established one
	prov.withdrawn = nil
	prov.withdrawnN = 0
	l.reevaluateAllProbes()
	l.ingestFeed(prov, prov.feed, peerUp)
}

// eventSessionReset bounces the peer's BGP session while the link stays
// up. The reset is announced, not detected: the failure reaction (if any)
// starts immediately, with no BFD or hold-timer latency.
func (l *lab) eventSessionReset(st *eventState, prov *provider) {
	if !prov.up || !prov.session {
		return // link dead or session already down: nothing to reset
	}
	restart := st.ev.Hold
	if restart == 0 {
		restart = l.tcfg.SessionUp
	}
	if st.ev.Graceful {
		// RFC 4724: the restarting peer preserves its forwarding state, so
		// the data plane never notices. The re-established session replays
		// the full feed (ending with End-of-RIB), superseding the now-stale
		// routes — pure control-plane churn, zero blackout.
		l.clk.AfterFunc(restart, func() {
			if prov.up && prov.session {
				l.replayFeed(prov, false)
			}
		})
		return
	}
	// Hard reset: the peer's BGP process restarted without graceful
	// restart, flushing its forwarding state — traffic sent into it
	// blackholes for the restart window, and the local side tears its
	// routes down through the mode's usual pipeline (supercharged: the
	// engine retargets groups away from the peer; standalone: RIB flush
	// plus the per-entry FIB walk).
	prov.session = false
	l.reevaluateAllProbes()
	l.reactToFailure(prov)
	l.clk.AfterFunc(restart, func() {
		if !prov.up || prov.session {
			return // link died meanwhile (eventLinkUp replays) or already re-established
		}
		l.replayFeed(prov, true)
	})
}

// noiseBurstEvery is the update-noise burst cadence: Rate updates/s are
// delivered as one batch per 100 ms, mimicking the bursty arrivals of the
// paper's E3 load benchmark.
const noiseBurstEvery = 100 * time.Millisecond

// eventUpdateNoise schedules the background-churn bursts: every 100 ms
// for Hold, the peer re-announces the next Rate/10 routes of its feed
// (wrapping around), with unchanged attributes.
func (l *lab) eventUpdateNoise(st *eventState, prov *provider) {
	bursts := int(st.ev.Hold / noiseBurstEvery)
	if bursts < 1 {
		bursts = 1
	}
	perBurst := int(float64(st.ev.Rate)*noiseBurstEvery.Seconds() + 0.5)
	if perBurst < 1 {
		perBurst = 1
	}
	for k := 0; k < bursts; k++ {
		start := k * perBurst
		l.clk.AfterFunc(time.Duration(k)*noiseBurstEvery, func() {
			l.noiseBurst(prov, start, perBurst)
		})
	}
}

// noiseBurst re-announces n routes of the peer's feed starting at index
// start (mod feed size) as single-prefix UPDATEs through the mode's
// control plane. The routes are byte-identical to what the peer already
// advertised: no reachability changes, only processing load. The naive
// standalone router turns every one into a FIB write; the supercharged
// controller's churn filter drops them all.
func (l *lab) noiseBurst(prov *provider, start, n int) {
	if !prov.up || !prov.session || prov.feed.Len() == 0 {
		return // a dead peer or session emits nothing
	}
	// Rendered attributes are cached per template for the burst (the
	// same trick StreamUpdates uses): a capped noise event is up to 1M
	// updates, and re-rendering attrs the interner would immediately
	// deduplicate is garbage on the exact path the churn filter keeps
	// allocation-free.
	attrsCache := make(map[int]*bgp.Attrs)
	updates := make([]*bgp.Update, 0, n)
	for i := 0; i < n; i++ {
		r := prov.feed.Routes[(start+i)%prov.feed.Len()]
		if prov.withdrawn[r.Prefix] {
			// A peer only refreshes routes it still has: re-announcing a
			// withdrawn prefix would silently revert the withdraw (the
			// fuzzer caught exactly this inconsistency).
			continue
		}
		attrs := attrsCache[r.Template]
		if attrs == nil {
			attrs = prov.feed.AttrsFor(r.Template, prov.as, prov.nh)
			attrsCache[r.Template] = attrs
		}
		updates = append(updates, &bgp.Update{
			Attrs: attrs,
			NLRI:  []netip.Prefix{r.Prefix},
		})
	}
	l.ingest(prov, updates, false)
}

// eventPartialWithdraw marks the head chunk of the peer's feed withdrawn
// and sends the WITHDRAW through the mode's control plane.
func (l *lab) eventPartialWithdraw(st *eventState, prov *provider) {
	if !prov.up || !prov.session {
		return // a dead peer or session emits nothing
	}
	n := int(math.Ceil(st.ev.Fraction * float64(prov.feed.Len())))
	if n <= 0 {
		return
	}
	if n > prov.feed.Len() {
		n = prov.feed.Len()
	}
	withdrawn := prov.feed.Head(n).Prefixes()
	if prov.withdrawn == nil {
		prov.withdrawn = make(map[netip.Prefix]bool, len(withdrawn))
	}
	for _, p := range withdrawn {
		prov.withdrawn[p] = true
	}
	if n > prov.withdrawnN {
		prov.withdrawnN = n
	}
	// The destinations are unreachable via this peer from now on.
	l.reevaluateAllProbes()
	l.ingest(prov, []*bgp.Update{{Withdrawn: withdrawn}}, false)
}

// eventBurstReannounce replays the peer's withdrawn chunk (or, with
// nothing withdrawn, its whole feed) as one announcement burst.
func (l *lab) eventBurstReannounce(prov *provider) {
	if !prov.up || !prov.session {
		return // a dead peer or session emits nothing
	}
	chunk := prov.feed
	if prov.withdrawnN > 0 {
		chunk = prov.feed.Head(prov.withdrawnN)
	}
	for _, p := range chunk.Prefixes() {
		delete(prov.withdrawn, p)
	}
	prov.withdrawnN = 0
	// Reachability via this peer is restored upstream immediately.
	l.reevaluateAllProbes()
	l.ingestFeed(prov, chunk, false)
}

// eventRuleLoss wipes every supercharged router's switch flow table; the
// controller detects the loss and resyncs every group rule from its own
// state (paying its Base cost) — unless the last replica is already gone,
// in which case nobody is left to resync.
func (l *lab) eventRuleLoss() {
	wiped := false
	for _, r := range l.routers {
		if r.flows == nil {
			continue // vanilla: no switch rules in the forwarding path
		}
		r.flows = dataplane.NewFlowTable()
		wiped = true
	}
	if !wiped {
		return
	}
	l.reevaluateAllProbes()
	if l.ctrlDead {
		return
	}
	l.clk.AfterFunc(l.controllerDelay()+l.cfg.ControllerReact+l.cfg.Cost.Base, func() {
		if l.ctrlDead {
			return
		}
		for _, r := range l.routers {
			if r.engine == nil {
				continue
			}
			if _, err := r.engine.Resync(); err != nil {
				panic(fmt.Sprintf("sim: engine.Resync: %v", err))
			}
		}
	})
}

// eventControllerRestart takes the controller down for Hold; reactions
// arriving in the window are deferred via controllerDelay.
func (l *lab) eventControllerRestart(st *eventState) {
	if !l.hasSupercharged() {
		return
	}
	until := l.clk.Now().Add(st.ev.Hold)
	if until.After(l.ctrlDownUntil) {
		l.ctrlDownUntil = until
	}
}

// takeoverWindow resolves one failover event's takeover latency: the
// event's Hold, else the config default, else 2 s.
func (l *lab) takeoverWindow(ev TimelineEvent) time.Duration {
	if ev.Hold > 0 {
		return ev.Hold
	}
	if l.tcfg.Takeover > 0 {
		return l.tcfg.Takeover
	}
	return 2 * time.Second
}

// eventControllerFailover kills the controller primary. A surviving
// standby — which holds the same deterministic VNH/group allocation, so
// no recomputation is needed — takes over after the takeover window;
// in-flight FLOW_MODs are replayed (durable) or lost (the standby
// resyncs the switch instead). Killing the last replica leaves the run
// controller-less: installed rules keep forwarding, nothing new happens.
func (l *lab) eventControllerFailover(st *eventState) {
	if !l.hasSupercharged() || l.ctrlDead {
		return
	}
	if l.replicasLeft <= 1 {
		l.replicasLeft = 0
		l.ctrlDead = true
		l.stopPending()
		return
	}
	l.replicasLeft--
	take := l.takeoverWindow(st.ev)
	until := l.clk.Now().Add(take)
	if until.After(l.ctrlDownUntil) {
		l.ctrlDownUntil = until
	}
	l.traceTakeover(take, l.replicasLeft)
	if l.tcfg.Durable {
		l.rearmPending(until)
		return
	}
	l.stopPending()
	l.clk.AfterFunc(take+l.cfg.ControllerReact+l.cfg.Cost.Base, func() {
		if l.ctrlDead {
			return
		}
		for _, r := range l.routers {
			if r.engine == nil {
				continue
			}
			if _, err := r.engine.Resync(); err != nil {
				panic(fmt.Sprintf("sim: engine.Resync: %v", err))
			}
		}
	})
}

// ingest feeds a peer's materialized UPDATE batch through the mode's
// control plane; see ingestStream.
func (l *lab) ingest(prov *provider, updates []*bgp.Update, peerUp bool) {
	l.ingestStream(prov, func(fn func(*bgp.Update) error) error {
		for _, u := range updates {
			if err := fn(u); err != nil {
				return err
			}
		}
		return nil
	}, peerUp)
}

// ingestFeed streams a whole feed view through the mode's control plane
// without materializing the rendered UPDATE list — the path full-table
// session replays take, sized for the 1M-prefix xl tier.
func (l *lab) ingestFeed(prov *provider, table *feed.Table, peerUp bool) {
	l.ingestStream(prov, func(fn func(*bgp.Update) error) error {
		return table.StreamUpdates(prov.as, prov.nh, bgp.Codec{ASN4: true}, fn)
	}, peerUp)
}

// ingestStream feeds a peer's UPDATE stream into every router's table
// (router.update). A vanilla router walks the changes into its FIB; on a
// supercharged router the processor reacts to each UPDATE's changes (and,
// on session recovery, the engine's PeerUp retargets the rules). The
// router's FIB walk follows after its usual control-plane delay. The
// source function is invoked once per router, inside the control-plane
// stage, so streams render at ingestion time rather than at scheduling
// time (and each router sees its own deterministic rendering of the same
// session).
func (l *lab) ingestStream(prov *provider, source func(fn func(*bgp.Update) error) error, peerUp bool) {
	for _, r := range l.routers {
		if r.supercharged {
			l.ingestSupercharged(r, prov, source, peerUp)
		} else {
			l.ingestStandalone(r, prov, source)
		}
	}
}

// ingestStandalone is the vanilla router's ingest leg of ingestStream.
func (l *lab) ingestStandalone(r *router, prov *provider, source func(fn func(*bgp.Update) error) error) {
	ctlStart := l.clk.Now()
	l.afterRouterCtl(r, func() {
		l.traceRouterCtl(ctlStart)
		var changes []bgp.Change
		err := source(func(u *bgp.Update) error {
			changes = append(changes, r.update(prov.meta, u)...)
			return nil
		})
		if err != nil {
			panic(fmt.Sprintf("sim: render feed for %s: %v", prov.name, err))
		}
		l.enqueueFIBChanges(r, changes)
	})
}

// ingestSupercharged is the SDN-assisted ingest leg of ingestStream: the
// controller relays the session, paying Base + N×PerUpdate of processing
// tax after the churn filter counts the batch. A dead controller (last
// replica gone) relays nothing — the router's view freezes.
func (l *lab) ingestSupercharged(r *router, prov *provider, source func(fn func(*bgp.Update) error) error, peerUp bool) {
	if l.ctrlDead {
		return
	}
	l.clk.AfterFunc(l.controllerDelay(), func() {
		if l.ctrlDead {
			return
		}
		var toRouter []*bgp.Update
		nIn := 0
		err := source(func(u *bgp.Update) error {
			nIn++
			out, err := r.proc.React(r.update(prov.meta, u))
			if err != nil {
				panic(fmt.Sprintf("sim: processor.React: %v", err))
			}
			toRouter = append(toRouter, out...)
			return nil
		})
		if err != nil {
			panic(fmt.Sprintf("sim: render feed for %s: %v", prov.name, err))
		}
		l.traceChurnFilter(prov, nIn, len(toRouter))
		l.afterCost(l.cfg.Cost.Base+time.Duration(nIn)*l.cfg.Cost.PerUpdate, func() {
			if peerUp {
				if _, err := r.engine.PeerUp(prov.nh); err != nil {
					panic(fmt.Sprintf("sim: engine.PeerUp: %v", err))
				}
			}
			ctlStart := l.clk.Now()
			l.afterRouterCtl(r, func() {
				l.traceRouterCtl(ctlStart)
				r.fib.EnqueueWalkOrder(l.routerApply(r, nil, toRouter))
				core.RecycleUpdates(toRouter)
			})
		})
	})
}

func (l *lab) providerByName(name string) (*provider, bool) {
	for _, p := range l.providers {
		if p.name == name {
			return p, true
		}
	}
	return nil, false
}

// harvestTimeline attributes every probe outage to the most recent event
// at or before its start and assembles the result. Mixed-deployment runs
// additionally break every event's impact down by router class.
func (l *lab) harvestTimeline() *TimelineResult {
	res := &TimelineResult{
		Mode:        l.cfg.Mode,
		NumPrefixes: l.cfg.NumPrefixes,
		Elapsed:     l.clk.Now().Sub(l.base),
	}
	for _, prov := range l.providers {
		res.Peers = append(res.Peers, prov.name)
	}
	scRouters, vanRouters := 0, 0
	for _, r := range l.routers {
		res.FIBWrites += r.fib.Applied() - r.fibBase
		if r.proc != nil {
			res.Groups += r.proc.Groups().Len()
			res.RuleRewrites += int(r.engine.Rewrites())
		}
		if r.supercharged {
			scRouters++
		} else {
			vanRouters++
		}
	}
	if len(l.routers) > 1 {
		for _, r := range l.routers {
			res.Routers = append(res.Routers, RouterResult{Name: r.name, Supercharged: r.supercharged})
		}
	}
	mixed := l.mixedDeployment()
	for i, st := range l.events {
		peer := st.ev.Peer
		if len(st.ev.Peers) > 0 {
			peer = strings.Join(st.ev.Peers, "+") // SRLG: the whole risk group
		}
		er := EventResult{
			Index: i, Kind: st.ev.Kind, Peer: peer,
			At: st.ev.At, DetectAt: st.detectAt,
		}
		if mixed {
			er.SuperchargedClass = &ClassResult{Routers: scRouters}
			er.VanillaClass = &ClassResult{Routers: vanRouters}
		}
		res.Events = append(res.Events, er)
	}
	for _, pr := range l.sortedProbes() {
		for _, o := range pr.outages {
			idx := l.eventIndexFor(o.start)
			if idx < 0 {
				continue
			}
			er := &res.Events[idx]
			cl := er.SuperchargedClass
			if !pr.rtr.supercharged {
				cl = er.VanillaClass
			}
			er.Affected++
			if cl != nil {
				cl.Affected++
			}
			if !o.ended {
				er.Unrecovered++
				if cl != nil {
					cl.Unrecovered++
				}
				continue
			}
			er.Recovered++
			conv := l.quantizedGap(pr, o)
			er.Convergence = append(er.Convergence, conv)
			if cl != nil {
				cl.Recovered++
				cl.Convergence = append(cl.Convergence, conv)
			}
			l.traceConverge(idx+1, pr, o, conv)
			l.metrics.observeConvergence(conv)
		}
	}
	l.metrics.runDone(res.FIBWrites)
	return res
}

// eventIndexFor returns the latest event fired at or before t (-1 if t
// precedes every event).
func (l *lab) eventIndexFor(t time.Time) int {
	best := -1
	for i, st := range l.events {
		if !st.absAt.After(t) {
			if best == -1 || !st.absAt.Before(l.events[best].absAt) {
				best = i
			}
		}
	}
	return best
}

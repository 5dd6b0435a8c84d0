// Package scenario is the declarative failure-scenario engine over the
// convergence lab: a scripted timeline of events (peer down/up, link
// flaps, partial withdraws, burst re-announcements, switch-rule loss,
// controller restarts, BFD- vs hold-timer-detected failures) compiled
// into internal/sim timeline runs over parameterized topologies, executed
// in Standalone and Supercharged modes, with per-event convergence
// metrics reported as JSON or CSV.
//
// The paper measures exactly one event — a single primary-peer failure on
// the Fig. 4 setup. This package generalizes that one-shot experiment
// into a testbed: a Spec names a topology (N provider peers with
// per-peer feed sizes and preferences) and an event timeline; the
// registry holds named built-in scenarios (paper-fig5, double-failure,
// flap-storm, backup-then-primary, partial-withdraw, ...); Run drives the
// virtual-clock lab and collects what each event did to the probed flows.
//
// Runner.RunUnit executes a single (mode, table size) cell — the independent unit
// of work internal/sweep distributes across worker pools. Every built-in
// is documented in docs/scenarios.md with its paper mapping and expected
// qualitative outcome.
package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"supercharged/internal/sim"
)

// sizeTiers names the standard table-size ladders a sweep can ask for by
// name instead of spelling out prefix counts. The xl tier is the
// full-Internet scale the ROADMAP targets (~1M prefixes; the paper's own
// sweep stops at 500k) — expensive enough that the builtin covering it
// caps its seed axis (Spec.MaxSeeds) to keep CI within budget.
var sizeTiers = map[string][]int{
	"s":  {1_000},
	"m":  {5_000, 10_000},
	"l":  {50_000, 100_000},
	"xl": {100_000, 1_000_000},
}

// TierSizes resolves a named size tier to its table sizes (a copy).
func TierSizes(name string) ([]int, bool) {
	sizes, ok := sizeTiers[name]
	if !ok {
		return nil, false
	}
	return append([]int(nil), sizes...), true
}

// Tiers returns the known size-tier names, sorted.
func Tiers() []string {
	names := make([]string, 0, len(sizeTiers))
	for name := range sizeTiers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Kind aliases the simulator's event kinds; see sim.EventKind for the
// catalogue.
type Kind = sim.EventKind

// Detection aliases the simulator's failure-detection selector.
type Detection = sim.Detection

// Peer declares one provider of the scenario topology.
type Peer struct {
	// Name identifies the peer in events (e.g. "R2").
	Name string `json:"name"`
	// Weight is the router's preference (higher wins; 0 = auto-descending
	// by position, so the first peer is the primary).
	Weight uint32 `json:"weight,omitempty"`
	// Prefixes caps this peer's advertised feed (0 = the full table).
	Prefixes int `json:"prefixes,omitempty"`
	// Offset rotates the peer's feed window to start at this table index
	// (modulo the table size, wrapping around). Staggered windows give a
	// many-peer fabric its per-prefix path diversity — and its many
	// distinct backup-groups.
	Offset int `json:"offset,omitempty"`
}

// Router declares one edge router of the scenario deployment. A spec
// without routers runs the classic single router; a spec mixing
// supercharged and vanilla routers models partial SDN deployment and
// reports per-class convergence.
type Router struct {
	// Name identifies the router ("" = E1, E2, ... by position).
	Name string `json:"name,omitempty"`
	// Supercharged puts the controller in front of this router in
	// supercharged mode. Standalone mode ignores the flag: the baseline
	// deployment has no SDN anywhere.
	Supercharged bool `json:"supercharged"`
}

// Event is one scripted event of the scenario timeline.
type Event struct {
	// At schedules the event relative to traffic steady-state.
	At time.Duration `json:"at"`
	// Kind names the event type (see sim.KnownEventKinds).
	Kind Kind `json:"kind"`
	// Peer names the affected peer (required for peer/link events).
	Peer string `json:"peer,omitempty"`
	// Peers names the members of a shared-risk link group (srlg-down
	// only, ≥ 2 distinct peers taken down by the one event).
	Peers []string `json:"peers,omitempty"`
	// Hold is the link-flap downtime, controller-restart duration,
	// session-reset re-establishment time (0 = the 1 s default) or
	// update-noise duration.
	Hold time.Duration `json:"hold,omitempty"`
	// Fraction is the partial-withdraw share of the peer's feed, (0, 1].
	Fraction float64 `json:"fraction,omitempty"`
	// Detection selects bfd (default) or hold-timer failure detection.
	Detection Detection `json:"detection,omitempty"`
	// Graceful preserves forwarding state across a session-reset
	// (RFC 4724 graceful restart).
	Graceful bool `json:"graceful,omitempty"`
	// Rate is the update-noise intensity in UPDATEs per second.
	Rate int `json:"rate,omitempty"`
}

// Spec is one declarative scenario: a named topology plus timeline.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// Paper maps the scenario onto the source paper: the section, figure
	// or benchmark whose claim it exercises. Every builtin sets it;
	// docs/scenarios.md is generated from it and CI fails on drift.
	Paper string `json:"paper,omitempty"`
	// Expect states the qualitative outcome a correct reproduction shows
	// (and, for the boundary scenarios, what it must NOT show).
	Expect string  `json:"expect,omitempty"`
	Peers  []Peer  `json:"peers"`
	Events []Event `json:"events"`
	// GroupSize is the backup-group tuple size k (0 = 2, the paper's).
	GroupSize int `json:"group_size,omitempty"`
	// Prefixes is the default table size when no sweep or override is
	// given (0 = executor default).
	Prefixes int `json:"prefixes,omitempty"`
	// Flows is the probed flow count (0 = the lab's 100).
	Flows int `json:"flows,omitempty"`
	// PrefixSweep runs the scenario once per listed table size — how
	// paper-fig5 shows flat-vs-linear scaling.
	PrefixSweep []int `json:"prefix_sweep,omitempty"`
	// MaxSeeds caps how many of a sweep's seeds run this scenario
	// (0 = no cap). The xl-tier builtin sets 1: a 1M-prefix lab is
	// deterministic per seed but costs real wall-clock, and the CI
	// budget spends its seed repetitions on the cheap sizes.
	MaxSeeds int `json:"max_seeds,omitempty"`
	// HoldTimer overrides the hold-timer detection latency (0 = 90 s).
	HoldTimer time.Duration `json:"hold_timer,omitempty"`
	// Table names an MRT TABLE_DUMP_V2 dump (plain or gzip) to replay
	// instead of the synthetic feed: every run announces the dump's
	// first Prefixes routes. Relative paths resolve against the working
	// directory and then upward (so tests and CI find repo-root
	// testdata from any package directory). The path is part of the
	// spec, but the dump is only opened at run time, so registering a
	// table-backed builtin does not require the file to exist.
	Table string `json:"table,omitempty"`

	// Routers declares the deployment (nil = one router per mode). Only
	// supercharged-mode runs honor the class mix; the standalone baseline
	// is always SDN-free.
	Routers []Router `json:"routers,omitempty"`
	// Cost prices the controller's work (nil = the free controller of
	// the original experiments; see sim.ControllerCost).
	Cost *sim.ControllerCost `json:"cost,omitempty"`
	// Replicas, Takeover and Durable parameterize controller-failover
	// events (see sim.TimelineConfig).
	Replicas int           `json:"replicas,omitempty"`
	Takeover time.Duration `json:"takeover,omitempty"`
	Durable  bool          `json:"durable,omitempty"`
}

// Validate checks the spec without running it: scenario-level shape here,
// topology and event rules via the simulator's timeline validation.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: empty name")
	}
	if strings.ContainsAny(s.Name, " \t\n") {
		return fmt.Errorf("scenario %q: name must not contain whitespace", s.Name)
	}
	if s.GroupSize < 0 {
		return fmt.Errorf("scenario %q: negative group size %d", s.Name, s.GroupSize)
	}
	if s.Prefixes < 0 {
		return fmt.Errorf("scenario %q: negative prefix count %d", s.Name, s.Prefixes)
	}
	if s.Flows < 0 {
		return fmt.Errorf("scenario %q: negative flow count %d", s.Name, s.Flows)
	}
	if s.MaxSeeds < 0 {
		return fmt.Errorf("scenario %q: negative seed cap %d", s.Name, s.MaxSeeds)
	}
	for _, n := range s.PrefixSweep {
		if n <= 0 {
			return fmt.Errorf("scenario %q: sweep size %d must be positive", s.Name, n)
		}
	}
	cfg := s.compile(sim.Standalone, 1000, 0, 1)
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	// The standalone compile drops the deployment/replica axes, so specs
	// using them are validated through the supercharged compile too.
	if len(s.Routers) > 0 || s.Replicas != 0 || s.Takeover != 0 || s.Cost != nil {
		cfg := s.compile(sim.Supercharged, 1000, 0, 1)
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	return nil
}

// compile lowers the spec to a simulator timeline configuration.
func (s Spec) compile(mode sim.Mode, prefixes, flows int, seed int64) sim.TimelineConfig {
	cfg := sim.TimelineConfig{
		Config:    sim.DefaultConfig(mode, prefixes),
		HoldTimer: s.HoldTimer,
	}
	cfg.Seed = seed
	if flows > 0 {
		cfg.NumFlows = flows
	} else if s.Flows > 0 {
		cfg.NumFlows = s.Flows
	}
	if s.GroupSize > 0 {
		cfg.GroupSize = s.GroupSize
	}
	for _, p := range s.Peers {
		cfg.Peers = append(cfg.Peers, sim.PeerSpec{
			Name: p.Name, Weight: p.Weight, Prefixes: p.Prefixes, Offset: p.Offset,
		})
	}
	for _, e := range s.Events {
		cfg.Events = append(cfg.Events, sim.TimelineEvent{
			At: e.At, Kind: e.Kind, Peer: e.Peer, Peers: e.Peers,
			Hold: e.Hold, Fraction: e.Fraction, Detection: e.Detection,
			Graceful: e.Graceful, Rate: e.Rate,
		})
	}
	if s.Cost != nil {
		cfg.Cost = *s.Cost
	}
	cfg.Replicas = s.Replicas
	cfg.Takeover = s.Takeover
	cfg.Durable = s.Durable
	if mode == sim.Supercharged {
		// Standalone is the no-SDN baseline: it never gets the class mix,
		// so "standalone vs supercharged" compares zero deployment against
		// the spec's deployment.
		for _, r := range s.Routers {
			cfg.Routers = append(cfg.Routers, sim.RouterSpec{Name: r.Name, Supercharged: r.Supercharged})
		}
	}
	return cfg
}

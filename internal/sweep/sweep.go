// Package sweep is the parallel sweep executor over the scenario engine:
// it expands a sweep Spec (scenario names × router modes × table sizes ×
// seeds) into independent run units, executes them across a bounded
// worker pool, streams per-unit results over a channel as they complete,
// and aggregates everything into a cross-scenario comparison report with
// per-event standalone-vs-supercharged speedup ratios.
//
// The paper's headline result is a comparison curve — convergence time
// against table size for a vanilla router versus the same router behind
// the supercharger — and such a curve is only as good as the sweep that
// produced it. This package turns the one-at-a-time scenario executor
// into that sweep: every (scenario, mode, size, seed) combination is an
// independent discrete-event lab on its own virtual clock, so units
// parallelize perfectly and the worker count changes only wall-clock
// time, never results. A failed unit is reported in the aggregate, not
// dropped, and the final ordering is deterministic (by unit key) no
// matter which worker finished first.
//
// Two properties make the sweep fit to run statistically (many seeds)
// on every push:
//
//   - Multi-seed statistics: comparison cells aggregate across seeds
//     into distributions (min/median/mean/p90/max and IQR — the paper's
//     Fig. 5 box plots in table form) instead of single-seed points.
//   - Cancellation and budgets: Run and Stream take a context and
//     Options.Budget caps wall-clock; a cancelled sweep stops in-flight
//     labs between simulator events and returns the partial aggregate
//     with the remaining units as failures.
//
// The Aggregate renders as JSON, a text table, or the committed
// EXPERIMENTS.md (see Markdown and cmd/experiments).
package sweep

import (
	"fmt"
	"strconv"
	"strings"

	"supercharged/internal/scenario"
	"supercharged/internal/sim"
)

// Spec declares a sweep: the cross product of scenarios, modes, table
// sizes and seeds. Zero-valued axes take the natural defaults, so the
// zero Spec sweeps every registered scenario in both modes at each
// scenario's own default sizes with seed 1.
type Spec struct {
	// Scenarios names the registered scenarios to sweep (empty = every
	// registered scenario, sorted by name).
	Scenarios []string `json:"scenarios,omitempty"`
	// Modes lists the router modes (empty = standalone then supercharged,
	// so every report compares the two).
	Modes []sim.Mode `json:"modes,omitempty"`
	// Sizes overrides the table sizes for every scenario (empty = each
	// scenario's own PrefixSweep or default size).
	Sizes []int `json:"sizes,omitempty"`
	// Tier names a registered size tier (scenario.TierSizes: s, m, l,
	// xl) as a shorthand for Sizes; setting both is an error. The xl
	// tier is the 100k/1M full-Internet scale.
	Tier string `json:"tier,omitempty"`
	// Seeds lists the RNG seeds (empty = {1}). A scenario with a
	// MaxSeeds cap runs only the first MaxSeeds of them.
	Seeds []int64 `json:"seeds,omitempty"`
	// Flows overrides the probed-flow count per run (0 = the lab's 100).
	Flows int `json:"flows,omitempty"`
}

// Unit is one independent run of a sweep: one scenario in one mode at one
// table size with one seed. Units are the scheduling quantum of the
// worker pool and the row key of the aggregate.
type Unit struct {
	Scenario string   `json:"scenario"`
	Mode     sim.Mode `json:"-"`
	ModeName string   `json:"mode"`
	Prefixes int      `json:"prefixes"`
	Seed     int64    `json:"seed"`
	Flows    int      `json:"flows,omitempty"`

	// spec is the resolved scenario, captured at expansion time so a
	// mid-sweep registry change cannot skew results.
	spec scenario.Spec
}

// ParseSeeds interprets a -seeds flag value: a single integer N is a
// seed *count* (seeds 1..N — how CI asks for "five seeds" without
// naming them), while a comma-separated list names explicit seeds.
// Empty input returns nil (the sweep default, seed 1).
func ParseSeeds(s string) ([]int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	if !strings.Contains(s, ",") {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sweep: bad seed count %q", s)
		}
		if n <= 0 {
			return nil, fmt.Errorf("sweep: seed count %d must be positive", n)
		}
		seeds := make([]int64, n)
		for i := range seeds {
			seeds[i] = int64(i + 1)
		}
		return seeds, nil
	}
	var seeds []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sweep: bad seed %q", part)
		}
		// Expand rejects non-positive seeds too, but failing here names
		// the flag instead of the expanded spec.
		if n <= 0 {
			return nil, fmt.Errorf("sweep: seed %d must be positive", n)
		}
		seeds = append(seeds, n)
	}
	return seeds, nil
}

// Key is the unit's stable identity: scenario/mode/prefixes/seed. Final
// aggregate ordering sorts by expansion order, which is itself ordered by
// key components, so two sweeps of the same spec agree byte-for-byte.
func (u Unit) Key() string {
	return fmt.Sprintf("%s/%s/%d/%d", u.Scenario, u.ModeName, u.Prefixes, u.Seed)
}

// Spec returns the resolved scenario spec the unit runs.
func (u Unit) Spec() scenario.Spec { return u.spec }

// defaultModes is the two-mode comparison every sweep defaults to.
func defaultModes() []sim.Mode { return []sim.Mode{sim.Standalone, sim.Supercharged} }

// Expand resolves the spec against the scenario registry and returns the
// sweep's run units in deterministic order: scenario (input order, or
// sorted by name when defaulted), then table size ascending, then mode,
// then seed. Unknown scenario names and empty axes are errors up front,
// so a sweep never starts half-valid.
func Expand(spec Spec) ([]Unit, error) {
	names := spec.Scenarios
	if len(names) == 0 {
		names = scenario.Names()
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("sweep: no scenarios registered")
	}
	modes := spec.Modes
	if len(modes) == 0 {
		modes = defaultModes()
	}
	modeSeen := make(map[sim.Mode]bool)
	for _, m := range modes {
		if modeSeen[m] {
			return nil, fmt.Errorf("sweep: mode %s listed twice", m)
		}
		modeSeen[m] = true
	}
	seeds := spec.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	specSizes := spec.Sizes
	if spec.Tier != "" {
		if len(specSizes) > 0 {
			return nil, fmt.Errorf("sweep: Tier %q and explicit Sizes are mutually exclusive", spec.Tier)
		}
		tierSizes, ok := scenario.TierSizes(spec.Tier)
		if !ok {
			return nil, fmt.Errorf("sweep: unknown size tier %q (have: %v)", spec.Tier, scenario.Tiers())
		}
		specSizes = tierSizes
	}
	// Duplicate axis values would collide on unit keys and silently
	// overwrite each other in the aggregate's mode pairing — reject them
	// with the same loudness as duplicate scenario names.
	sizeSeen := make(map[int]bool)
	for _, n := range specSizes {
		if n <= 0 {
			return nil, fmt.Errorf("sweep: table size %d must be positive", n)
		}
		if sizeSeen[n] {
			return nil, fmt.Errorf("sweep: table size %d listed twice", n)
		}
		sizeSeen[n] = true
	}
	seedSeen := make(map[int64]bool)
	for _, s := range seeds {
		if s <= 0 {
			return nil, fmt.Errorf("sweep: seed %d must be positive", s)
		}
		if seedSeen[s] {
			return nil, fmt.Errorf("sweep: seed %d listed twice", s)
		}
		seedSeen[s] = true
	}

	var units []Unit
	seen := make(map[string]bool)
	for _, name := range names {
		sc, ok := scenario.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("sweep: unknown scenario %q (have: %v)", name, scenario.Names())
		}
		if seen[name] {
			return nil, fmt.Errorf("sweep: scenario %q listed twice", name)
		}
		seen[name] = true
		sizes := specSizes
		if len(sizes) == 0 {
			sizes = sc.Sizes(0)
		}
		// A seed-capped scenario (the expensive xl tier) runs only the
		// first MaxSeeds seeds of the sweep's axis; the aggregate's
		// per-cell statistics already report the per-cell seed count.
		scSeeds := seeds
		if sc.MaxSeeds > 0 && len(scSeeds) > sc.MaxSeeds {
			scSeeds = scSeeds[:sc.MaxSeeds]
		}
		for _, size := range sizes {
			for _, mode := range modes {
				for _, seed := range scSeeds {
					units = append(units, Unit{
						Scenario: name,
						Mode:     mode,
						ModeName: mode.String(),
						Prefixes: size,
						Seed:     seed,
						Flows:    spec.Flows,
						spec:     sc,
					})
				}
			}
		}
	}
	return units, nil
}

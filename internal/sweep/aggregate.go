package sweep

import (
	"encoding/json"
	"sort"

	"supercharged/internal/metrics"
	"supercharged/internal/scenario"
	"supercharged/internal/sim"
)

// Aggregate is the deterministic cross-scenario result of a sweep. It
// contains no wall-clock or host-dependent data, so the same spec and
// seeds render byte-identically regardless of worker count or machine —
// the property the committed EXPERIMENTS.md and its CI freshness check
// rely on.
type Aggregate struct {
	Seeds     []int64          `json:"seeds"`
	Flows     int              `json:"flows,omitempty"`
	Units     int              `json:"units"`
	Failed    int              `json:"failed"`
	Scenarios []ScenarioResult `json:"scenarios"`
}

// ScenarioResult groups one scenario's runs, failures and cross-mode
// comparisons.
type ScenarioResult struct {
	Name        string       `json:"scenario"`
	Description string       `json:"description,omitempty"`
	Runs        []RunRow     `json:"runs"`
	Comparisons []Comparison `json:"comparisons,omitempty"`
	Failures    []Failure    `json:"failures,omitempty"`
}

// RunRow is one unit's report plus the unit identity the report itself
// does not carry (its key and seed).
type RunRow struct {
	Key  string `json:"key"`
	Seed int64  `json:"seed"`
	scenario.RunReport
}

// Failure is one unit that errored; the sweep reports it instead of
// dropping it, so a partially failing sweep is visibly partial.
type Failure struct {
	Key   string `json:"key"`
	Error string `json:"error"`
}

// Dist is a box-plot-style summary of one per-seed statistic — the
// paper's Fig. 5 presentation, where every cell is a distribution over
// repeated runs rather than a point. Values are milliseconds.
type Dist struct {
	// N is the number of seeds contributing a sample.
	N        int     `json:"n"`
	MinMS    float64 `json:"min_ms"`
	MedianMS float64 `json:"median_ms"`
	MeanMS   float64 `json:"mean_ms"`
	P90MS    float64 `json:"p90_ms"`
	MaxMS    float64 `json:"max_ms"`
	// IQRMS is the inter-quartile range (P75−P25), the box height.
	IQRMS float64 `json:"iqr_ms"`
}

// distOf summarizes per-seed samples (nil when none exist).
func distOf(samples []float64) *Dist {
	if len(samples) == 0 {
		return nil
	}
	s := metrics.Summarize(samples)
	return &Dist{
		N:        s.N,
		MinMS:    s.Min,
		MedianMS: s.Median,
		MeanMS:   s.Mean,
		P90MS:    metrics.Percentile(sortedCopy(samples), 0.90),
		MaxMS:    s.Max,
		IQRMS:    s.P75 - s.P25,
	}
}

// ModeStats is one mode's measurements for one (scenario, event, size)
// cell, aggregated across every seed that ran it: flow counts are totals
// over seeds, and P50/Max summarize the per-seed median and worst
// blackout as distributions.
type ModeStats struct {
	// Seeds counts the runs (one per seed) contributing to this cell.
	Seeds int `json:"seeds"`
	// Affected/Recovered/Unrecovered are flow totals across those seeds.
	Affected    int `json:"affected"`
	Recovered   int `json:"recovered"`
	Unrecovered int `json:"unrecovered"`
	// P50 is the distribution of per-seed median blackout; Max the
	// distribution of per-seed worst blackout. Nil when no seed had a
	// recovered flow to measure.
	P50 *Dist `json:"p50,omitempty"`
	Max *Dist `json:"max,omitempty"`
}

// Comparison pairs one event's measurements across the two router modes
// at one table size, aggregated over every seed — the paper's headline
// number, computed per event and presented as a spread instead of a
// single-seed point.
type Comparison struct {
	Prefixes int `json:"prefixes"`
	// Seeds is the number of distinct seeds contributing to the row.
	Seeds int    `json:"seeds"`
	Event int    `json:"event"`
	Kind  string `json:"kind"`
	Peer  string `json:"peer,omitempty"`
	// DetectMS is the failure-detection latency (identical path in both
	// modes; 0 when the event needs no detection).
	DetectMS     float64    `json:"detect_ms"`
	Standalone   *ModeStats `json:"standalone,omitempty"`
	Supercharged *ModeStats `json:"supercharged,omitempty"`
	// SuperchargedClass / VanillaClass split the supercharged-mode runs
	// by router class on mixed partial deployments (absent otherwise):
	// the crossover surface of incremental SDN rollout, measured per
	// event. The supercharged totals above mix both classes.
	SuperchargedClass *ModeStats `json:"supercharged_class,omitempty"`
	VanillaClass      *ModeStats `json:"vanilla_class,omitempty"`
	// SpeedupP50 and SpeedupMax are standalone/supercharged ratios of the
	// per-seed-median blackout (median of p50s, median of maxes). >1 means
	// the supercharger converged faster. They are 0 — "nothing honest to
	// compare" — when either side has no recovered flows OR left any flow
	// in any seed unrecovered: a ratio over the survivors would overstate
	// a mode that blackholed traffic forever.
	SpeedupP50 float64 `json:"speedup_p50,omitempty"`
	SpeedupMax float64 `json:"speedup_max,omitempty"`
	// SpeedupClassMax is the standalone / supercharged-class ratio of the
	// per-seed-median worst blackout on mixed deployments — what the SDN
	// routers alone gained over the baseline, with the same honesty rules
	// as SpeedupMax. 0 when the run was not a mixed deployment.
	SpeedupClassMax float64 `json:"speedup_class_max,omitempty"`
}

// aggregate assembles the deterministic report from expansion-ordered
// units and their (completion-ordered, then reindexed) results.
func aggregate(spec Spec, units []Unit, results []UnitResult) *Aggregate {
	seeds := spec.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	agg := &Aggregate{
		Seeds: append([]int64(nil), seeds...),
		Flows: spec.Flows,
		Units: len(units),
	}
	byName := make(map[string]*ScenarioResult)
	var order []string
	for i, u := range units {
		sr := byName[u.Scenario]
		if sr == nil {
			sr = &ScenarioResult{Name: u.Scenario, Description: u.spec.Description}
			byName[u.Scenario] = sr
			order = append(order, u.Scenario)
		}
		res := results[i]
		if res.Err != nil {
			agg.Failed++
			sr.Failures = append(sr.Failures, Failure{Key: u.Key(), Error: res.Err.Error()})
			continue
		}
		sr.Runs = append(sr.Runs, RunRow{Key: u.Key(), Seed: u.Seed, RunReport: *res.Run})
	}
	for _, name := range order {
		sr := byName[name]
		sr.Comparisons = compare(sr.Runs)
		agg.Scenarios = append(agg.Scenarios, *sr)
	}
	return agg
}

// compare aggregates each (prefixes, event) cell across the two modes
// and every seed. Runs arrive in expansion order (size ascending, then
// mode, then seed), so the comparison rows inherit that deterministic
// ordering.
func compare(runs []RunRow) []Comparison {
	type group struct {
		standalone, supercharged []*RunRow
		seeds                    map[int64]bool
	}
	groups := make(map[int]*group)
	var order []int
	for i := range runs {
		r := &runs[i]
		g := groups[r.Prefixes]
		if g == nil {
			g = &group{seeds: make(map[int64]bool)}
			groups[r.Prefixes] = g
			order = append(order, r.Prefixes)
		}
		g.seeds[r.Seed] = true
		if r.Mode == sim.Supercharged.String() {
			g.supercharged = append(g.supercharged, r)
		} else {
			g.standalone = append(g.standalone, r)
		}
	}
	var out []Comparison
	for _, prefixes := range order {
		g := groups[prefixes]
		if len(g.standalone) == 0 || len(g.supercharged) == 0 {
			continue // single-mode sweep: nothing to compare
		}
		n := minEvents(g.standalone)
		if m := minEvents(g.supercharged); m < n {
			n = m
		}
		for ev := 0; ev < n; ev++ {
			sa, su := g.standalone[0].Events[ev], g.supercharged[0].Events[ev]
			c := Comparison{
				Prefixes: prefixes,
				Seeds:    len(g.seeds),
				Event:    ev,
				Kind:     string(sa.Kind),
				Peer:     sa.Peer,
				DetectMS: maxDetect(g.standalone, g.supercharged, ev),
			}
			c.Standalone = modeStats(g.standalone, ev)
			c.Supercharged = modeStats(g.supercharged, ev)
			c.SuperchargedClass = classStats(g.supercharged, ev,
				func(e scenario.EventReport) *scenario.ClassSummary { return e.SuperchargedClass })
			c.VanillaClass = classStats(g.supercharged, ev,
				func(e scenario.EventReport) *scenario.ClassSummary { return e.VanillaClass })
			if c.Standalone != nil && c.SuperchargedClass != nil &&
				c.Standalone.Unrecovered == 0 && c.SuperchargedClass.Unrecovered == 0 {
				if m := c.SuperchargedClass.Max; m != nil && m.MedianMS > 0 && c.Standalone.Max != nil {
					c.SpeedupClassMax = c.Standalone.Max.MedianMS / m.MedianMS
				}
			}
			if c.Standalone == nil && c.Supercharged == nil &&
				sa.Affected == 0 && su.Affected == 0 {
				continue // event never touched traffic in either mode or seed
			}
			if c.Standalone != nil && c.Supercharged != nil &&
				c.Standalone.Unrecovered == 0 && c.Supercharged.Unrecovered == 0 {
				if p := c.Supercharged.P50; p != nil && p.MedianMS > 0 && c.Standalone.P50 != nil {
					c.SpeedupP50 = c.Standalone.P50.MedianMS / p.MedianMS
				}
				if m := c.Supercharged.Max; m != nil && m.MedianMS > 0 && c.Standalone.Max != nil {
					c.SpeedupMax = c.Standalone.Max.MedianMS / m.MedianMS
				}
			}
			out = append(out, c)
		}
	}
	return out
}

// modeStats folds one event across one mode's per-seed runs (nil when no
// seed's run had the event touch traffic).
func modeStats(rs []*RunRow, ev int) *ModeStats {
	st := &ModeStats{}
	var p50s, maxs []float64
	for _, r := range rs {
		if ev >= len(r.Events) {
			continue
		}
		e := r.Events[ev]
		st.Seeds++
		st.Affected += e.Affected
		st.Recovered += e.Recovered
		st.Unrecovered += e.Unrecovered
		if e.Convergence != nil {
			p50s = append(p50s, e.Convergence.P50MS)
			maxs = append(maxs, e.Convergence.MaxMS)
		}
	}
	if st.Affected == 0 {
		return nil
	}
	st.P50 = distOf(p50s)
	st.Max = distOf(maxs)
	return st
}

// classStats folds one router class's share of an event across the
// supercharged-mode per-seed runs (nil when the runs carried no class
// breakdown — i.e. anything but a mixed partial deployment — or the
// class was never touched).
func classStats(rs []*RunRow, ev int, pick func(scenario.EventReport) *scenario.ClassSummary) *ModeStats {
	st := &ModeStats{}
	var p50s, maxs []float64
	for _, r := range rs {
		if ev >= len(r.Events) {
			continue
		}
		cl := pick(r.Events[ev])
		if cl == nil {
			continue
		}
		st.Seeds++
		st.Affected += cl.Affected
		st.Recovered += cl.Recovered
		st.Unrecovered += cl.Unrecovered
		if cl.Convergence != nil {
			p50s = append(p50s, cl.Convergence.P50MS)
			maxs = append(maxs, cl.Convergence.MaxMS)
		}
	}
	if st.Seeds == 0 || st.Affected == 0 {
		return nil
	}
	st.P50 = distOf(p50s)
	st.Max = distOf(maxs)
	return st
}

func minEvents(rs []*RunRow) int {
	n := len(rs[0].Events)
	for _, r := range rs[1:] {
		if len(r.Events) < n {
			n = len(r.Events)
		}
	}
	return n
}

// maxDetect is the worst detection latency of the event across modes and
// seeds (detection is the same physical path in both modes, so in
// practice the values agree; max keeps the report honest if they ever
// diverge).
func maxDetect(standalone, supercharged []*RunRow, ev int) float64 {
	var worst float64
	for _, rs := range [][]*RunRow{standalone, supercharged} {
		for _, r := range rs {
			if ev < len(r.Events) && r.Events[ev].DetectMS > worst {
				worst = r.Events[ev].DetectMS
			}
		}
	}
	return worst
}

// sortedCopy sorts without mutating the caller's slice —
// metrics.Percentile expects sorted input.
func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// JSON renders the aggregate as indented JSON.
func (a *Aggregate) JSON() ([]byte, error) {
	return json.MarshalIndent(a, "", "  ")
}

// RenderTable renders the comparison rows as a fixed-width text table,
// the `cmd/scenario sweep` default output. With multiple seeds each
// convergence cell reads `median [min–max]` across seeds.
func (a *Aggregate) RenderTable() string {
	multiSeed := len(a.Seeds) > 1
	header := []string{"scenario", "prefixes"}
	if multiSeed {
		header = append(header, "seeds")
	}
	header = append(header, "event", "kind", "peer", "detect",
		"standalone p50", "standalone max", "supercharged p50", "supercharged max", "speedup")
	t := &metrics.Table{Header: header}
	for _, sr := range a.Scenarios {
		for _, c := range sr.Comparisons {
			row := []any{sr.Name, c.Prefixes}
			if multiSeed {
				row = append(row, c.Seeds)
			}
			row = append(row, c.Event, c.Kind, orDash(c.Peer), fmtDetect(c.DetectMS),
				cellP50(c.Standalone), cellMax(c.Standalone),
				cellP50(c.Supercharged), cellMax(c.Supercharged),
				fmtSpeedup(c.SpeedupMax))
			t.Add(row...)
		}
		for _, f := range sr.Failures {
			row := make([]any, len(header))
			row[0], row[1] = sr.Name, "FAILED"
			for i := 2; i < len(row); i++ {
				row[i] = "-"
			}
			row[len(row)-1] = f.Key
			t.Add(row...)
		}
	}
	return t.Render()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

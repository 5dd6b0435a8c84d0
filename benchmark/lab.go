package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"supercharged/internal/feed"
	"supercharged/internal/scenario"
	"supercharged/internal/sim"
)

// lab-fig5: the researcher's end to end, the wall-clock to regenerate the
// paper's figure through scenario.Runner. The only workload that runs sim,
// clock.Virtual, the flat FIB and LPM, router and the MRT loader.

const risSamplePath = "testdata/ris-sample.mrt"

// risSample finds the committed RIS sample from the working directory
// upward, the way scenario.LoadTable resolves the same relative path.
func risSample() string {
	dir, err := os.Getwd()
	if err != nil {
		return risSamplePath
	}
	for {
		cand := filepath.Join(dir, risSamplePath)
		if _, err := os.Stat(cand); err == nil {
			return cand
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return risSamplePath
		}
		dir = parent
	}
}

// labUnit is one (scenario, mode, size, table) cell. Units come in pairs: a
// standalone unit, then the supercharged unit that must beat it. layer names
// the sim.* layer metric the unit's wall time adds to.
type labUnit struct {
	name     string
	scenario string
	mode     sim.Mode
	prefixes int
	mrt      bool
	layer    string
}

func labUnits(sc scale) []labUnit {
	return []labUnit{
		{"paper-fig5 standalone", "paper-fig5", sim.Standalone, sc.labBig, false, "sim.standalone_wall_ms_200k"},
		{"paper-fig5 supercharged", "paper-fig5", sim.Supercharged, sc.labBig, false, "sim.supercharged_wall_ms_200k"},
		{"paper-fig5 RIS standalone", "paper-fig5", sim.Standalone, sc.labSmall, true, "sim.mrt_wall_ms"},
		{"paper-fig5 RIS supercharged", "paper-fig5", sim.Supercharged, sc.labSmall, true, "sim.mrt_wall_ms"},
		{"session-reset-graceful standalone", "session-reset-graceful", sim.Standalone, sc.labSmall, false, "sim.session_reset_wall_ms"},
		{"session-reset-graceful supercharged", "session-reset-graceful", sim.Supercharged, sc.labSmall, false, "sim.session_reset_wall_ms"},
	}
}

func (u labUnit) run(e *env) (scenario.RunReport, time.Duration, error) {
	spec, ok := scenario.Lookup(u.scenario)
	if !ok {
		return scenario.RunReport{}, 0, fmt.Errorf("scenario %q is not registered", u.scenario)
	}
	r := scenario.Runner{}
	if u.mrt {
		r.Table = risSamplePath
	}
	t0 := time.Now()
	rep, err := r.RunUnit(context.Background(), spec, u.mode, u.prefixes, 0, e.seed)
	dt := time.Since(t0)
	e.tr.add("sim.unit "+u.name, "lab", t0, dt, u.prefixes)
	return rep, dt, err
}

// labSetup pays what the units must not: the MRT load (scenario.LoadTable
// memoizes the dump per path, so the first unit that names it would carry
// it) and one warm-up unit.
func labSetup(e *env) (any, error) {
	f, err := os.Open(risSample())
	if err != nil {
		return nil, err
	}
	_, err = feed.FromMRT(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	warm := labUnit{"warm-up", "paper-fig5", sim.Supercharged, e.sc.labSmall, true, ""}
	_, _, err = warm.run(e)
	return nil, err
}

// worstGap is the largest per-flow blackout a run reports, in ms, and
// whether any flow blacked out at all.
func worstGap(rep scenario.RunReport) (float64, bool) {
	worst, any := 0.0, false
	for _, ev := range rep.Events {
		if ev.Convergence != nil {
			worst, any = max(worst, ev.Convergence.MaxMS), true
		}
	}
	return worst, any
}

func labMeasure(e *env, _ any) *result {
	res := newResult(wlLab)
	start := time.Now()
	before := memStats()
	units := labUnits(e.sc)
	var peaks []float64
	walls := make([][]float64, len(units))
	first := make([]scenario.RunReport, len(units))
	firstJSON := make([]string, len(units))

	for rep := 0; e.budget(start, rep); rep++ {
		heapPeak := watchHeap()
		for i, u := range units {
			report, dt, err := u.run(e)
			res.Ops++
			if !res.check(err == nil, "lab-fig5: %s: %v", u.name, err) {
				continue
			}
			walls[i] = append(walls[i], ms(dt))
			// The lab runs on a virtual clock: repetitions of a unit
			// must report the same convergence to the nanosecond.
			report.ElapsedMS = 0
			js, _ := json.Marshal(report)
			if rep == 0 {
				first[i], firstJSON[i] = report, string(js)
			} else {
				res.check(string(js) == firstJSON[i], "lab-fig5: %s: repetition %d reports a different convergence", u.name, rep+1)
			}
			for _, ev := range report.Events {
				res.check(ev.Unrecovered == 0 && ev.Recovered == ev.Affected,
					"lab-fig5: %s: %d of %d affected flows recovered", u.name, ev.Recovered, ev.Affected)
			}
		}
		peaks = append(peaks, heapPeak())
		e.logf("  repetition %d done at %.1f s, heap peak %.0f MB", rep+1, time.Since(start).Seconds(), peaks[rep])
	}
	// The headline claim, at every size the units cover: supercharged
	// convergence is at most 150 ms and below standalone.
	for i := 0; i+1 < len(units); i += 2 {
		std, stdOK := worstGap(first[i])
		sup, supOK := worstGap(first[i+1])
		if units[i].scenario != "paper-fig5" {
			continue
		}
		res.check(stdOK && supOK, "lab-fig5: %s: no flow blacked out", units[i].name)
		res.check(sup <= 150 && sup < std, "lab-fig5: %s: supercharged %.1f ms, standalone %.1f ms", units[i+1].name, sup, std)
	}
	after := memStats()
	res.Wall = time.Since(start)

	total, slowest, routes := 0.0, 0.0, 0
	for i, u := range units {
		if len(walls[i]) == 0 {
			return res
		}
		m := lowerQuartileOf(walls[i]).V
		total += m
		slowest = max(slowest, m)
		routes += u.prefixes
		res.Layer[u.layer] += m
		e.logf("  %-36s @%-7d lower quartile %.0f ms over %d runs", u.name, u.prefixes, m, len(walls[i]))
	}
	reps, stat := len(walls[0]), "lower quartile"
	res.Named["lab_wall_s"] = value{V: total / 1e3, N: reps, Stat: stat}
	res.Named["lab_routes_per_s"] = value{V: float64(routes) / (total / 1e3), N: reps, Stat: "upper quartile"}
	res.Named["lab_unit_ms"] = value{V: total / float64(len(units)), N: reps, Stat: stat}
	res.Named["lab_slowest_unit_ms"] = value{V: slowest, N: reps, Stat: stat}
	res.Named["lab_heap_mb"] = medianOf(peaks)
	res.runtimeLayer(before, after, routes*reps)
	return res
}

func labIsolated(e *env, _ any, res *result) { isolatedLab(e, res) }

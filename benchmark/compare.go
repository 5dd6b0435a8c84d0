package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// compare reads two -out files (any number of runs each) and prints, for
// every workload x end-to-end metric, both medians, the relative change, the
// bound and a verdict:
//
//	ok          the second median is not worse than the first by more than the bound
//	worse       it is
//	unresolved  the files' own run-to-run spread (interquartile range over
//	            median) exceeds the bound, so the difference means nothing
//
// selfcheck runs the untraced suite twice and demands ok everywhere: two
// sets of runs of one commit must agree within the benchmark's own bounds.

// boundOf is the relative worsening a metric may show before it counts as a
// regression: its slot's bound from BENCHMARK.json, or for the few named
// metrics without a slot, the bound of the slot with the same role.
func boundOf(d namedDef) float64 {
	slot := d.Slot
	if slot == "" {
		slot = slotLatency // churn_*_60k and lab_wall_s are times
	}
	s, _ := slotByName(slot)
	return s.Bound
}

type row struct {
	workload, metric, unit string
	a, b                   float64
	spreadA, spreadB       float64
	nA, nB                 int
	worsening, bound       float64
	verdict                string
}

// spreadOf is the driver's spread: the distance between the first and third
// quartile as a share of the median.
func spreadOf(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	if m := percentile(xs, 0.5); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

func compareRecords(a, b []record) []row {
	collect := func(recs []record) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range recs {
			if r.Traced {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], v.V)
			}
		}
		return out
	}
	ma, mb := collect(a), collect(b)
	var rows []row
	for _, d := range named {
		xa, xb := ma[d.Workload][d.Name], mb[d.Workload][d.Name]
		if len(xa) == 0 || len(xb) == 0 {
			continue
		}
		r := row{workload: d.Workload, metric: d.Name, unit: d.Unit, nA: len(xa), nB: len(xb), bound: boundOf(d)}
		r.a, r.b = percentile(xa, 0.5), percentile(xb, 0.5)
		r.spreadA, r.spreadB = spreadOf(xa), spreadOf(xb)
		if r.a != 0 {
			r.worsening = (r.b - r.a) / r.a
			if d.Better == "higher" {
				r.worsening = -r.worsening
			}
		}
		switch {
		case max(r.spreadA, r.spreadB) > r.bound:
			r.verdict = "unresolved"
		case r.worsening > r.bound:
			r.verdict = "worse"
		default:
			r.verdict = "ok"
		}
		rows = append(rows, r)
	}
	return rows
}

func printRows(w io.Writer, rows []row) (allOK bool) {
	allOK = true
	fmt.Fprintf(w, "%-17s %-24s %14s %14s %-9s %8s %6s %8s %8s  %s\n",
		"workload", "metric", "median A", "median B", "unit", "worse by", "bound", "spread A", "spread B", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-17s %-24s %14.4f %14.4f %-9s %+7.1f%% %5.0f%% %7.1f%% %7.1f%%  %s\n",
			r.workload, r.metric, r.a, r.b, r.unit, 100*r.worsening, 100*r.bound, 100*r.spreadA, 100*r.spreadB, r.verdict)
		allOK = allOK && r.verdict == "ok"
	}
	return allOK
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare A.jsonl B.jsonl")
		return 2
	}
	var sets [2][]record
	for i, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
			return 1
		}
		sets[i] = recs
	}
	rows := compareRecords(sets[0], sets[1])
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "benchmark compare: the files share no workload")
		return 1
	}
	if !printRows(stdout, rows) {
		return 1
	}
	return 0
}

func selfcheckCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("selfcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "seed of both suites")
	seconds := fs.Float64("seconds", 20, "measuring time per workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var sets [2][]record
	for i := range sets {
		runs, err := runSuite(workloads, newHeader(*seed, *seconds), false, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark selfcheck: %v\n", err)
			return 1
		}
		for _, r := range runs {
			if r.res.Failed > 0 {
				return 1
			}
			sets[i] = append(sets[i], r.rec)
		}
	}
	fmt.Fprintln(stdout)
	if !printRows(stdout, compareRecords(sets[0], sets[1])) {
		fmt.Fprintln(stdout, "selfcheck: the two suites disagree beyond the bounds")
		return 1
	}
	fmt.Fprintln(stdout, "selfcheck: ok")
	return 0
}

package main

import (
	"sort"

	"supercharged/internal/metrics"
)

// The benchmark reports three kinds of numbers.
//
// Slots are the end-to-end metrics of BENCHMARK.json. The contract behind
// that file wants every run of every workload to print every end-to-end
// metric, so a slot is a role ("throughput", "typical latency", "tail
// latency", "memory") that each workload fills with its own measurement.
//
// Named metrics are the workload-specific names later performance claims are
// made in (failover_ms, churn_p95_ms_180k, ...). Most of them fill a slot;
// the ones that do not are printed and compared all the same.
//
// Layer metrics are the per-layer budget of the traced run.

// slotDef is one end-to-end metric of BENCHMARK.json.
type slotDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

const (
	slotSetup   = "setup_s"
	slotRoutes  = "routes_per_s"
	slotLatency = "latency_ms"
	slotTail    = "tail_ms"
	slotHeap    = "heap_mb"
)

// slots must match BENCHMARK.json's end_to_end list; the smoke test checks it.
var slots = []slotDef{
	{slotSetup, "s", "lower", 0.25},
	{slotRoutes, "routes/s", "higher", 0.25},
	{slotLatency, "ms", "lower", 0.25},
	{slotTail, "ms", "lower", 0.25},
	{slotHeap, "MB", "lower", 0.15},
}

func slotByName(name string) (slotDef, bool) {
	for _, s := range slots {
		if s.Name == name {
			return s, true
		}
	}
	return slotDef{}, false
}

// namedDef declares one workload-specific metric and the slot it fills ("" =
// reported and compared, but not gated by BENCHMARK.json).
type namedDef struct {
	Workload string
	Name     string
	Unit     string
	Better   string
	Slot     string
}

const (
	wlFulltable = "serve-fulltable"
	wlChurn     = "serve-churn"
	wlCore      = "core-supercharge"
	wlLab       = "lab-fig5"
)

var named = []namedDef{
	{wlFulltable, "setup_s", "s", "lower", slotSetup},                    // table generation, UPDATE rendering for both peers, one untimed warm-up cycle
	{wlFulltable, "load_routes_per_s", "routes/s", "higher", slotRoutes}, // 2 x table routes / (first emit -> both sinks hold the table, queues empty); median of cycles
	{wlFulltable, "failover_half_ms", "ms", "lower", slotLatency},        // source failure -> half of the prefixes are on the backup at the slowest sink; median of cycles
	{wlFulltable, "failover_ms", "ms", "lower", slotTail},                // source failure -> last Apply return after which both sinks are fully on the backup; median of cycles
	{wlFulltable, "loaded_heap_mb", "MB", "lower", slotHeap},             // HeapInuse after load + 2 x GC minus the same before daemon.New; median of cycles

	{wlChurn, "setup_s", "s", "lower", slotSetup},                     // table generation, UPDATE rendering, prefix->block index, preload of the table from both peers
	{wlChurn, "churn_routes_per_s", "routes/s", "higher", slotRoutes}, // unpaced phase: routes / (first emit -> last Apply)
	{wlChurn, "churn_p50_ms_180k", "ms", "lower", slotLatency},        // due -> applied on the slowest sink per change-producing UPDATE at 180k routes/s
	{wlChurn, "churn_p95_ms_180k", "ms", "lower", slotTail},           // same, 95th percentile
	{wlChurn, "churn_p50_ms_60k", "ms", "lower", ""},                  // due -> applied per change-producing UPDATE at 60k routes/s
	{wlChurn, "churn_p95_ms_60k", "ms", "lower", ""},                  // same, 95th percentile
	{wlChurn, "churn_heap_mb", "MB", "lower", slotHeap},               // HeapInuse after the last phase + 2 x GC minus the same before daemon.New

	{wlCore, "setup_s", "s", "lower", slotSetup},                         // table generation, wire pre-rendering (StreamUpdates + Codec.Marshal) for six peers, one untimed warm-up load
	{wlCore, "core_load_routes_per_s", "routes/s", "higher", slotRoutes}, // routes of all six feeds / load wall time (decode + process + encode + rule install); upper quartile of loads
	{wlCore, "core_cleanup_half_ms", "ms", "lower", slotLatency},         // Processor.PeerDown call -> UPDATEs covering half of the re-announced prefixes are marshalled; lower quartile of cycles
	{wlCore, "core_cleanup_ms", "ms", "lower", slotTail},                 // Processor.PeerDown + marshal of every resulting UPDATE; lower quartile of cycles
	{wlCore, "core_heap_mb", "MB", "lower", slotHeap},                    // HeapInuse after a load + 2 x GC minus the same before NewProcessor; median of loads

	{wlLab, "setup_s", "s", "lower", slotSetup},                   // MRT load of the RIS sample plus one warm-up unit
	{wlLab, "lab_wall_s", "s", "lower", ""},                       // sum over units of the lower-quartile RunUnit wall time
	{wlLab, "lab_routes_per_s", "routes/s", "higher", slotRoutes}, // sum of the units' table sizes / lab_wall_s
	{wlLab, "lab_unit_ms", "ms", "lower", slotLatency},            // lab_wall_s / number of units
	{wlLab, "lab_slowest_unit_ms", "ms", "lower", slotTail},       // lower-quartile wall time of the slowest unit
	{wlLab, "lab_heap_mb", "MB", "lower", slotHeap},               // peak bytes in heap objects over one pass of the units, sampled every 5 ms; median of passes
}

func namedFor(workload string) []namedDef {
	var out []namedDef
	for _, d := range named {
		if d.Workload == workload {
			out = append(out, d)
		}
	}
	return out
}

// layerDef is one per-layer metric of BENCHMARK.json. Moves names the
// end-to-end metrics the layer metric should move (the README carries the
// full map).
type layerDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

// layers must match BENCHMARK.json's per_layer list; the smoke test checks it.
var layers = []layerDef{
	{"bgp.codec.unmarshal_ns_per_route", "ns", "lower", "core_load_routes_per_s"},
	{"bgp.codec.marshal_ns_per_msg", "ns", "lower", "core_load_routes_per_s, core_cleanup_ms"},
	{"bgp.rib.insert_ns_per_route", "ns", "lower", "load_routes_per_s, core_load_routes_per_s"},
	{"bgp.rib.churn_ns_per_route", "ns", "lower", "churn_routes_per_s, churn_p50_ms_180k"},
	{"bgp.rib.remove_peer_ms", "ms", "lower", "failover_ms, core_cleanup_ms"},
	{"bgp.rib.bytes_per_route", "B", "lower", "loaded_heap_mb"},

	{"daemon.rib.update_emit_ns_per_route", "ns", "lower", "load_routes_per_s, churn_routes_per_s"},
	{"daemon.rib.shard_overhead_ratio", "ratio", "lower", "load_routes_per_s, churn_routes_per_s"},
	{"daemon.rib.remove_peer_emit_ms", "ms", "lower", "failover_ms"},
	{"daemon.rib.snapshot_ms", "ms", "lower", "none yet (resync cost; watched)"},
	{"daemon.ingest.emit_ns_per_route", "ns", "lower", "load_routes_per_s, churn_routes_per_s"},
	{"daemon.ingest.blocked_share", "ratio", "lower", "load_routes_per_s, churn_routes_per_s"},
	{"daemon.batch.wait_ms_p50_60k", "ms", "lower", "churn_p50_ms_60k"},
	{"daemon.batch.wait_ms_p95_60k", "ms", "lower", "churn_p95_ms_60k"},
	{"daemon.batch.wait_ms_p50_180k", "ms", "lower", "churn_p50_ms_180k"},
	{"daemon.batch.wait_ms_p95_180k", "ms", "lower", "churn_p95_ms_180k"},
	{"daemon.queue.wait_ms_p50_60k", "ms", "lower", "churn_p50_ms_60k"},
	{"daemon.queue.wait_ms_p95_60k", "ms", "lower", "churn_p95_ms_60k"},
	{"daemon.queue.wait_ms_p50_180k", "ms", "lower", "churn_p50_ms_180k"},
	{"daemon.queue.wait_ms_p95_180k", "ms", "lower", "churn_p95_ms_180k"},
	{"daemon.sink.apply_ms_p50_60k", "ms", "lower", "churn_p50_ms_60k"},
	{"daemon.sink.apply_ms_p95_60k", "ms", "lower", "churn_p95_ms_60k"},
	{"daemon.sink.apply_ms_p50_180k", "ms", "lower", "churn_p50_ms_180k"},
	{"daemon.sink.apply_ms_p95_180k", "ms", "lower", "churn_p95_ms_180k"},
	{"daemon.sink.apply_ns_per_change", "ns", "lower", "failover_ms, load_routes_per_s"},
	{"daemon.batch.count", "count", "lower", "failover_ms, load_routes_per_s"},
	{"daemon.batch.changes_per_batch", "count", "higher", "failover_ms, load_routes_per_s"},
	{"daemon.rib.change_ratio", "ratio", "lower", "churn_routes_per_s"},
	{"daemon.sink.gaps", "count", "lower", "must be 0"},
	{"daemon.failover.withdraw_ms", "ms", "lower", "failover_ms"},
	{"daemon.failover.apply_ms", "ms", "lower", "failover_ms"},
	{"daemon.latency.p50_ms_60k", "ms", "lower", "is churn_p50_ms_60k"},
	{"daemon.latency.p95_ms_60k", "ms", "lower", "is churn_p95_ms_60k"},
	{"daemon.latency.p99_ms_60k", "ms", "lower", "information"},
	{"daemon.latency.p999_ms_60k", "ms", "lower", "information"},
	{"daemon.latency.p99_ms_180k", "ms", "lower", "information"},
	{"daemon.latency.p999_ms_180k", "ms", "lower", "information"},

	{"core.proc.process_ns_per_route", "ns", "lower", "core_load_routes_per_s"},
	{"core.proc.updates_out_per_kroute", "count", "lower", "core_load_routes_per_s"},
	{"core.groups.count", "count", "lower", "core_load_routes_per_s"},
	{"core.groups.ensure_ns", "ns", "lower", "core_load_routes_per_s"},
	{"core.proc.peer_down_ms", "ms", "lower", "core_cleanup_ms"},
	{"core.proc.cleanup_updates_out", "count", "lower", "core_cleanup_ms"},
	{"core.proc.cleanup_routes_per_update", "count", "higher", "core_cleanup_ms"},
	{"core.engine.peer_down_us", "us", "lower", "none: the paper's reaction, reported so it stays sub-millisecond"},
	{"core.engine.rewrites", "count", "lower", "none: must equal the groups targeting the failed peer"},
	{"core.engine.resync_us", "us", "lower", "none"},

	{"openflow.flowmod_marshal_ns", "ns", "lower", "reaction"},
	{"openflow.flowmod_unmarshal_ns", "ns", "lower", "reaction"},
	{"dataplane.flowtable.upsert_ns", "ns", "lower", "reaction"},
	{"dataplane.flowtable.process_ns_per_frame", "ns", "lower", "reaction"},
	{"dataplane.lpm.insert_ns", "ns", "lower", "lab_wall_s"},
	{"dataplane.lpm.lookup_ns", "ns", "lower", "lab_wall_s"},

	{"mrt.read_routes_per_s", "routes/s", "higher", "setup_s on lab-fig5"},
	{"feed.from_mrt_ms", "ms", "lower", "setup_s on lab-fig5"},
	{"feed.generate_ms_200k", "ms", "lower", "setup_s on serve-*, core-supercharge"},
	{"feed.stream_updates_ns_per_route", "ns", "lower", "setup_s on serve-*, core-supercharge"},

	{"sim.standalone_wall_ms_200k", "ms", "lower", "lab_wall_s"},
	{"sim.supercharged_wall_ms_200k", "ms", "lower", "lab_wall_s"},
	{"sim.mrt_wall_ms", "ms", "lower", "lab_wall_s"},
	{"sim.session_reset_wall_ms", "ms", "lower", "lab_wall_s"},
	{"clock.virtual.event_ns", "ns", "lower", "lab_wall_s"},

	{"runtime.gc_pause_ms", "ms", "lower", "failover_ms, churn_p95_ms_180k"},
	{"runtime.gc_cycles", "count", "lower", "load_routes_per_s"},
	{"runtime.allocs_per_route", "count", "lower", "load_routes_per_s"},
	{"runtime.alloc_bytes_per_route", "B", "lower", "load_routes_per_s, loaded_heap_mb"},
	{"runtime.heap_peak_mb", "MB", "lower", "loaded_heap_mb"},

	{"gen.late_ms_p95", "ms", "lower", "validity only"},
	{"trace.overhead_ratio", "ratio", "lower", "validity only"},
}

// value is one measured metric: the reported figure, how many in-run samples
// it summarises, by which statistic ("" is the median) and their
// interquartile range (0 when it is a single measurement).
type value struct {
	V    float64 `json:"value"`
	N    int     `json:"n,omitempty"`
	Stat string  `json:"stat,omitempty"`
	IQR  float64 `json:"iqr,omitempty"`
}

func (v value) stat() string {
	if v.Stat == "" {
		return "median"
	}
	return v.Stat
}

// medianOf summarises in-run samples as their median.
func medianOf(xs []float64) value {
	if len(xs) == 0 {
		return value{}
	}
	q1, q3 := quartiles(xs)
	return value{V: percentile(xs, 0.5), N: len(xs), IQR: q3 - q1}
}

// lowerQuartileOf summarises repetitions of one single-threaded, fixed piece
// of work as their first quartile. Whatever else the host runs only ever adds
// to such a timing, so the fast end of the repetitions is the program's own
// cost and the slow end is the neighbours'; the quartile, not the minimum, so
// that one odd repetition decides nothing.
func lowerQuartileOf(xs []float64) value {
	if len(xs) == 0 {
		return value{}
	}
	q1, q3 := quartiles(xs)
	return value{V: q1, N: len(xs), Stat: "lower quartile", IQR: q3 - q1}
}

// percentile returns the p-quantile (0..1) of xs (0 for no samples) the way
// the repository's reports compute it. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return metrics.Percentile(s, p)
}

// column extracts one figure from every row.
func column[T any](rows []T, get func(T) float64) []float64 {
	xs := make([]float64, len(rows))
	for i, r := range rows {
		xs[i] = get(r)
	}
	return xs
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so spreads printed
// here are the spreads the benchmark's driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	return at(1), at(3)
}

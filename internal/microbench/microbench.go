// Package microbench is the hot-path micro-benchmark suite behind
// `cmd/bench micro` and the committed BENCH_micro.json baseline: a fixed
// set of workloads over the exact code paths the full-table (~1M-prefix)
// simulation leans on — RIB update churn, the indexed RemovePeer against
// its pre-index full-scan ancestor, the processor's churn filter and
// peer-down cleanup, and backup-group allocation.
//
// Unlike the sweep bench (wall-clock of whole scenario runs), these are
// `go test -bench`-style measurements: a fixed operation count per
// sample, repeated samples, best sample reported as ns/op with the
// matching allocation counts. Workloads are deterministic (fixed seeds,
// fixed shapes), so allocs/op is exact and gate-able without tolerance
// games; ns/op is host telemetry and gated with both a fractional
// tolerance and an absolute grace floor, like the sweep bench's
// wall-clock numbers.
package microbench

import (
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"sort"
	"strings"
	"time"

	"supercharged/internal/bgp"
	"supercharged/internal/core"
)

// Result is one benchmark's measurement.
type Result struct {
	Name string `json:"name"`
	// Ops is the number of operations per timed sample; Samples the
	// number of repetitions (best sample wins).
	Ops     int `json:"ops"`
	Samples int `json:"samples"`
	// NsPerOp is the best sample's per-operation latency.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp come from the best sample's heap deltas;
	// the workloads are deterministic, so allocs are exact.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// Snapshot is the suite's output, committed as BENCH_micro.json.
type Snapshot struct {
	Benchmarks []Result `json:"benchmarks"`
}

// JSON renders the snapshot as indented JSON.
func (s *Snapshot) JSON() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// Parse reads a snapshot written by JSON.
func Parse(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("microbench: parse snapshot: %w", err)
	}
	return &s, nil
}

// Options parameterizes a suite run.
type Options struct {
	// Filter keeps only benchmarks whose name contains the substring.
	Filter string
	// Progress, if set, receives one line per completed benchmark.
	Progress io.Writer
}

// bench is one registered workload. prepare builds the workload state
// (untimed) and returns the timed body, which performs exactly ops
// operations per call; the body is invoked once per sample against fresh
// state when fresh is true, or against shared state otherwise.
type bench struct {
	name    string
	ops     int
	samples int
	fresh   bool // rebuild state per sample (destructive bodies)
	prepare func() func()
}

// Run executes the suite and returns the snapshot, benchmarks sorted by
// name.
func Run(opts Options) (*Snapshot, error) {
	snap := &Snapshot{}
	for _, b := range suite() {
		if opts.Filter != "" && !strings.Contains(b.name, opts.Filter) {
			continue
		}
		res := runOne(b)
		snap.Benchmarks = append(snap.Benchmarks, res)
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "%-28s %12.1f ns/op %10.1f allocs/op (%d ops x %d samples)\n",
				res.Name, res.NsPerOp, res.AllocsPerOp, res.Ops, res.Samples)
		}
	}
	if len(snap.Benchmarks) == 0 {
		return nil, fmt.Errorf("microbench: no benchmark matches filter %q", opts.Filter)
	}
	sort.Slice(snap.Benchmarks, func(i, j int) bool {
		return snap.Benchmarks[i].Name < snap.Benchmarks[j].Name
	})
	return snap, nil
}

func runOne(b bench) Result {
	res := Result{Name: b.name, Ops: b.ops, Samples: b.samples}
	var body func()
	if !b.fresh {
		body = b.prepare()
	}
	best := -1.0
	for s := 0; s < b.samples; s++ {
		if b.fresh {
			body = b.prepare()
		}
		// Two collections, not one: a fresh multi-GB workload leaves the
		// previous sample's heap unswept, and a single runtime.GC() would
		// let the timed body pay the sweep debt as allocation assists —
		// the dominant noise source on the 1M-table benches. The second
		// cycle cannot start before the first finishes sweeping, and the
		// freed spans stay mapped (releasing them to the OS would trade
		// sweep debt for page-fault debt inside the body).
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		body()
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&after)
		ns := float64(elapsed.Nanoseconds()) / float64(b.ops)
		if best < 0 || ns < best {
			best = ns
			res.NsPerOp = ns
			res.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(b.ops)
			res.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(b.ops)
		}
	}
	return res
}

// --- the suite ---

// Shapes: the RemovePeer acceptance shape is a 1M-prefix table whose
// victim peer carries 10% of it; churn shapes use a 100k table so the
// suite stays minutes-not-hours while still measuring map behavior at
// scale.
const (
	removePeerTable = 1_000_000
	removePeerShare = 0.10
	churnTable      = 100_000
)

var (
	mainPeer   = bgp.PeerMeta{Addr: netip.MustParseAddr("203.0.113.1"), AS: 65002, ID: netip.MustParseAddr("203.0.113.1"), Weight: 200}
	victimPeer = bgp.PeerMeta{Addr: netip.MustParseAddr("198.51.100.2"), AS: 65003, ID: netip.MustParseAddr("198.51.100.2"), Weight: 100}
)

func nthPrefix(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(11 + i>>16), byte(i >> 8), byte(i), 0}), 24)
}

// buildRIB populates a RIB with total prefixes from mainPeer plus
// share×total also covered by victimPeer.
func buildRIB(total int, share float64) *bgp.RIB {
	r := bgp.NewRIBSized(total)
	nlri := make([]netip.Prefix, 0, total)
	for i := 0; i < total; i++ {
		nlri = append(nlri, nthPrefix(i))
	}
	r.Update(mainPeer, &bgp.Update{
		Attrs: &bgp.Attrs{Origin: bgp.OriginIGP, ASPath: bgp.Sequence(mainPeer.AS, 3356), NextHop: mainPeer.Addr},
		NLRI:  nlri,
	})
	r.Update(victimPeer, &bgp.Update{
		Attrs: &bgp.Attrs{Origin: bgp.OriginIGP, ASPath: bgp.Sequence(victimPeer.AS, 1299), NextHop: victimPeer.Addr},
		NLRI:  nlri[:int(float64(total)*share)],
	})
	return r
}

// buildProcessor returns a processor loaded with total prefixes from
// mainPeer and victimShare×total of them also from victimPeer (1.0 =
// every prefix multi-path/VNH-advertised), plus the replay update whose
// attributes the interner already canonicalized.
func buildProcessor(total int, victimShare float64) (*core.Processor, *bgp.Update) {
	proc := core.NewProcessor(bgp.NewRIBSized(total), core.NewGroupTable(core.NewVNHPool(core.AllocSequential)))
	proc.Reserve(total)
	nlri := make([]netip.Prefix, 0, total)
	for i := 0; i < total; i++ {
		nlri = append(nlri, nthPrefix(i))
	}
	for _, peer := range []bgp.PeerMeta{mainPeer, victimPeer} {
		n := len(nlri)
		if peer == victimPeer {
			n = int(float64(total) * victimShare)
		}
		u := &bgp.Update{
			Attrs: &bgp.Attrs{Origin: bgp.OriginIGP, ASPath: bgp.Sequence(peer.AS, 3356), NextHop: peer.Addr},
			NLRI:  nlri[:n],
		}
		if _, err := proc.Process(peer, u); err != nil {
			panic(fmt.Sprintf("microbench: %v", err))
		}
	}
	replay := &bgp.Update{
		Attrs: &bgp.Attrs{Origin: bgp.OriginIGP, ASPath: bgp.Sequence(victimPeer.AS, 3356), NextHop: victimPeer.Addr},
		NLRI:  []netip.Prefix{nthPrefix(42)},
	}
	if _, err := proc.Process(victimPeer, replay); err != nil {
		panic(fmt.Sprintf("microbench: %v", err))
	}
	return proc, replay
}

// Mixed-failover shape: the full-feed primary of a 200k table fails while
// five other peers (one more full feed, four staggered half-table windows)
// keep every prefix multi-path, so the cleanup re-announces the whole
// table across several backup-groups. Prefixes draw their attributes from
// mixedTemplates templates and consecutive prefixes never share one, so
// the cleanup's announcements spread over many signatures (RemovePeer
// walks slots, which this load fills template by template).
const (
	mixedTable     = 200_000
	mixedTemplates = 1_500
)

// buildMixedProcessor loads the mixed-failover shape and returns the
// processor with the primary's address.
func buildMixedProcessor() (*core.Processor, netip.Addr) {
	proc := core.NewProcessor(bgp.NewRIBSized(mixedTable), core.NewGroupTable(core.NewVNHPool(core.AllocSequential)))
	proc.Reserve(mixedTable)
	byTemplate := make([][]netip.Prefix, mixedTemplates)
	codec := bgp.Codec{ASN4: true}
	for i := 5; i >= 0; i-- { // least preferred first, the primary last
		addr := netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)})
		peer := bgp.PeerMeta{Addr: addr, ID: addr, AS: uint32(65001 + i), Weight: uint32(600 - 100*i)}
		lo, n := 0, mixedTable
		if i >= 2 {
			lo, n = (i-2)*mixedTable/4, mixedTable/2
		}
		for t := range byTemplate {
			byTemplate[t] = byTemplate[t][:0]
		}
		for j := lo; j < lo+n; j++ {
			k := j % mixedTable
			byTemplate[k%mixedTemplates] = append(byTemplate[k%mixedTemplates], nthPrefix(k))
		}
		for t, nlri := range byTemplate {
			attrs := &bgp.Attrs{
				Origin:  bgp.OriginIGP,
				ASPath:  bgp.Sequence(peer.AS, uint32(1000+t), uint32(3000+t%37)),
				NextHop: addr,
			}
			upds, err := bgp.SplitUpdates(attrs, nlri, codec)
			if err != nil {
				panic(fmt.Sprintf("microbench: %v", err))
			}
			for _, u := range upds {
				out, err := proc.Process(peer, u)
				if err != nil {
					panic(fmt.Sprintf("microbench: %v", err))
				}
				core.RecycleUpdates(out)
			}
		}
	}
	return proc, netip.AddrFrom4([4]byte{203, 0, 113, 1})
}

func suite() []bench {
	return []bench{
		{
			// The acceptance shape: RemovePeer on a 1M-prefix table where
			// the victim carries 10%. One op per sample (the removal is
			// destructive), fresh table each time.
			name: "rib/remove-peer-1m-indexed", ops: 1, samples: 8, fresh: true,
			prepare: func() func() {
				r := buildRIB(removePeerTable, removePeerShare)
				return func() { r.RemovePeer(victimPeer.Addr) }
			},
		},
		{
			// Identical re-announcement against a 100k table: the RIB's
			// interned churn fast path.
			name: "rib/update-churn", ops: 200_000, samples: 3,
			prepare: func() func() {
				r := buildRIB(churnTable, removePeerShare)
				u := &bgp.Update{
					Attrs: &bgp.Attrs{Origin: bgp.OriginIGP, ASPath: bgp.Sequence(mainPeer.AS, 3356), NextHop: mainPeer.Addr},
					NLRI:  []netip.Prefix{nthPrefix(77)},
				}
				var buf []bgp.Change
				return func() {
					for i := 0; i < 200_000; i++ {
						buf = r.UpdateInto(mainPeer, u, buf)
					}
				}
			},
		},
		{
			// The processor's steady-state churn filter (suppressed
			// replay); allocs/op must be exactly 0 — the committed
			// baseline pins it and any increase fails the gate.
			name: "proc/churn-filter", ops: 200_000, samples: 3,
			prepare: func() func() {
				proc, replay := buildProcessor(churnTable, 1.0)
				return func() {
					for i := 0; i < 200_000; i++ {
						if _, err := proc.Process(victimPeer, replay); err != nil {
							panic(err)
						}
					}
				}
			},
		},
		{
			// PeerDown through the processor at the 100k/10% shape:
			// indexed removal plus the reaction pipeline (withdraw
			// batching toward the router). Destructive one-shot bodies
			// inherit heap-layout variance from their fresh builds, so
			// this takes extra samples to keep the best-of stable under
			// the gate's tolerance.
			name: "proc/peer-down-100k", ops: 1, samples: 7, fresh: true,
			prepare: func() func() {
				proc, _ := buildProcessor(churnTable, removePeerShare)
				return func() {
					out, err := proc.PeerDown(victimPeer.Addr)
					if err != nil {
						panic(err)
					}
					core.RecycleUpdates(out)
				}
			},
		},
		{
			// PeerDown of the full-feed primary at the mixed-failover
			// shape: the cleanup stream the router converges on after
			// the rule rewrite, where the reaction (grouping 200k
			// shuffled changes into a few thousand UPDATEs) dominates
			// the RIB removal.
			name: "proc/peer-down-mixed-200k", ops: 1, samples: 7, fresh: true,
			prepare: func() func() {
				proc, primary := buildMixedProcessor()
				return func() {
					out, err := proc.PeerDown(primary)
					if err != nil {
						panic(err)
					}
					core.RecycleUpdates(out)
				}
			},
		},
		{
			// Backup-group allocation and the keyed hit path.
			name: "core/group-ensure", ops: 200_000, samples: 3,
			prepare: func() func() {
				tbl := core.NewGroupTable(core.NewVNHPool(core.AllocSequential))
				nhs := make([]netip.Addr, 64)
				for i := range nhs {
					nhs[i] = netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)})
				}
				return func() {
					for i := 0; i < 200_000; i++ {
						a, b := nhs[i%len(nhs)], nhs[(i+1)%len(nhs)]
						if _, err := tbl.Ensure(a, b); err != nil {
							panic(err)
						}
					}
				}
			},
		},
	}
}

// Grace floors, mirroring the sweep bench's wall-clock philosophy: a
// fractional gate over nanosecond timings on shared CI runners is noise,
// so an ns/op regression must also clear an absolute margin. Allocation
// counts are deterministic and get only rounding slack.
const (
	nsGraceFloor    = 500.0 // ns/op
	allocRoundSlack = 0.5   // allocs/op
)

// Compare gates current against baseline: one violation string per
// benchmark whose ns/op regressed beyond tol (fractional) plus the grace
// floor, whose allocs/op grew beyond tol plus rounding slack, or that
// vanished from the suite. Faster results and new benchmarks pass;
// ratcheting the baseline is a deliberate commit of the regenerated
// BENCH_micro.json.
func Compare(baseline, current *Snapshot, tol float64) []string {
	cur := make(map[string]Result, len(current.Benchmarks))
	for _, r := range current.Benchmarks {
		cur[r.Name] = r
	}
	var violations []string
	for _, base := range baseline.Benchmarks {
		got, ok := cur[base.Name]
		if !ok {
			violations = append(violations, fmt.Sprintf(
				"benchmark %s vanished from the suite (baseline %.1f ns/op)", base.Name, base.NsPerOp))
			continue
		}
		if base.NsPerOp > 0 && got.NsPerOp > base.NsPerOp*(1+tol) &&
			got.NsPerOp-base.NsPerOp > nsGraceFloor {
			violations = append(violations, fmt.Sprintf(
				"%s regressed %.1f ns/op → %.1f ns/op (>%d%%)",
				base.Name, base.NsPerOp, got.NsPerOp, int(tol*100)))
		}
		if got.AllocsPerOp > base.AllocsPerOp*(1+tol)+allocRoundSlack {
			violations = append(violations, fmt.Sprintf(
				"%s allocations regressed %.1f allocs/op → %.1f allocs/op",
				base.Name, base.AllocsPerOp, got.AllocsPerOp))
		}
	}
	return violations
}

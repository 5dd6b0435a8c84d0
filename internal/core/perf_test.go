package core

import (
	"net/netip"
	"runtime"
	"runtime/debug"
	"testing"

	"supercharged/internal/bgp"
	"supercharged/internal/telemetry"
	"supercharged/internal/testutil"
)

// perfPeers builds two peers (R2 preferred) and a processor with every
// prefix in the multi-path advVNH state — the steady-state shape of the
// supercharged controller mid-run.
func perfProcessor(t testing.TB, prefixes int) (*Processor, bgp.PeerMeta, bgp.PeerMeta, []netip.Prefix) {
	t.Helper()
	r2 := bgp.PeerMeta{Addr: netip.MustParseAddr("203.0.113.1"), AS: 65002, ID: netip.MustParseAddr("203.0.113.1"), Weight: 200}
	r3 := bgp.PeerMeta{Addr: netip.MustParseAddr("203.0.113.2"), AS: 65003, ID: netip.MustParseAddr("203.0.113.2"), Weight: 100}
	proc := NewProcessor(nil, NewGroupTable(NewVNHPool(AllocSequential)))
	nlri := make([]netip.Prefix, 0, prefixes)
	for i := 0; i < prefixes; i++ {
		nlri = append(nlri, netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(i >> 8), byte(i), 0}), 24))
	}
	for _, peer := range []bgp.PeerMeta{r2, r3} {
		u := &bgp.Update{
			Attrs: &bgp.Attrs{Origin: bgp.OriginIGP, ASPath: bgp.Sequence(peer.AS, 3356), NextHop: peer.Addr},
			NLRI:  nlri,
		}
		if _, err := proc.Process(peer, u); err != nil {
			t.Fatal(err)
		}
	}
	return proc, r2, r3, nlri
}

// TestProcessorChurnFilterZeroAllocs pins the acceptance criterion: the
// steady-state churn-filter path — a peer re-announcing routes with
// byte-identical attributes, the load of the paper's E3 benchmark —
// processes without a single heap allocation, with the metrics hooks off
// (nil) and on.
func TestProcessorChurnFilterZeroAllocs(t *testing.T) {
	for _, metrics := range []*ProcMetrics{nil, NewProcMetrics(telemetry.NewRegistry())} {
		proc, _, r3, nlri := perfProcessor(t, 64)
		proc.Metrics = metrics
		// A replayed announcement: same attributes (a fresh object — the
		// interner canonicalizes it on first sight), same routes.
		replay := &bgp.Update{
			Attrs: &bgp.Attrs{Origin: bgp.OriginIGP, ASPath: bgp.Sequence(r3.AS, 3356), NextHop: r3.Addr},
			NLRI:  nlri,
		}
		// Prime once so the replay's attrs object becomes known to the
		// interner; afterwards every Process is pointer-compares only.
		if out, err := proc.Process(r3, replay); err != nil {
			t.Fatal(err)
		} else if len(out) != 0 {
			t.Fatalf("churn replay emitted %d updates, want 0", len(out))
		}
		allocs := testing.AllocsPerRun(100, func() {
			out, err := proc.Process(r3, replay)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != 0 {
				t.Fatalf("churn replay emitted %d updates, want 0", len(out))
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state churn path allocates %.1f objects per update (metrics on: %v), want 0", allocs, metrics != nil)
		}
	}
}

// TestProcMetricsCountPackedOutput reads the packing ratio off the
// counters: 64 prefixes moving to the surviving peer leave in one UPDATE.
func TestProcMetricsCountPackedOutput(t *testing.T) {
	proc, r2, _, nlri := perfProcessor(t, 64)
	proc.Metrics = NewProcMetrics(telemetry.NewRegistry())
	out, err := proc.PeerDown(r2.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("PeerDown emitted %d updates, want 1", len(out))
	}
	if u, r := proc.Metrics.UpdatesOut.Value(), proc.Metrics.RoutesOut.Value(); u != 1 || r != uint64(len(nlri)) {
		t.Fatalf("updates_out %d routes_out %d, want 1 and %d", u, r, len(nlri))
	}
}

// TestRecycleUpdates exercises the emitted-batch pool round trip: a
// real reaction's updates, recycled, then a fresh reaction — the second
// batch must be correct (the pool must hand back clean objects).
func TestRecycleUpdates(t *testing.T) {
	proc, r2, _, nlri := perfProcessor(t, 16)
	out, err := proc.PeerDown(r2.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("PeerDown emitted nothing")
	}
	RecycleUpdates(out)
	// Re-announce R2's routes: must emit VNH announcements again, with
	// none of the recycled batches' old contents leaking in.
	u := &bgp.Update{
		Attrs: &bgp.Attrs{Origin: bgp.OriginIGP, ASPath: bgp.Sequence(r2.AS, 3356), NextHop: r2.Addr},
		NLRI:  nlri,
	}
	out2, err := proc.Process(r2, u)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, u := range out2 {
		if len(u.Withdrawn) != 0 {
			t.Fatalf("recycled update leaked withdrawn prefixes: %v", u.Withdrawn)
		}
		if u.Attrs == nil {
			t.Fatal("announcement without attrs")
		}
		count += len(u.NLRI)
	}
	if count != len(nlri) {
		t.Fatalf("re-announcement covered %d prefixes, want %d", count, len(nlri))
	}
}

// BenchmarkProcessorChurnFilter measures the per-update cost of the
// suppressed steady-state path (sim's cost calibration test times the
// same path at the 100k-prefix shape).
func BenchmarkProcessorChurnFilter(b *testing.B) {
	proc, _, r3, nlri := perfProcessor(b, 1)
	replay := &bgp.Update{
		Attrs: &bgp.Attrs{Origin: bgp.OriginIGP, ASPath: bgp.Sequence(r3.AS, 3356), NextHop: r3.Addr},
		NLRI:  nlri[:1],
	}
	if _, err := proc.Process(r3, replay); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proc.Process(r3, replay); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGroupEnsureHitAllocations pins the keyed hit path of backup-group
// allocation at its four allocations per call, a budget line to pay
// down rather than a target.
func TestGroupEnsureHitAllocations(t *testing.T) {
	tbl := NewGroupTable(NewVNHPool(AllocSequential))
	nhs := make([]netip.Addr, 64)
	for i := range nhs {
		nhs[i] = netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)})
	}
	ensure := func(i int) {
		if _, err := tbl.Ensure(nhs[i%len(nhs)], nhs[(i+1)%len(nhs)]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range nhs {
		ensure(i)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		ensure(i)
		i++
	})
	if allocs > 4 {
		t.Fatalf("GroupTable.Ensure on an existing group makes %.1f allocations, want at most 4", allocs)
	}
}

// cleanupPrefix is the i-th prefix of the peer-down shapes below.
func cleanupPrefix(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(11 + i>>16), byte(i >> 8), byte(i), 0}), 24)
}

// peerDownAllocs counts the heap allocations of one PeerDown, its output
// recycled. The emitted UPDATEs come from a sync.Pool, which a collection
// empties, so the count is taken from an empty pool with the collector
// held off. Callers skip under -race, where the pool drops items at
// random.
func peerDownAllocs(t *testing.T, proc *Processor, peer netip.Addr) uint64 {
	t.Helper()
	runtime.GC()
	runtime.GC() // the first moves the pool to its victim cache, the second drops it
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := proc.PeerDown(peer)
	if err == nil {
		RecycleUpdates(out)
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs
}

// TestPeerDownAllocations pins the cleanup's allocations on a 100k-prefix
// table whose backup peer, carrying 10% of it, fails.
func TestPeerDownAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("under -race sync.Pool drops items at random")
	}
	const table = 100_000
	main := bgp.PeerMeta{Addr: netip.MustParseAddr("203.0.113.1"), AS: 65002, ID: netip.MustParseAddr("203.0.113.1"), Weight: 200}
	victim := bgp.PeerMeta{Addr: netip.MustParseAddr("198.51.100.2"), AS: 65003, ID: netip.MustParseAddr("198.51.100.2"), Weight: 100}
	proc := NewProcessor(bgp.NewRIBSized(table), NewGroupTable(NewVNHPool(AllocSequential)))
	proc.Reserve(table)
	nlri := make([]netip.Prefix, table)
	for i := range nlri {
		nlri[i] = cleanupPrefix(i)
	}
	for _, peer := range []bgp.PeerMeta{main, victim} {
		n := table
		if peer == victim {
			n = table / 10
		}
		u := &bgp.Update{
			Attrs: &bgp.Attrs{Origin: bgp.OriginIGP, ASPath: bgp.Sequence(peer.AS, 3356), NextHop: peer.Addr},
			NLRI:  nlri[:n],
		}
		if _, err := proc.Process(peer, u); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := peerDownAllocs(t, proc, victim.Addr); allocs > 135 {
		t.Fatalf("PeerDown makes %d allocations, want at most 135", allocs)
	}
}

// TestPeerDownMixedAllocations pins the cleanup's allocations when the
// full-feed primary of a 200k-prefix table fails while five other peers
// (one more full feed, four staggered half-table windows) keep every
// prefix multi-path. Prefixes draw their attributes from 1 500 templates
// and consecutive prefixes never share one, so the cleanup's
// announcements spread over many signatures and backup groups.
func TestPeerDownMixedAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("under -race sync.Pool drops items at random")
	}
	const (
		table     = 200_000
		templates = 1_500
	)
	proc := NewProcessor(bgp.NewRIBSized(table), NewGroupTable(NewVNHPool(AllocSequential)))
	proc.Reserve(table)
	byTemplate := make([][]netip.Prefix, templates)
	codec := bgp.Codec{ASN4: true}
	for i := 5; i >= 0; i-- { // least preferred first, the primary last
		addr := netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)})
		peer := bgp.PeerMeta{Addr: addr, ID: addr, AS: uint32(65001 + i), Weight: uint32(600 - 100*i)}
		lo, n := 0, table
		if i >= 2 {
			lo, n = (i-2)*table/4, table/2
		}
		for tpl := range byTemplate {
			byTemplate[tpl] = byTemplate[tpl][:0]
		}
		for j := lo; j < lo+n; j++ {
			k := j % table
			byTemplate[k%templates] = append(byTemplate[k%templates], cleanupPrefix(k))
		}
		for tpl, nlri := range byTemplate {
			attrs := &bgp.Attrs{
				Origin:  bgp.OriginIGP,
				ASPath:  bgp.Sequence(peer.AS, uint32(1000+tpl), uint32(3000+tpl%37)),
				NextHop: addr,
			}
			upds, err := bgp.SplitUpdates(attrs, nlri, codec)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range upds {
				out, err := proc.Process(peer, u)
				if err != nil {
					t.Fatal(err)
				}
				RecycleUpdates(out)
			}
		}
	}
	if allocs := peerDownAllocs(t, proc, netip.AddrFrom4([4]byte{203, 0, 113, 1})); allocs > 69_098 {
		t.Fatalf("PeerDown makes %d allocations, want at most 69098", allocs)
	}
}

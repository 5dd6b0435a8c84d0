package core

import (
	"fmt"
	"net/netip"
	"testing"

	"supercharged/internal/bgp"
	"supercharged/internal/telemetry"
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
// suppressed steady-state path (cmd/bench micro snapshots the same shape
// into BENCH_micro.json).
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

// BenchmarkGroupEnsure measures group allocation and the keyed hit path.
func BenchmarkGroupEnsure(b *testing.B) {
	tbl := NewGroupTable(NewVNHPool(AllocSequential))
	nhs := make([]netip.Addr, 64)
	for i := range nhs {
		nhs[i] = netip.MustParseAddr(fmt.Sprintf("203.0.113.%d", i+1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, c := nhs[i%len(nhs)], nhs[(i+1)%len(nhs)]
		if _, err := tbl.Ensure(a, c); err != nil {
			b.Fatal(err)
		}
	}
}

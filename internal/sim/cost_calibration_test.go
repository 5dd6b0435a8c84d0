package sim

import (
	"net/netip"
	"testing"
	"time"

	"supercharged/internal/bgp"
	"supercharged/internal/core"
	"supercharged/internal/testutil"
)

// The default controller cost's per-UPDATE term is seeded from the
// controller's hottest per-update path: the churn filter, a peer
// replaying a route with attributes it already announced. This test
// times that path in-process on a 100k-prefix table where every prefix
// has two paths, and keeps the constant within 2× of the measurement.
func TestPerUpdateCostMatchesCommittedBenchmark(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector slows the churn filter about 30×")
	}
	const (
		table   = 100_000
		ops     = 100_000
		samples = 5
	)
	proc := core.NewProcessor(bgp.NewRIBSized(table), core.NewGroupTable(core.NewVNHPool(core.AllocSequential)))
	proc.Reserve(table)
	nlri := make([]netip.Prefix, table)
	for i := range nlri {
		nlri[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(11 + i>>16), byte(i >> 8), byte(i), 0}), 24)
	}
	main := bgp.PeerMeta{Addr: netip.MustParseAddr("203.0.113.1"), AS: 65002, ID: netip.MustParseAddr("203.0.113.1"), Weight: 200}
	victim := bgp.PeerMeta{Addr: netip.MustParseAddr("198.51.100.2"), AS: 65003, ID: netip.MustParseAddr("198.51.100.2"), Weight: 100}
	for _, peer := range []bgp.PeerMeta{main, victim} {
		u := &bgp.Update{
			Attrs: &bgp.Attrs{Origin: bgp.OriginIGP, ASPath: bgp.Sequence(peer.AS, 3356), NextHop: peer.Addr},
			NLRI:  nlri,
		}
		if _, err := proc.Process(peer, u); err != nil {
			t.Fatal(err)
		}
	}
	replay := &bgp.Update{
		Attrs: &bgp.Attrs{Origin: bgp.OriginIGP, ASPath: bgp.Sequence(victim.AS, 3356), NextHop: victim.Addr},
		NLRI:  nlri[42:43],
	}
	best := time.Duration(1<<63 - 1)
	for range samples + 1 { // the first pass interns replay's attributes
		t0 := time.Now()
		for range ops {
			out, err := proc.Process(victim, replay)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != 0 {
				t.Fatalf("churn replay emitted %d updates, want 0", len(out))
			}
		}
		best = min(best, time.Since(t0))
	}
	measured := float64(best.Nanoseconds()) / ops
	// Calibration, not precision: the constant must sit within 2× of the
	// measurement in either direction.
	if benchPerUpdateNS < measured/2 || benchPerUpdateNS > measured*2 {
		t.Fatalf("benchPerUpdateNS = %d, churn filter measures %.1f ns per update: "+
			"re-seed DefaultControllerCost", benchPerUpdateNS, measured)
	}
	t.Logf("churn filter: %.1f ns per update (benchPerUpdateNS = %d)", measured, benchPerUpdateNS)
}

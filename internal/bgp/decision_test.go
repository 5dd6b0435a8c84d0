package bgp

import (
	"math/rand"
	"net/netip"
	"testing"
)

func mkPath(peer string, mut func(*Path)) Path {
	p := Path{
		sess: &PeerMeta{Addr: addr(peer), AS: 65001, ID: addr(peer)},
		Attrs: &Attrs{
			Origin:  OriginIGP,
			ASPath:  Sequence(65001, 3356),
			NextHop: addr(peer),
		},
	}
	if mut != nil {
		mut(&p)
	}
	return p
}

func TestDecisionWeightWins(t *testing.T) {
	cfg := DecisionConfig{}
	a := mkPath("10.0.0.1", func(p *Path) { p.sess.Weight = 100 })
	b := mkPath("10.0.0.2", func(p *Path) {
		p.Attrs.LocalPref, p.Attrs.HasLocalPref = 900, true // would win on LP
	})
	if cfg.Compare(a, b) >= 0 {
		t.Fatal("weight should beat local-pref")
	}
}

func TestDecisionLocalPref(t *testing.T) {
	cfg := DecisionConfig{}
	// The paper's setup: R1 prefers R2 (cheap) over R3 for all prefixes.
	r2 := mkPath("203.0.113.1", func(p *Path) { p.Attrs.LocalPref, p.Attrs.HasLocalPref = 200, true })
	r3 := mkPath("198.51.100.2", func(p *Path) { p.Attrs.LocalPref, p.Attrs.HasLocalPref = 100, true })
	if cfg.Compare(r2, r3) >= 0 {
		t.Fatal("higher local-pref must win")
	}
	// Default local-pref is 100.
	noLP := mkPath("198.51.100.9", nil)
	if cfg.Compare(r3, noLP) != cfg.Compare(noLP, r3)*-1 {
		t.Fatal("compare not antisymmetric")
	}
}

func TestDecisionASPathLength(t *testing.T) {
	cfg := DecisionConfig{}
	short := mkPath("10.0.0.1", func(p *Path) { p.Attrs.ASPath = Sequence(65001) })
	long := mkPath("10.0.0.2", func(p *Path) { p.Attrs.ASPath = Sequence(65002, 3356, 1299) })
	if cfg.Compare(short, long) >= 0 {
		t.Fatal("shorter AS path must win")
	}
}

func TestDecisionOrigin(t *testing.T) {
	cfg := DecisionConfig{}
	igp := mkPath("10.0.0.1", func(p *Path) { p.Attrs.Origin = OriginIGP })
	inc := mkPath("10.0.0.2", func(p *Path) { p.Attrs.Origin = OriginIncomplete })
	if cfg.Compare(igp, inc) >= 0 {
		t.Fatal("lower origin must win")
	}
}

func TestDecisionMEDSameNeighborASOnly(t *testing.T) {
	// Every higher-MED path has the lower router ID, so each case below
	// passes only if MED, not the router-ID tiebreak, decides it, or only
	// if MED is skipped.
	cfg := DecisionConfig{}
	lowMED := mkPath("10.0.0.2", func(p *Path) { p.Attrs.MED, p.Attrs.HasMED = 10, true })
	highMED := mkPath("10.0.0.1", func(p *Path) { p.Attrs.MED, p.Attrs.HasMED = 90, true })
	if cfg.Compare(lowMED, highMED) >= 0 {
		t.Fatal("same neighbor AS: lower MED must win")
	}
	// Different neighbor AS: MED skipped, falls to router ID.
	diffAS := mkPath("10.0.0.1", func(p *Path) {
		p.Attrs.ASPath = Sequence(65999, 3356)
		p.Attrs.MED, p.Attrs.HasMED = 90, true
	})
	if cfg.Compare(diffAS, lowMED) >= 0 {
		t.Fatal("different neighbor AS: expected router-ID tiebreak (10.0.0.1 < 10.0.0.2), not MED")
	}
	always := DecisionConfig{AlwaysCompareMED: true}
	if always.Compare(lowMED, diffAS) >= 0 {
		t.Fatal("always-compare-med: lower MED must win")
	}
}

func TestDecisionEBGPOverIBGP(t *testing.T) {
	cfg := DecisionConfig{}
	e := mkPath("10.0.0.2", nil)
	i := mkPath("10.0.0.1", func(p *Path) { p.sess.IBGP = true })
	if cfg.Compare(e, i) >= 0 {
		t.Fatal("eBGP must beat iBGP")
	}
}

func TestDecisionIGPMetricAndTiebreaks(t *testing.T) {
	cfg := DecisionConfig{}
	near := mkPath("10.0.0.2", func(p *Path) { p.sess.IGPMetric = 5 })
	far := mkPath("10.0.0.1", func(p *Path) { p.sess.IGPMetric = 50 })
	if cfg.Compare(near, far) >= 0 {
		t.Fatal("lower IGP metric must win")
	}
	// Router-ID tiebreak.
	a := mkPath("10.0.0.1", func(p *Path) { p.sess.ID = addr("1.1.1.1") })
	b := mkPath("10.0.0.2", func(p *Path) { p.sess.ID = addr("2.2.2.2") })
	if cfg.Compare(a, b) >= 0 {
		t.Fatal("lower router ID must win")
	}
	// Final tiebreak: peer address.
	c := mkPath("10.0.0.1", func(p *Path) { p.sess.ID = addr("9.9.9.9") })
	d := mkPath("10.0.0.2", func(p *Path) { p.sess.ID = addr("9.9.9.9") })
	if cfg.Compare(c, d) >= 0 {
		t.Fatal("lower peer address must win")
	}
}

func TestDecisionTotalOrderForDistinctPeers(t *testing.T) {
	// Compare must never return 0 for paths from different peers —
	// determinism of the ranking is what lets controller replicas agree.
	cfg := DecisionConfig{}
	rng := rand.New(rand.NewSource(5))
	var paths []Path
	for i := 0; i < 50; i++ {
		peer := netip.AddrFrom4([4]byte{10, 0, byte(i / 256), byte(i)})
		paths = append(paths, mkPath(peer.String(), func(p *Path) {
			if rng.Intn(2) == 0 {
				p.Attrs.LocalPref, p.Attrs.HasLocalPref = uint32(rng.Intn(3)*100), true
			}
			p.Attrs.ASPath = Sequence(uint32(65001 + rng.Intn(3)))
			p.sess.IGPMetric = uint32(rng.Intn(3))
		}))
	}
	for i := range paths {
		for j := range paths {
			if i == j {
				continue
			}
			c := cfg.Compare(paths[i], paths[j])
			if c == 0 {
				t.Fatalf("compare(%d,%d) == 0", i, j)
			}
			if c2 := cfg.Compare(paths[j], paths[i]); (c < 0) == (c2 < 0) {
				t.Fatalf("compare not antisymmetric for %d,%d", i, j)
			}
		}
	}
}

func TestRankIsDeterministicUnderShuffle(t *testing.T) {
	cfg := DecisionConfig{}
	rng := rand.New(rand.NewSource(7))
	var paths []Path
	for i := 0; i < 20; i++ {
		peer := netip.AddrFrom4([4]byte{10, 1, 0, byte(i)})
		paths = append(paths, mkPath(peer.String(), func(p *Path) {
			p.Attrs.ASPath = Sequence(uint32(65001 + rng.Intn(4)))
		}))
	}
	ranked := append([]Path(nil), paths...)
	cfg.Rank(ranked)
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]Path(nil), paths...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		cfg.Rank(shuffled)
		for i := range ranked {
			if shuffled[i] != ranked[i] {
				t.Fatalf("trial %d: rank depends on input order", trial)
			}
		}
	}
}

func TestPathAccessors(t *testing.T) {
	p := mkPath("10.0.0.1", nil)
	if p.LocalPref() != 100 {
		t.Fatalf("default local-pref %d", p.LocalPref())
	}
	if p.MED() != 0 {
		t.Fatalf("default MED %d", p.MED())
	}
	if p.NextHop() != addr("10.0.0.1") {
		t.Fatal("next hop accessor")
	}
	if p.String() == "" {
		t.Fatal("empty string rendering")
	}
}

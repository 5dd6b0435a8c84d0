package bgp

import (
	"net/netip"
	"testing"
)

var (
	peerR2 = PeerMeta{Addr: addr("203.0.113.1"), AS: 65002, ID: addr("203.0.113.1")}
	peerR3 = PeerMeta{Addr: addr("198.51.100.2"), AS: 65003, ID: addr("198.51.100.2")}
)

func announce(nh string, nlri ...string) *Update {
	u := &Update{Attrs: &Attrs{Origin: OriginIGP, ASPath: Sequence(65002), NextHop: addr(nh)}}
	for _, s := range nlri {
		u.NLRI = append(u.NLRI, pfx(s))
	}
	return u
}

func withdraw(nlri ...string) *Update {
	u := &Update{}
	for _, s := range nlri {
		u.Withdrawn = append(u.Withdrawn, pfx(s))
	}
	return u
}

func TestRIBTwoPeersRankedList(t *testing.T) {
	r := NewRIB()
	// R2 preferred via Weight (the paper uses a policy making R2 win).
	p2 := peerR2
	p2.Weight = 100
	r.Update(p2, announce("203.0.113.1", "1.0.0.0/24"))
	changes := r.Update(peerR3, announce("198.51.100.2", "1.0.0.0/24"))
	if len(changes) != 1 {
		t.Fatalf("changes %d", len(changes))
	}
	paths := r.Paths(pfx("1.0.0.0/24"))
	if len(paths) != 2 {
		t.Fatalf("paths %d", len(paths))
	}
	if paths[0].Peer().Addr != peerR2.Addr || paths[1].Peer().Addr != peerR3.Addr {
		t.Fatalf("ranking wrong: best via %s", paths[0].Peer().Addr)
	}
	if best(r, pfx("1.0.0.0/24")).Peer().Addr != peerR2.Addr {
		t.Fatal("Best disagrees with Paths[0]")
	}
}

func TestRIBImplicitWithdraw(t *testing.T) {
	r := NewRIB()
	r.Update(peerR2, announce("203.0.113.1", "1.0.0.0/24"))
	// Same peer re-announces with a different next-hop: replaces, not adds.
	r.Update(peerR2, announce("203.0.113.9", "1.0.0.0/24"))
	paths := r.Paths(pfx("1.0.0.0/24"))
	if len(paths) != 1 {
		t.Fatalf("implicit withdraw failed: %d paths", len(paths))
	}
	if paths[0].NextHop() != addr("203.0.113.9") {
		t.Fatal("replacement did not take effect")
	}
}

func TestRIBWithdrawRemovesOnlyThatPeer(t *testing.T) {
	r := NewRIB()
	r.Update(peerR2, announce("203.0.113.1", "1.0.0.0/24"))
	r.Update(peerR3, announce("198.51.100.2", "1.0.0.0/24"))
	changes := r.Update(peerR2, withdraw("1.0.0.0/24"))
	if len(changes) != 1 {
		t.Fatalf("changes %d", len(changes))
	}
	paths := r.Paths(pfx("1.0.0.0/24"))
	if len(paths) != 1 || paths[0].Peer().Addr != peerR3.Addr {
		t.Fatalf("paths after withdraw: %v", paths)
	}
	// Withdrawing a prefix the peer never announced changes nothing.
	if ch := r.Update(peerR2, withdraw("9.9.9.0/24")); len(ch) != 0 {
		t.Fatalf("phantom withdraw produced changes: %v", ch)
	}
}

func TestRIBRemovePeerDropsEverything(t *testing.T) {
	r := NewRIB()
	r.Update(peerR2, announce("203.0.113.1", "1.0.0.0/24", "2.0.0.0/24", "3.0.0.0/24"))
	r.Update(peerR3, announce("198.51.100.2", "1.0.0.0/24"))
	changes := r.RemovePeer(peerR2.Addr)
	if len(changes) != 3 {
		t.Fatalf("RemovePeer changes %d, want 3", len(changes))
	}
	if r.Len() != 1 {
		t.Fatalf("RIB len %d, want 1 (only 1.0.0.0/24 via R3 left)", r.Len())
	}
	if b, ok := r.Best(pfx("1.0.0.0/24")); !ok || b.Peer().Addr != peerR3.Addr {
		t.Fatal("survivor path wrong")
	}
	if _, ok := r.Best(pfx("2.0.0.0/24")); ok {
		t.Fatal("unreachable prefix still has a best path")
	}
}

func TestRIBChangeCarriesOldAndNew(t *testing.T) {
	r := NewRIB()
	r.Update(peerR2, announce("203.0.113.1", "1.0.0.0/24"))
	changes := r.Update(peerR3, announce("198.51.100.2", "1.0.0.0/24"))
	ch := changes[0]
	if len(ch.Old) != 1 || len(ch.New) != 2 {
		t.Fatalf("old %d new %d", len(ch.Old), len(ch.New))
	}
	// Old must be the pre-update ranking.
	if ch.Old[0].Peer().Addr != peerR2.Addr {
		t.Fatal("old list wrong")
	}
}

// An UPDATE that withdraws and announces the same prefix is read as the
// announcement alone (RFC 4271 §4.3): one Change for the prefix, and a
// re-announcement identical to the stored path keeps that path's record.
func TestRIBMixedUpdateIsOneAnnouncement(t *testing.T) {
	r := NewRIB()
	r.Update(peerR2, announce("203.0.113.1", "1.0.0.0/24", "2.0.0.0/24"))
	kept := best(r, pfx("1.0.0.0/24"))

	u := announce("203.0.113.1", "1.0.0.0/24", "3.0.0.0/24")
	u.Withdrawn = []netip.Prefix{pfx("1.0.0.0/24"), pfx("2.0.0.0/24")}
	changes := r.Update(peerR2, u)
	seen := map[netip.Prefix]int{}
	for _, ch := range changes {
		seen[ch.Prefix]++
	}
	if len(changes) != 3 || seen[pfx("1.0.0.0/24")] != 1 || seen[pfx("2.0.0.0/24")] != 1 || seen[pfx("3.0.0.0/24")] != 1 {
		t.Fatalf("changes name %v, want each of the three prefixes once", seen)
	}
	if got := best(r, pfx("1.0.0.0/24")); got != kept {
		t.Fatalf("identical re-announcement replaced the path: %p, was %p", got.Peer(), kept.Peer())
	}
	_, has2 := r.Best(pfx("2.0.0.0/24"))
	if _, has3 := r.Best(pfx("3.0.0.0/24")); has2 || !has3 {
		t.Fatal("the withdraw-only and announce-only prefixes were not applied")
	}
}

func TestRIBWalk(t *testing.T) {
	r := NewRIB()
	r.Update(peerR2, announce("203.0.113.1", "1.0.0.0/24", "2.0.0.0/24"))
	seen := map[netip.Prefix]bool{}
	r.WalkBest(func(p netip.Prefix, best Path) bool {
		seen[p] = best.Attrs != nil
		return true
	})
	if len(seen) != 2 || !seen[pfx("1.0.0.0/24")] || !seen[pfx("2.0.0.0/24")] {
		t.Fatalf("walk saw %v", seen)
	}
	count := 0
	r.WalkBest(func(netip.Prefix, Path) bool { count++; return false })
	if count != 1 {
		t.Fatal("walk early stop")
	}
}

// best returns p's best path, the zero Path if p has none.
func best(r *RIB, p netip.Prefix) Path {
	b, _ := r.Best(p)
	return b
}

// walkPaths visits every prefix with its ranked list under the table
// lock: the reference the indexed operations are checked against.
func walkPaths(r *RIB, fn func(p netip.Prefix, paths []Path) bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, e := range r.entries {
		if len(e.paths) > 0 && !fn(e.prefix, e.paths) {
			return
		}
	}
}

// WalkBest is the walk a reader may take while peers are being removed:
// it agrees with Best, and under -race a concurrent RemovePeer (which
// shifts the ranked lists in place) is not a data race against it.
func TestRIBWalkBestAgainstConcurrentRemoval(t *testing.T) {
	r := NewRIB()
	var nlri []netip.Prefix
	for i := 0; i < 2000; i++ {
		nlri = append(nlri, netip.PrefixFrom(netip.AddrFrom4([4]byte{1, byte(i >> 8), byte(i), 0}), 24))
	}
	r.Update(peerR2, &Update{Attrs: &Attrs{Origin: OriginIGP, ASPath: Sequence(65002), NextHop: addr("203.0.113.1")}, NLRI: nlri})
	r.Update(peerR3, &Update{Attrs: &Attrs{Origin: OriginIGP, ASPath: Sequence(65003), NextHop: addr("198.51.100.2")}, NLRI: nlri})
	r.WalkBest(func(p netip.Prefix, b Path) bool {
		if b != best(r, p) {
			t.Errorf("%v: WalkBest and Best disagree", p)
		}
		return true
	})

	first := best(r, nlri[0]).Peer().Addr
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.RemovePeer(first)
	}()
	seen := 0
	r.WalkBest(func(_ netip.Prefix, best Path) bool {
		if best.Peer().Addr != peerR2.Addr && best.Peer().Addr != peerR3.Addr {
			t.Errorf("best path via unknown peer %v", best.Peer().Addr)
		}
		seen++
		return true
	})
	<-done
	if seen != len(nlri) {
		t.Fatalf("walk saw %d prefixes, want %d", seen, len(nlri))
	}
	count := 0
	r.WalkBest(func(netip.Prefix, Path) bool { count++; return false })
	if count != 1 {
		t.Fatal("walk early stop")
	}
}

func TestRIBPathsReturnsCopy(t *testing.T) {
	r := NewRIB()
	r.Update(peerR2, announce("203.0.113.1", "1.0.0.0/24"))
	ps := r.Paths(pfx("1.0.0.0/24"))
	ps[0] = Path{} // mutate the returned slice
	if best(r, pfx("1.0.0.0/24")).Attrs == nil {
		t.Fatal("RIB shares its internal slice")
	}
}

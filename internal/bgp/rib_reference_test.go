package bgp

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
)

// refRIB is the naive table the RIB is checked against: a prefix map of
// path lists, fully re-ranked after every step. Each announcement stores
// its own copy of the peer's metadata.
type refRIB map[netip.Prefix][]Path

// drop removes peer's path from p's list and reports whether it had one.
func (ref refRIB) drop(peer netip.Addr, p netip.Prefix) bool {
	i := slices.IndexFunc(ref[p], func(x Path) bool { return x.Peer().Addr == peer })
	if i < 0 {
		return false
	}
	if ref[p] = slices.Delete(ref[p], i, i+1); len(ref[p]) == 0 {
		delete(ref, p)
	}
	return true
}

// update applies u as RFC 4271 §4.3 reads and returns the prefixes a
// change list must name.
func (ref refRIB) update(peer PeerMeta, u *Update) map[netip.Prefix]bool {
	named := map[netip.Prefix]bool{}
	announced := map[netip.Prefix]bool{}
	if u.Attrs != nil {
		for _, p := range u.NLRI {
			announced[p.Masked()] = true
		}
	}
	for _, p := range u.Withdrawn {
		if p = p.Masked(); !announced[p] && ref.drop(peer.Addr, p) {
			named[p] = true
		}
	}
	for p := range announced {
		ref.drop(peer.Addr, p)
		sess := peer
		ref[p] = append(ref[p], Path{sess: &sess, Attrs: u.Attrs})
		named[p] = true
	}
	return named
}

func (ref refRIB) removePeer(peer netip.Addr) map[netip.Prefix]bool {
	named := map[netip.Prefix]bool{}
	for p := range ref {
		if ref.drop(peer, p) {
			named[p] = true
		}
	}
	return named
}

// refPrefixes is the prefix pool of TestRIBMatchesReference: IPv4, IPv6
// and IPv4-mapped IPv6 prefixes over the same bytes and lengths, prefixes
// that differ only in length, both default routes and a few NLRI with
// host bits set, which the RIB masks.
func refPrefixes() []netip.Prefix {
	out := []netip.Prefix{
		pfx("1.2.3.0/24"), pfx("::ffff:1.2.3.0/120"), pfx("1.2.0.0/16"),
		pfx("0.0.0.0/0"), pfx("::/0"), pfx("::ffff:0.0.0.0/96"),
		netip.PrefixFrom(addr("1.2.3.77"), 24), netip.PrefixFrom(addr("2001:db8::1"), 32),
	}
	for i := 0; i < 16; i++ {
		v4 := netip.AddrFrom4([4]byte{10, byte(i), 0, 0})
		out = append(out,
			netip.PrefixFrom(v4, 16),
			netip.PrefixFrom(netip.AddrFrom16(v4.As16()), 112),
			netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(i)}), 40),
		)
	}
	return out
}

// TestRIBMatchesReference drives seeded sequences of announcements,
// withdraws, UPDATEs that withdraw and announce, and peer removals
// through the RIB and through refRIB. After every step the table, the
// change list and the slots must agree with the reference: a live prefix
// keeps its slot, no two live prefixes share one, and a change with a
// path names its prefix's slot.
//
// The last peer changes its metadata (AS, IGP metric, weight, iBGP) under
// the same address between announcements, and after each of its removals
// it re-announces at once under a fresh record. Every stored path must
// carry the whole record it was announced with, so ranking and the
// identical-re-announcement shortcut cannot be reading the address and
// the attributes alone.
func TestRIBMatchesReference(t *testing.T) {
	pool := refPrefixes()
	peers := make([]PeerMeta, 5)
	for i := range peers {
		a := netip.AddrFrom4([4]byte{192, 0, 2, byte(10 - i)})
		peers[i] = PeerMeta{Addr: a, ID: a, AS: uint32(65001 + i%3), IGPMetric: uint32(i % 2)}
	}
	shifty := len(peers) - 1
	initial := peers[shifty]
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			peers[shifty] = initial
			// reshape gives the shifty peer new metadata under its address.
			reshape := func() {
				p := &peers[shifty]
				p.AS = uint32(65001 + rng.Intn(3))
				p.IGPMetric = uint32(rng.Intn(2))
				p.Weight = uint32(rng.Intn(2) * 100)
				p.IBGP = rng.Intn(2) == 0
			}
			var reshaped, reannounced int
			attrs := func(peer PeerMeta) *Attrs {
				asns := []uint32{peer.AS}
				for n := rng.Intn(3); n > 0; n-- {
					asns = append(asns, uint32(64512+rng.Intn(4)))
				}
				a := &Attrs{Origin: Origin(rng.Intn(2)), ASPath: Sequence(asns...), NextHop: peer.Addr}
				if rng.Intn(3) == 0 {
					a.LocalPref, a.HasLocalPref = uint32(90+rng.Intn(3)*10), true
				}
				if rng.Intn(3) == 0 {
					a.MED, a.HasMED = uint32(rng.Intn(3)), true
				}
				return a
			}
			sample := func() []netip.Prefix {
				out := make([]netip.Prefix, 1+rng.Intn(8))
				for i := range out {
					out[i] = pool[rng.Intn(len(pool))]
				}
				return out
			}

			r, ref := NewRIB(), refRIB{}
			slotOf := map[netip.Prefix]uint32{}
			var buf []Change
			removed := false // the shifty peer was removed in the last step
			for step := 0; step < 400; step++ {
				i := rng.Intn(len(peers))
				if removed {
					i = shifty
				}
				if i == shifty && (removed || rng.Intn(2) == 0) {
					before := peers[shifty]
					reshape()
					if peers[shifty] != before && r.PeerLen(before.Addr) > 0 {
						reshaped++
					}
				}
				peer := peers[i]
				var want map[netip.Prefix]bool
				var what string
				switch k := rng.Intn(10); {
				case removed:
					u := &Update{Attrs: attrs(peer), NLRI: sample()}
					what, want = "re-announce after removal", ref.update(peer, u)
					buf = r.UpdateInto(peer, u, buf)
					removed = false
					reannounced++
				case k < 4:
					u := &Update{Attrs: attrs(peer), NLRI: sample()}
					what, want = "announce", ref.update(peer, u)
					buf = r.UpdateInto(peer, u, buf)
				case k < 6:
					u := &Update{Withdrawn: sample()}
					what, want = "withdraw", ref.update(peer, u)
					buf = r.UpdateInto(peer, u, buf)
				case k < 9:
					both := sample()
					u := &Update{Withdrawn: append(sample(), both...), Attrs: attrs(peer), NLRI: append(sample(), both...)}
					what, want = "withdraw+announce", ref.update(peer, u)
					buf = r.UpdateInto(peer, u, buf)
				default:
					what, want = "remove peer", ref.removePeer(peer.Addr)
					buf = r.RemovePeerInto(peer.Addr, buf)
					removed = i == shifty
				}
				what = fmt.Sprintf("step %d %s from %v", step, what, peer.Addr)
				for _, paths := range ref {
					r.Decision.Rank(paths)
				}

				got := map[netip.Prefix]bool{}
				for _, ch := range buf {
					got[ch.Prefix] = true
					if s, ok := r.Slot(ch.Prefix); len(ch.New) > 0 && (!ok || s != ch.Slot) {
						t.Fatalf("%s: change for %v names slot %d, RIB.Slot says %d (%v)", what, ch.Prefix, ch.Slot, s, ok)
					}
				}
				if !mapsEqual(got, want) {
					t.Fatalf("%s: change list names %v, want %v", what, got, want)
				}
				checkAgainstRef(t, what, r, ref, peers, slotOf)
			}
			if reshaped == 0 || reannounced == 0 {
				t.Fatalf("the shifty peer changed its record %d times while it had paths and re-announced after a removal %d times; want both", reshaped, reannounced)
			}
		})
	}
}

// checkAgainstRef compares the table and its slots with the reference and
// records each live prefix's slot in slotOf for the next step.
func checkAgainstRef(t *testing.T, what string, r *RIB, ref refRIB, peers []PeerMeta, slotOf map[netip.Prefix]uint32) {
	t.Helper()
	if r.Len() != len(ref) {
		t.Fatalf("%s: Len %d, reference %d", what, r.Len(), len(ref))
	}
	for _, peer := range peers {
		n := 0
		for _, paths := range ref {
			if slices.ContainsFunc(paths, func(x Path) bool { return x.Peer().Addr == peer.Addr }) {
				n++
			}
		}
		if got := r.PeerLen(peer.Addr); got != n {
			t.Fatalf("%s: PeerLen(%v) = %d, reference %d", what, peer.Addr, got, n)
		}
	}
	for _, raw := range refPrefixes() {
		p := raw.Masked()
		got, want := r.Paths(raw), ref[p]
		if len(got) != len(want) {
			t.Fatalf("%s: %v has %d paths, reference %d", what, raw, len(got), len(want))
		}
		if _, ok := r.Slot(raw); ok != (len(want) > 0) {
			t.Fatalf("%s: %v has a slot: %v, reference has %d paths", what, raw, ok, len(want))
		}
		for i := range got {
			if *got[i].Peer() != *want[i].Peer() || !got[i].Attrs.Equal(want[i].Attrs) {
				t.Fatalf("%s: %v rank %d is %v from %+v, reference %v from %+v", what, p, i, got[i], *got[i].Peer(), want[i], *want[i].Peer())
			}
		}
	}
	best := map[netip.Prefix]netip.Addr{}
	r.WalkBest(func(p netip.Prefix, b Path) bool {
		if _, dup := best[p]; dup {
			t.Fatalf("%s: WalkBest visits %v twice", what, p)
		}
		best[p] = b.Peer().Addr
		return true
	})
	for p, paths := range ref {
		if best[p] != paths[0].Peer().Addr {
			t.Fatalf("%s: WalkBest has %v via %v, reference via %v", what, p, best[p], paths[0].Peer().Addr)
		}
	}
	if len(best) != len(ref) {
		t.Fatalf("%s: WalkBest visits %d prefixes, reference has %d", what, len(best), len(ref))
	}

	owner := map[uint32]netip.Prefix{}
	for p := range ref {
		s, ok := r.Slot(p)
		if !ok {
			t.Fatalf("%s: live prefix %v has no slot", what, p)
		}
		if q, taken := owner[s]; taken {
			t.Fatalf("%s: %v and %v share slot %d", what, p, q, s)
		}
		owner[s] = p
		if old, was := slotOf[p]; was && old != s {
			t.Fatalf("%s: live prefix %v moved from slot %d to %d", what, p, old, s)
		}
	}
	for p := range slotOf {
		if _, live := ref[p]; !live {
			if _, ok := r.Slot(p); ok {
				t.Fatalf("%s: unreachable %v still has a slot", what, p)
			}
			delete(slotOf, p)
		}
	}
	for s, p := range owner {
		slotOf[p] = s
	}
}

func mapsEqual(a, b map[netip.Prefix]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestRemovePeerIntoDoesNotAllocate pins the removal's allocations: none
// into a buffer that holds the changes, and only the change slice
// without one. Half of the victim's prefixes have no other path, so their
// slots go onto the free list, whose capacity already covers every slot.
func TestRemovePeerIntoDoesNotAllocate(t *testing.T) {
	const runs = 4
	main := PeerMeta{Addr: addr("203.0.113.1"), AS: 65002, ID: addr("203.0.113.1")}
	victim := PeerMeta{Addr: addr("198.51.100.2"), AS: 65003, ID: addr("198.51.100.2")}
	nlri := make([]netip.Prefix, 3000)
	for i := range nlri {
		nlri[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{11, byte(i >> 8), byte(i), 0}), 24)
	}
	for _, presized := range []bool{true, false} {
		ribs := make([]*RIB, runs+1) // AllocsPerRun calls f runs+1 times
		for i := range ribs {
			ribs[i] = NewRIB()
			ribs[i].Update(main, &Update{Attrs: &Attrs{Origin: OriginIGP, ASPath: Sequence(65002), NextHop: main.Addr}, NLRI: nlri[:2000]})
			ribs[i].Update(victim, &Update{Attrs: &Attrs{Origin: OriginIGP, ASPath: Sequence(65003), NextHop: victim.Addr}, NLRI: nlri[1000:]})
		}
		var buf []Change
		if presized {
			buf = make([]Change, 0, ribs[0].PeerLen(victim.Addr))
		}
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			if n := len(ribs[i].RemovePeerInto(victim.Addr, buf)); n != 2000 || ribs[i].Len() != 2000 {
				t.Fatalf("%d changes leaving %d prefixes, want 2000 and 2000", n, ribs[i].Len())
			}
			i++
		})
		want := 1.0
		if presized {
			want = 0
		}
		if allocs != want {
			t.Fatalf("RemovePeerInto (pre-sized buffer: %v) makes %.1f allocations, want %.0f", presized, allocs, want)
		}
	}
}

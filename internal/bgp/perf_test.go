package bgp

import (
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"unsafe"
)

// TestInternerCanonicalizes asserts the interner's contract: semantically
// equal attribute sets intern to one pointer, distinct sets keep their
// own, and nil passes through. Attributes handed to Intern are frozen by
// contract (documented on Interner): mutating them afterwards is a caller
// bug, which is why every mutation site in this repository clones first.
func TestInternerCanonicalizes(t *testing.T) {
	in := NewInterner()
	mk := func() *Attrs {
		return &Attrs{
			Origin:      OriginIGP,
			ASPath:      Sequence(65002, 64512, 3356),
			NextHop:     addr("203.0.113.1"),
			MED:         10,
			HasMED:      true,
			Communities: []Community{Community(65002<<16 | 40)},
			Others:      []RawAttr{{Flags: 0xc0, Code: 32, Data: []byte{1, 2, 3}}},
		}
	}
	a, b := mk(), mk()
	if a == b {
		t.Fatal("test needs distinct pointers")
	}
	ca := in.Intern(a)
	cb := in.Intern(b)
	if ca != a {
		t.Fatal("first intern must return its argument as canonical")
	}
	if cb != ca {
		t.Fatal("equal attrs must intern to the same pointer")
	}
	if in.Len() != 1 {
		t.Fatalf("interner size %d, want 1", in.Len())
	}
	// A semantically different set keeps its own identity.
	d := mk()
	d.MED = 11
	if in.Intern(d) != d {
		t.Fatal("distinct attrs collapsed onto an existing canonical set")
	}
	if in.Len() != 2 {
		t.Fatalf("interner size %d, want 2", in.Len())
	}
	if in.Intern(nil) != nil {
		t.Fatal("nil must intern to nil")
	}
	// Hash must cover the Equal fields: flipping each scalar escapes the
	// original's bucket-or-Equal match.
	for i, mut := range []func(*Attrs){
		func(x *Attrs) { x.Origin = OriginIncomplete },
		func(x *Attrs) { x.NextHop = addr("203.0.113.2") },
		func(x *Attrs) { x.HasMED = false },
		func(x *Attrs) { x.LocalPref, x.HasLocalPref = 200, true },
		func(x *Attrs) { x.AtomicAggregate = true },
		func(x *Attrs) { x.ASPath = Sequence(65002) },
		func(x *Attrs) { x.Communities = nil },
		func(x *Attrs) { x.Others = nil },
		func(x *Attrs) { x.Aggregator = &Aggregator{AS: 1, ID: addr("192.0.2.1")} },
	} {
		x := mk()
		mut(x)
		if in.Intern(x) != x {
			t.Fatalf("mutation %d collapsed onto an existing canonical set", i)
		}
	}
}

// TestRIBInternsStoredAttrs asserts the RIB stores canonical attribute
// pointers: two updates carrying equal-but-distinct Attrs objects end up
// sharing one pointer in the table, which is what turns the processor's
// churn filter into a pointer compare.
func TestRIBInternsStoredAttrs(t *testing.T) {
	r := NewRIB()
	r.Update(peerR2, announce("203.0.113.1", "1.0.0.0/24"))
	first := best(r, pfx("1.0.0.0/24")).Attrs
	// A fresh, semantically identical announcement (fresh Attrs object).
	r.Update(peerR2, announce("203.0.113.1", "2.0.0.0/24"))
	second := best(r, pfx("2.0.0.0/24")).Attrs
	if first != second {
		t.Fatal("RIB stored two pointers for one semantic attribute set")
	}
}

// TestRIBIdenticalReannouncement asserts the churn fast path: a peer
// re-announcing a route with byte-identical attributes still yields a
// Change (the naive standalone router pays a FIB write for it) but leaves
// the ranked list and the stored path (its session record included)
// untouched.
func TestRIBIdenticalReannouncement(t *testing.T) {
	r := NewRIB()
	p2 := peerR2
	p2.Weight = 100
	r.Update(p2, announce("203.0.113.1", "1.0.0.0/24"))
	r.Update(peerR3, announce("198.51.100.2", "1.0.0.0/24"))
	before := r.Paths(pfx("1.0.0.0/24"))

	changes := r.Update(peerR3, announce("198.51.100.2", "1.0.0.0/24"))
	if len(changes) != 1 {
		t.Fatalf("re-announcement changes %d, want 1 (standalone FIB write)", len(changes))
	}
	after := r.Paths(pfx("1.0.0.0/24"))
	if len(after) != 2 {
		t.Fatalf("paths %d, want 2", len(after))
	}
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("path %d was rebuilt by an identical re-announcement", i)
		}
	}
}

// TestRIBGrowthAfterRemovalKeepsOldView pins the Change contract's one
// preserved-Old case against a capacity trap: a removal leaves spare
// capacity in the entry's backing array, and a later membership-growth
// insert must NOT reuse it (an in-place shift would rewrite the Old view
// the caller just received).
func TestRIBGrowthAfterRemovalKeepsOldView(t *testing.T) {
	r := NewRIB()
	pA := peerR2
	pA.Weight = 100
	r.Update(pA, announce("203.0.113.1", "1.0.0.0/24"))
	r.Update(peerR3, announce("198.51.100.2", "1.0.0.0/24"))
	// Withdraw R3: the entry's array truncates in place, keeping cap 2.
	r.Update(peerR3, withdraw("1.0.0.0/24"))
	// A new peer that outranks A announces: growth must re-allocate.
	pC := PeerMeta{Addr: addr("192.0.2.9"), AS: 65009, ID: addr("192.0.2.9"), Weight: 200}
	changes := r.Update(pC, announce("192.0.2.9", "1.0.0.0/24"))
	if len(changes) != 1 {
		t.Fatalf("changes %d, want 1", len(changes))
	}
	ch := changes[0]
	if len(ch.Old) != 1 || ch.Old[0].Peer().Addr != pA.Addr {
		t.Fatalf("Old view corrupted: got %v, want the pre-change [A] ranking", ch.Old)
	}
	if len(ch.New) != 2 || ch.New[0].Peer().Addr != pC.Addr {
		t.Fatalf("New ranking wrong: %v", ch.New)
	}
}

// TestRIBPeerIndex asserts the per-peer index tracks announcements,
// implicit withdraws, explicit withdraws and RemovePeer.
func TestRIBPeerIndex(t *testing.T) {
	r := NewRIB()
	r.Update(peerR2, announce("203.0.113.1", "1.0.0.0/24", "2.0.0.0/24"))
	r.Update(peerR3, announce("198.51.100.2", "1.0.0.0/24"))
	if n := r.PeerLen(peerR2.Addr); n != 2 {
		t.Fatalf("R2 index %d, want 2", n)
	}
	// Implicit withdraw (replacement) must not grow the index.
	r.Update(peerR2, announce("203.0.113.9", "1.0.0.0/24"))
	if n := r.PeerLen(peerR2.Addr); n != 2 {
		t.Fatalf("R2 index after replacement %d, want 2", n)
	}
	r.Update(peerR2, withdraw("2.0.0.0/24"))
	if n := r.PeerLen(peerR2.Addr); n != 1 {
		t.Fatalf("R2 index after withdraw %d, want 1", n)
	}
	if ch := r.RemovePeer(peerR2.Addr); len(ch) != 1 {
		t.Fatalf("RemovePeer changes %d, want 1", len(ch))
	}
	if n := r.PeerLen(peerR2.Addr); n != 0 {
		t.Fatalf("R2 index after RemovePeer %d, want 0", n)
	}
	// Idempotent: a second removal finds nothing.
	if ch := r.RemovePeer(peerR2.Addr); len(ch) != 0 {
		t.Fatalf("second RemovePeer changes %d, want 0", len(ch))
	}
	if n := r.PeerLen(peerR3.Addr); n != 1 {
		t.Fatalf("R3 index %d, want 1", n)
	}
}

// removePeerScan is the naive reference for RemovePeer: scan the whole
// table for the peer's paths and withdraw each one.
func removePeerScan(r *RIB, peer PeerMeta) []Change {
	var hit []netip.Prefix
	walkPaths(r, func(p netip.Prefix, paths []Path) bool {
		for _, path := range paths {
			if path.Peer().Addr == peer.Addr {
				hit = append(hit, p)
			}
		}
		return true
	})
	var changes []Change
	for _, p := range hit {
		changes = append(changes, r.Update(peer, &Update{Withdrawn: []netip.Prefix{p}})...)
	}
	return changes
}

// TestRIBRemovePeerMatchesScan asserts the indexed RemovePeer and the
// reference full-table scan agree on both the resulting table and the
// change set, over a randomized table.
func TestRIBRemovePeerMatchesScan(t *testing.T) {
	build := func() *RIB {
		r := NewRIB()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 500; i++ {
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte{1, byte(i >> 8), byte(i), 0}), 24)
			u := &Update{
				Attrs: &Attrs{Origin: OriginIGP, ASPath: Sequence(65002), NextHop: addr("203.0.113.1")},
				NLRI:  []netip.Prefix{p},
			}
			r.Update(peerR2, u)
			if rng.Intn(2) == 0 {
				u3 := &Update{
					Attrs: &Attrs{Origin: OriginIGP, ASPath: Sequence(65003), NextHop: addr("198.51.100.2")},
					NLRI:  []netip.Prefix{p},
				}
				r.Update(peerR3, u3)
			}
		}
		return r
	}
	a, b := build(), build()
	chA := a.RemovePeer(peerR2.Addr)
	chB := removePeerScan(b, peerR2)
	if len(chA) != len(chB) {
		t.Fatalf("indexed %d changes, scan %d", len(chA), len(chB))
	}
	if a.Len() != b.Len() {
		t.Fatalf("indexed table %d prefixes, scan %d", a.Len(), b.Len())
	}
	walkPaths(a, func(p netip.Prefix, paths []Path) bool {
		other := b.Paths(p)
		if len(other) != len(paths) {
			t.Errorf("%v: indexed %d paths, scan %d", p, len(paths), len(other))
			return false
		}
		for i := range paths {
			if paths[i].Peer().Addr != other[i].Peer().Addr {
				t.Errorf("%v: rank %d differs", p, i)
				return false
			}
		}
		return true
	})
}

// TestRIBRankedInsertionMatchesFullSort cross-checks the binary-search
// insertion against the reference full re-sort (DecisionConfig.Rank) over
// randomized path sets: after any sequence of announcements the stored
// order must equal what sorting from scratch produces.
func TestRIBRankedInsertionMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	target := pfx("5.0.0.0/24")
	for trial := 0; trial < 50; trial++ {
		r := NewRIB()
		nPeers := 2 + rng.Intn(8)
		for i := 0; i < nPeers; i++ {
			peer := PeerMeta{
				Addr:      netip.AddrFrom4([4]byte{10, 0, byte(trial), byte(i + 1)}),
				AS:        uint32(65000 + i),
				ID:        netip.AddrFrom4([4]byte{10, 0, byte(trial), byte(i + 1)}),
				IGPMetric: uint32(rng.Intn(3)),
				Weight:    uint32(rng.Intn(3) * 100),
			}
			u := &Update{
				Attrs: &Attrs{
					Origin:  Origin(rng.Intn(3)),
					ASPath:  Sequence(makeASNs(rng)...),
					NextHop: netip.AddrFrom4([4]byte{10, 1, byte(trial), byte(i + 1)}),
				},
				NLRI: []netip.Prefix{target},
			}
			if rng.Intn(4) == 0 {
				u.Attrs.LocalPref, u.Attrs.HasLocalPref = uint32(50+rng.Intn(3)*50), true
			}
			r.Update(peer, u)
		}
		got := r.Paths(target)
		want := append([]Path(nil), got...)
		// Shuffle, then full-sort with the reference implementation.
		rng.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
		r.Decision.Rank(want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: rank %d: insertion order disagrees with full sort", trial, i)
			}
		}
	}
}

func makeASNs(rng *rand.Rand) []uint32 {
	n := 1 + rng.Intn(4)
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(64512 + rng.Intn(100))
	}
	return out
}

// TestRIBConcurrentUpdateRemovePeer hammers the RIB from parallel
// announcers, withdrawers and peer-removers; run under -race it guards
// the per-peer entries' locking (the index and the session record share
// the RIB mutex and must never be visible half-updated). Announcers
// change their weight now and then, so records are replaced while other
// goroutines read the fields of records handed out by Best.
func TestRIBConcurrentUpdateRemovePeer(t *testing.T) {
	r := NewRIB()
	const peers = 4
	const prefixes = 64
	metas := make([]PeerMeta, peers)
	for i := range metas {
		a := netip.AddrFrom4([4]byte{10, 2, 0, byte(i + 1)})
		metas[i] = PeerMeta{Addr: a, AS: uint32(65000 + i), ID: a}
	}
	prefixFor := func(j int) netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{7, 0, byte(j), 0}), 24)
	}
	var wg sync.WaitGroup
	for i := range metas {
		wg.Add(1)
		go func(meta PeerMeta, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var buf []Change
			for iter := 0; iter < 200; iter++ {
				switch rng.Intn(4) {
				case 0:
					buf = r.RemovePeerInto(meta.Addr, buf)
				case 1:
					u := &Update{Withdrawn: []netip.Prefix{prefixFor(rng.Intn(prefixes))}}
					buf = r.UpdateInto(meta, u, buf)
				default:
					if rng.Intn(8) == 0 {
						meta.Weight ^= 100
					}
					u := &Update{
						Attrs: &Attrs{
							Origin:  OriginIGP,
							ASPath:  Sequence(meta.AS),
							NextHop: meta.Addr,
						},
						NLRI: []netip.Prefix{prefixFor(rng.Intn(prefixes))},
					}
					buf = r.UpdateInto(meta, u, buf)
				}
				// Concurrent readers exercise the RLock paths.
				if b, ok := r.Best(prefixFor(rng.Intn(prefixes))); ok && b.Peer().Weight > 100 {
					t.Errorf("best path via %v carries weight %d, never announced", b.Peer().Addr, b.Peer().Weight)
				}
				r.PeerLen(meta.Addr)
			}
		}(metas[i], int64(i+1))
	}
	wg.Wait()
	// Post-condition: the index agrees with the table.
	for _, meta := range metas {
		want := 0
		walkPaths(r, func(_ netip.Prefix, paths []Path) bool {
			for _, p := range paths {
				if p.Peer().Addr == meta.Addr {
					want++
				}
			}
			return true
		})
		if got := r.PeerLen(meta.Addr); got != want {
			t.Fatalf("peer %v: index %d, table %d", meta.Addr, got, want)
		}
	}
}

// TestIdenticalReannouncementDoesNotAllocate pins the RIB's churn fast
// path: a peer replaying a route with byte-identical attributes (a fresh
// object, which the interner canonicalizes) into a reused change buffer
// allocates nothing.
func TestIdenticalReannouncementDoesNotAllocate(t *testing.T) {
	r := NewRIB()
	main := PeerMeta{Addr: addr("203.0.113.1"), AS: 65002, ID: addr("203.0.113.1"), Weight: 200}
	victim := PeerMeta{Addr: addr("198.51.100.2"), AS: 65003, ID: addr("198.51.100.2"), Weight: 100}
	nlri := make([]netip.Prefix, 1000)
	for i := range nlri {
		nlri[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{11, byte(i >> 8), byte(i), 0}), 24)
	}
	r.Update(main, &Update{Attrs: &Attrs{Origin: OriginIGP, ASPath: Sequence(65002, 3356), NextHop: main.Addr}, NLRI: nlri})
	r.Update(victim, &Update{Attrs: &Attrs{Origin: OriginIGP, ASPath: Sequence(65003, 1299), NextHop: victim.Addr}, NLRI: nlri[:100]})
	replay := &Update{
		Attrs: &Attrs{Origin: OriginIGP, ASPath: Sequence(65002, 3356), NextHop: main.Addr},
		NLRI:  nlri[77:78],
	}
	buf := r.UpdateInto(main, replay, nil)
	allocs := testing.AllocsPerRun(100, func() {
		buf = r.UpdateInto(main, replay, buf)
		if len(buf) != 1 {
			t.Fatalf("re-announcement returned %d changes, want 1", len(buf))
		}
	})
	if allocs != 0 {
		t.Fatalf("identical re-announcement makes %.1f allocations, want 0", allocs)
	}
}

// TestChangedAnnouncementDoesNotAllocate pins the implicit withdraw with
// unchanged membership: a peer re-announcing a prefix it already covers,
// with different attributes that are already interned, into a reused
// change buffer allocates nothing, because a path is a value stored in
// place in the prefix's ranked list.
func TestChangedAnnouncementDoesNotAllocate(t *testing.T) {
	if size := unsafe.Sizeof(Path{}); size != 16 {
		t.Fatalf("Path is %d bytes, want 16 (a session record and an attribute pointer)", size)
	}
	r := NewRIB()
	main := PeerMeta{Addr: addr("203.0.113.1"), AS: 65002, ID: addr("203.0.113.1"), Weight: 200}
	victim := PeerMeta{Addr: addr("198.51.100.2"), AS: 65003, ID: addr("198.51.100.2"), Weight: 100}
	nlri := make([]netip.Prefix, 1000)
	for i := range nlri {
		nlri[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{11, byte(i >> 8), byte(i), 0}), 24)
	}
	r.Update(main, &Update{Attrs: &Attrs{Origin: OriginIGP, ASPath: Sequence(65002, 3356), NextHop: main.Addr}, NLRI: nlri})
	r.Update(victim, &Update{Attrs: &Attrs{Origin: OriginIGP, ASPath: Sequence(65003, 1299), NextHop: victim.Addr}, NLRI: nlri[:100]})
	// Two attribute sets the main peer flips prefix 77 between; the first
	// flip interns the second set.
	flips := [2]*Update{
		{Attrs: &Attrs{Origin: OriginIGP, ASPath: Sequence(65002, 174), NextHop: main.Addr}, NLRI: nlri[77:78]},
		{Attrs: &Attrs{Origin: OriginIGP, ASPath: Sequence(65002, 3356), NextHop: main.Addr}, NLRI: nlri[77:78]},
	}
	buf := r.UpdateInto(main, flips[0], nil)
	n := 1
	allocs := testing.AllocsPerRun(100, func() {
		u := flips[n%2]
		n++
		buf = r.UpdateInto(main, u, buf)
		if len(buf) != 1 || len(buf[0].New) != 2 || !buf[0].New[0].Attrs.Equal(u.Attrs) {
			t.Fatalf("changed announcement returned %v, want the main peer's new path first of two", buf)
		}
	})
	if allocs != 0 {
		t.Fatalf("changed announcement makes %.1f allocations, want 0", allocs)
	}
}

// BenchmarkRIBSlot times one prefix-to-slot lookup in a 200k-prefix
// table of IPv4 /24s, the lookup every announcement starts with.
func BenchmarkRIBSlot(b *testing.B) {
	const n = 200_000
	r := NewRIBSized(n)
	peer := PeerMeta{Addr: addr("203.0.113.1"), AS: 65002, ID: addr("203.0.113.1")}
	nlri := make([]netip.Prefix, n)
	for i := range nlri {
		nlri[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{11 + byte(i>>16), byte(i >> 8), byte(i), 0}), 24)
	}
	r.Update(peer, &Update{Attrs: &Attrs{Origin: OriginIGP, ASPath: Sequence(65002), NextHop: peer.Addr}, NLRI: nlri})
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { nlri[i], nlri[j] = nlri[j], nlri[i] })
	i := 0
	for b.Loop() {
		if _, ok := r.Slot(nlri[i]); !ok {
			b.Fatal("miss")
		}
		if i++; i == n {
			i = 0
		}
	}
}

package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"supercharged/internal/bgp"
)

// routerModel is the receiving end of the processor's UPDATE stream: the
// next-hop it holds per prefix after applying every message in order.
type routerModel map[netip.Prefix]netip.Addr

var bothCodecs = []bgp.Codec{{ASN4: true}, {ASN4: false}}

// apply feeds one reaction into the model and checks what holds for every
// reaction: each UPDATE marshals under both codecs within bgp.MaxMsgLen,
// no prefix is announced twice, and the message count stays within one
// per signature plus what the size cap forces.
func (r routerModel) apply(t *testing.T, what string, out []*bgp.Update) {
	t.Helper()
	announced := map[netip.Prefix]bool{}
	sigs := map[*bgp.Attrs]bool{}
	prefixBytes, minBudget, withdraws := 0, bgp.MaxMsgLen, false
	for i, u := range out {
		if len(u.NLRI) == 0 && len(u.Withdrawn) == 0 {
			t.Fatalf("%s: update %d is empty", what, i)
		}
		for _, c := range bothCodecs {
			wire, err := c.Marshal(u)
			if err != nil {
				t.Fatalf("%s: update %d (%d NLRI, %d withdrawn) under ASN4=%v: %v", what, i, len(u.NLRI), len(u.Withdrawn), c.ASN4, err)
			}
			if len(wire) > bgp.MaxMsgLen {
				t.Fatalf("%s: update %d is %d bytes on the wire", what, i, len(wire))
			}
		}
		budget, err := bgp.NLRIBudget(u.Attrs, bgp.Codec{ASN4: true})
		if err != nil {
			t.Fatal(err)
		}
		minBudget = min(minBudget, budget)
		for _, p := range u.Withdrawn {
			withdraws = true
			prefixBytes += bgp.PrefixWireLen(p)
			delete(r, p)
		}
		if u.Attrs == nil {
			continue
		}
		sigs[u.Attrs] = true // one signature is rendered once and shared
		for _, p := range u.NLRI {
			if announced[p] {
				t.Fatalf("%s: %v announced twice in one reaction", what, p)
			}
			announced[p] = true
			prefixBytes += bgp.PrefixWireLen(p)
			r[p] = u.Attrs.NextHop
		}
	}
	nSigs := len(sigs)
	if withdraws {
		nSigs++
	}
	// A cut UPDATE is at most 4 bytes (one prefix less one) short of full.
	if limit := nSigs + (prefixBytes+minBudget-5)/(minBudget-4); len(out) > limit {
		t.Fatalf("%s: %d updates for %d signatures and %d prefix bytes, want ≤ %d", what, len(out), nSigs, prefixBytes, limit)
	}
}

// checkAgainst compares the model with what the processor says it
// advertised and with Listing 1 applied afresh to the RIB, for every
// prefix, and the groups' member counts with the VNH-advertised total.
func (r routerModel) checkAgainst(t *testing.T, what string, p *Processor, universe []netip.Prefix) {
	t.Helper()
	viaVNH := 0
	for _, pf := range universe {
		got, have := r[pf]
		nh, virtual, ok := p.Advertised(pf)
		if have != ok || got != nh {
			t.Fatalf("%s: %v: router holds %v (%v), Advertised says %v (%v)", what, pf, got, have, nh, ok)
		}
		if virtual {
			viaVNH++
		}
		var want netip.Addr
		var nhs []netip.Addr
		for _, path := range p.RIB().Paths(pf) {
			if !slices.Contains(nhs, path.NextHop()) && len(nhs) < p.GroupSize {
				nhs = append(nhs, path.NextHop())
			}
		}
		switch {
		case len(nhs) == 1:
			want = nhs[0]
		case len(nhs) > 1:
			g, found := p.Groups().Get(nhs...)
			if !found {
				t.Fatalf("%s: %v: no group for %v", what, pf, nhs)
			}
			want = g.VNH
		}
		if got != want {
			t.Fatalf("%s: %v: router holds %v, the RIB's paths %v call for %v", what, pf, got, nhs, want)
		}
	}
	if len(r) != p.AdvertisedCount() {
		t.Fatalf("%s: router holds %d prefixes, AdvertisedCount %d", what, len(r), p.AdvertisedCount())
	}
	// Every announced state sits in its prefix's current RIB slot.
	for s, st := range p.adv {
		if st.attrs == nil {
			continue
		}
		if got, ok := p.RIB().Slot(st.prefix); !ok || got != uint32(s) {
			t.Fatalf("%s: %v is announced from slot %d, the RIB holds it in slot %d (%v)", what, st.prefix, s, got, ok)
		}
	}
	members := 0
	for _, g := range p.Groups().All() {
		if g.Prefixes < 0 {
			t.Fatalf("%s: %v has a negative member count", what, g)
		}
		members += g.Prefixes
	}
	if members != viaVNH {
		t.Fatalf("%s: groups count %d members, %d prefixes are advertised via a VNH", what, members, viaVNH)
	}
}

// TestPackerDifferential drives seeded shuffles of announcements,
// withdraws, UPDATEs that withdraw and announce the same prefix, peer
// failures and re-announcements through the processor. After every
// reaction the ordered replay of its output must leave a router holding
// exactly what Advertised reports and what Listing 1 derives from the RIB.
func TestPackerDifferential(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			universe := make([]netip.Prefix, 3000)
			for i := range universe {
				// Lengths 9..24: 3- and 4-byte encodings, so cuts fall
				// at uneven prefix counts.
				bits := 9 + rng.Intn(16)
				universe[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(16 + i>>8), byte(i), byte(rng.Intn(256)), 0}), bits).Masked()
			}
			universe = dedupPrefixes(universe)
			peers := make([]bgp.PeerMeta, 3+rng.Intn(4))
			for i := range peers {
				a := netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)})
				peers[i] = bgp.PeerMeta{Addr: a, ID: a, AS: uint32(65001 + i), Weight: uint32(100 * (len(peers) - i))}
			}
			// Many templates per peer; some carry 4-byte ASNs and
			// communities so the two codecs render different lengths.
			template := func(peer bgp.PeerMeta) *bgp.Attrs {
				n := rng.Intn(60)
				nh := peer.Addr
				if peer.Addr == peers[1].Addr && n%3 == 0 {
					// Peer 2 sometimes announces peer 1's next hop, as a
					// route server and a direct session to one member do:
					// two ranked paths with one next hop, which Listing 1
					// must count once.
					nh = peers[0].Addr
				}
				a := &bgp.Attrs{Origin: bgp.OriginIGP, ASPath: bgp.Sequence(peer.AS, uint32(1000+n), uint32(70000+n%7)), NextHop: nh}
				for i := 0; i < n%5; i++ {
					a.Communities = append(a.Communities, bgp.Community(uint32(peer.AS)<<16|uint32(n+i)))
				}
				return a
			}
			sample := func(max int) []netip.Prefix {
				n := 1 + rng.Intn(max)
				out := make([]netip.Prefix, n)
				for i := range out {
					out[i] = universe[rng.Intn(len(universe))]
				}
				return out
			}

			p := NewProcessor(nil, nil)
			p.GroupSize = 2 + int(seed%2)
			router := routerModel{}
			react := func(what string, out []*bgp.Update, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				router.apply(t, what, out)
				router.checkAgainst(t, what, p, universe)
				RecycleUpdates(out)
			}
			for step := 0; step < 250; step++ {
				peer := peers[rng.Intn(len(peers))]
				what := fmt.Sprintf("step %d peer %v", step, peer.Addr)
				switch k := rng.Intn(20); {
				case k < 8:
					out, err := p.Process(peer, &bgp.Update{Attrs: template(peer), NLRI: sample(200)})
					react(what+" announce", out, err)
				case k < 11:
					out, err := p.Process(peer, &bgp.Update{Withdrawn: sample(200)})
					react(what+" withdraw", out, err)
				case k < 15:
					// The same prefixes on both sides of one UPDATE, and a
					// few more on either.
					both := sample(40)
					u := &bgp.Update{
						Withdrawn: append(sample(30), both...),
						Attrs:     template(peer),
						NLRI:      append(sample(30), both...),
					}
					out, err := p.Process(peer, u)
					react(what+" withdraw+announce", out, err)
				case k < 17:
					// The whole table under one template: far more than
					// one UPDATE holds.
					out, err := p.Process(peer, &bgp.Update{Attrs: template(peer), NLRI: universe})
					react(what+" full table", out, err)
				default:
					out, err := p.PeerDown(peer.Addr)
					react(what+" down", out, err)
				}
			}

			// A router starting from nothing is brought to the same
			// state by Readvertise alone.
			out, err := p.Readvertise()
			if err != nil {
				t.Fatal(err)
			}
			fresh := routerModel{}
			fresh.apply(t, "readvertise", out)
			fresh.checkAgainst(t, "readvertise", p, universe)
		})
	}
}

// TestReactReusesAFreedSlot sends one UPDATE that withdraws the last path
// of one prefix and announces a new prefix, which takes the freed slot
// within the same change list. Replaying the output in order must leave
// the router holding what Advertised reports for both.
func TestReactReusesAFreedSlot(t *testing.T) {
	p := NewProcessor(nil, nil)
	p1, p2 := pfx("1.0.0.0/24"), pfx("2.0.0.0/24")
	universe := []netip.Prefix{pfx("3.0.0.0/24"), p1, p2}
	router := routerModel{}
	react := func(what string, out []*bgp.Update, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		router.apply(t, what, out)
		router.checkAgainst(t, what, p, universe)
		RecycleUpdates(out)
	}
	out, err := p.Process(peerR3, announceFrom(r3, 65003, "3.0.0.0/24"))
	react("R3 load", out, err)
	out, err = p.Process(peerR2, announceFrom(r2, 65002, "3.0.0.0/24", "1.0.0.0/24"))
	react("R2 load", out, err)
	freed, ok := p.RIB().Slot(p1)
	if !ok {
		t.Fatal("1.0.0.0/24 has no slot")
	}

	u := announceFrom(r2, 65002, "2.0.0.0/24")
	u.Withdrawn = []netip.Prefix{p1}
	out, err = p.Process(peerR2, u)
	react("withdraw 1.0.0.0/24, announce 2.0.0.0/24", out, err)
	if s, ok := p.RIB().Slot(p2); !ok || s != freed {
		t.Fatalf("2.0.0.0/24 is in slot %d (%v), want the freed slot %d", s, ok, freed)
	}
	if _, ok := router[p1]; ok {
		t.Fatal("the router still holds 1.0.0.0/24")
	}

	// The reused slot moves on to a backup-group and back.
	out, err = p.Process(peerR3, announceFrom(r3, 65003, "2.0.0.0/24"))
	react("R3 announces 2.0.0.0/24", out, err)
	if _, virtual, _ := p.Advertised(p2); !virtual {
		t.Fatal("2.0.0.0/24 is not advertised via a VNH")
	}
	out, err = p.PeerDown(r3)
	react("R3 down", out, err)
}

// TestReactRefusesAnotherTablesChanges feeds React change lists from a
// second RIB that name a slot the processor holds for another prefix:
// each is an error, and neither what is advertised nor any group's member
// count moves.
func TestReactRefusesAnotherTablesChanges(t *testing.T) {
	p := NewProcessor(nil, nil)
	held := pfx("1.0.0.0/24")
	for _, peer := range []bgp.PeerMeta{peerR2, peerR3} {
		if _, err := p.Process(peer, announceFrom(peer.Addr, peer.AS, "1.0.0.0/24")); err != nil {
			t.Fatal(err)
		}
	}
	slot, _ := p.RIB().Slot(held)
	nh, virtual, _ := p.Advertised(held)
	groups := p.Groups().All()

	other := bgp.NewRIB()
	for _, u := range []*bgp.Update{announceFrom(r2, 65002, "9.0.0.0/24"), withdrawFrom("9.0.0.0/24")} {
		changes := other.Update(peerR2, u)
		if len(changes) != 1 || changes[0].Slot != slot {
			t.Fatalf("the other table's change list %v does not name slot %d", changes, slot)
		}
		out, err := p.React(changes)
		if err == nil {
			t.Fatalf("React accepted %v in slot %d, which holds %v", changes[0].Prefix, slot, held)
		}
		if len(out) != 0 {
			t.Fatalf("a refused change list emitted %d updates", len(out))
		}
		if gotNH, gotVirtual, ok := p.Advertised(held); !ok || gotNH != nh || gotVirtual != virtual {
			t.Fatalf("%v is advertised as %v (virtual %v, ok %v), was %v (%v)", held, gotNH, gotVirtual, ok, nh, virtual)
		}
		if _, _, ok := p.Advertised(pfx("9.0.0.0/24")); ok || p.AdvertisedCount() != 1 {
			t.Fatalf("9.0.0.0/24 advertised %v, AdvertisedCount %d", ok, p.AdvertisedCount())
		}
		if got := p.Groups().All(); !reflect.DeepEqual(got, groups) {
			t.Fatalf("groups %v, were %v", got, groups)
		}
	}
}

func dedupPrefixes(ps []netip.Prefix) []netip.Prefix {
	seen := map[netip.Prefix]bool{}
	out := ps[:0]
	for _, p := range ps {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// TestPeerDownWithdrawsFitTheWire is the regression test for the
// unbounded pure-withdraw UPDATE: a peer carrying 5k single-path prefixes
// fails, and the withdraw stream must be complete and encodable.
func TestPeerDownWithdrawsFitTheWire(t *testing.T) {
	p := NewProcessor(nil, nil)
	nlri := make([]netip.Prefix, 5000)
	for i := range nlri {
		nlri[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(i >> 8), byte(i), 0}), 24)
	}
	router := routerModel{}
	out, err := p.Process(peerR2, &bgp.Update{
		Attrs: &bgp.Attrs{Origin: bgp.OriginIGP, ASPath: bgp.Sequence(65002, 3356), NextHop: r2},
		NLRI:  nlri,
	})
	if err != nil {
		t.Fatal(err)
	}
	router.apply(t, "load", out)
	if len(router) != len(nlri) {
		t.Fatalf("router holds %d prefixes after the load, want %d", len(router), len(nlri))
	}
	out, err = p.PeerDown(r2)
	if err != nil {
		t.Fatal(err)
	}
	router.apply(t, "peer down", out)
	if len(router) != 0 {
		t.Fatalf("%d prefixes were not withdrawn", len(router))
	}
	if len(out) < 2 {
		t.Fatalf("5k withdraws in %d update(s): cannot fit %d bytes", len(out), bgp.MaxMsgLen)
	}
}

// TestMemberCountsAgainstConcurrentReaders moves prefixes between groups
// while the ops-endpoint style readers copy groups out of the table; run
// under -race it pins that the per-prefix count updates need no table lock.
func TestMemberCountsAgainstConcurrentReaders(t *testing.T) {
	proc, r2, r3, nlri := perfProcessor(t, 256)
	r2Attrs := &bgp.Attrs{Origin: bgp.OriginIGP, ASPath: bgp.Sequence(r2.AS, 3356), NextHop: r2.Addr}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, g := range proc.Groups().All() {
				if g.Prefixes < 0 || g.Prefixes > len(nlri) {
					t.Errorf("group %v read with %d members", g, g.Prefixes)
				}
				proc.Groups().ByVNH(g.VNH)
			}
			proc.Groups().Containing(r3.Addr)
			proc.Advertised(nlri[0])
		}
	}()
	for i := 0; i < 50; i++ {
		if _, err := proc.PeerDown(r2.Addr); err != nil {
			t.Fatal(err)
		}
		if _, err := proc.Process(r2, &bgp.Update{Attrs: r2Attrs, NLRI: nlri}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
	if g := proc.Groups().All()[0]; g.Prefixes != len(nlri) {
		t.Fatalf("group ends with %d members, want %d", g.Prefixes, len(nlri))
	}
}

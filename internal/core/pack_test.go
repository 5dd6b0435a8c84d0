package core

import (
	"fmt"
	"math/rand"
	"net/netip"
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
				a := &bgp.Attrs{Origin: bgp.OriginIGP, ASPath: bgp.Sequence(peer.AS, uint32(1000+n), uint32(70000+n%7)), NextHop: peer.Addr}
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

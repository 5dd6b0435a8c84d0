package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"testing"

	"supercharged/internal/bgp"
)

// reactStep is one input of the shard differential: an UPDATE from peer,
// or (upd == nil) the peer's failure.
type reactStep struct {
	peer bgp.PeerMeta
	upd  *bgp.Update
}

// reactStream draws TestPackerDifferential's mix from seed: announcements,
// withdraws, UPDATEs that withdraw and announce the same prefixes, whole
// tables and peer failures, from 3–6 peers.
func reactStream(seed int64) ([]reactStep, []netip.Prefix, []bgp.PeerMeta) {
	rng := rand.New(rand.NewSource(seed))
	universe := make([]netip.Prefix, 3000)
	for i := range universe {
		bits := 9 + rng.Intn(16)
		universe[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(16 + i>>8), byte(i), byte(rng.Intn(256)), 0}), bits).Masked()
	}
	universe = dedupPrefixes(universe)
	peers := make([]bgp.PeerMeta, 3+rng.Intn(4))
	for i := range peers {
		a := netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)})
		peers[i] = bgp.PeerMeta{Addr: a, ID: a, AS: uint32(65001 + i), Weight: uint32(100 * (len(peers) - i))}
	}
	template := func(peer bgp.PeerMeta) *bgp.Attrs {
		n := rng.Intn(60)
		a := &bgp.Attrs{Origin: bgp.OriginIGP, ASPath: bgp.Sequence(peer.AS, uint32(1000+n), uint32(70000+n%7)), NextHop: peer.Addr}
		for i := 0; i < n%5; i++ {
			a.Communities = append(a.Communities, bgp.Community(uint32(peer.AS)<<16|uint32(n+i)))
		}
		return a
	}
	sample := func(max int) []netip.Prefix {
		out := make([]netip.Prefix, 1+rng.Intn(max))
		for i := range out {
			out[i] = universe[rng.Intn(len(universe))]
		}
		return out
	}
	steps := make([]reactStep, 250)
	for i := range steps {
		peer := peers[rng.Intn(len(peers))]
		var u *bgp.Update
		switch k := rng.Intn(20); {
		case k < 8:
			u = &bgp.Update{Attrs: template(peer), NLRI: sample(200)}
		case k < 11:
			u = &bgp.Update{Withdrawn: sample(200)}
		case k < 15:
			both := sample(40)
			u = &bgp.Update{Withdrawn: append(sample(30), both...), Attrs: template(peer), NLRI: append(sample(30), both...)}
		case k < 17:
			u = &bgp.Update{Attrs: template(peer), NLRI: universe}
		}
		steps[i] = reactStep{peer: peer, upd: u}
	}
	return steps, universe, peers
}

const reactShards = 4

// shardOf is the prefix hash that splits the table.
func shardOf(p netip.Prefix) int {
	a := p.Addr().As4()
	return int(a[0]^a[1]^a[2]^a[3]^byte(p.Bits())) % reactShards
}

// onShard keeps the prefixes that hash to shard i.
func onShard(i int, ps []netip.Prefix) []netip.Prefix {
	var out []netip.Prefix
	for _, p := range ps {
		if shardOf(p) == i {
			out = append(out, p)
		}
	}
	return out
}

// TestReactShardsMatchOneReactor splits the table the way a sharded
// controller would: four prefix-hashed bgp.RIBs, each with a Processor
// over one shared GroupTable and Engine, each applying the stream and
// calling React on its own goroutine. Against one table and one Processor
// fed the same stream, they must advertise the same next-hop for every
// prefix (the same VNH under AllocDeterministic; the same group tuple
// under AllocSequential, which numbers groups in mint order), hold the
// same groups with the same member counts, install each group's rule
// once, and each shard's output replayed in order must leave a router
// holding what that shard's Advertised reports. Run it under -race.
func TestReactShardsMatchOneReactor(t *testing.T) {
	for _, mode := range []AllocMode{AllocDeterministic, AllocSequential} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", mode, seed), func(t *testing.T) {
				steps, universe, peers := reactStream(seed)
				groupSize := 2 + int(seed%2)

				groups := NewGroupTable(NewVNHPool(mode))
				installs := map[string]int{} // written by the pusher, under the engine lock
				engine := NewEngine(groups, FlowPusherFunc(func(g Group, _ PeerPort) error {
					installs[g.Key()]++
					return nil
				}))
				for _, p := range peers {
					engine.RegisterPeer(PeerPort{NH: p.Addr})
				}
				procs := make([]*Processor, reactShards)
				outs := make([][][]*bgp.Update, reactShards)
				errs := make([]error, reactShards)
				var wg sync.WaitGroup
				for i := range procs {
					procs[i] = NewProcessor(bgp.NewRIB(), groups)
					procs[i].GroupSize = groupSize
					procs[i].OnNewGroup = engine.InstallGroup
					wg.Add(1)
					go func() {
						defer wg.Done()
						rib := procs[i].RIB()
						var changes []bgp.Change
						for _, st := range steps {
							if st.upd == nil {
								changes = rib.RemovePeerInto(st.peer.Addr, changes)
							} else {
								sub := &bgp.Update{Attrs: st.upd.Attrs, Withdrawn: onShard(i, st.upd.Withdrawn), NLRI: onShard(i, st.upd.NLRI)}
								if len(sub.Withdrawn) == 0 && len(sub.NLRI) == 0 {
									continue
								}
								changes = rib.UpdateInto(st.peer, sub, changes)
							}
							out, err := procs[i].React(changes)
							if err != nil {
								errs[i] = err
								return
							}
							outs[i] = append(outs[i], out)
						}
					}()
				}

				one := NewProcessor(nil, NewGroupTable(NewVNHPool(mode)))
				one.GroupSize = groupSize
				for _, st := range steps {
					var out []*bgp.Update
					var err error
					if st.upd == nil {
						out, err = one.PeerDown(st.peer.Addr)
					} else {
						out, err = one.Process(st.peer, st.upd)
					}
					if err != nil {
						t.Fatal(err)
					}
					RecycleUpdates(out)
				}
				wg.Wait()
				for i, err := range errs {
					if err != nil {
						t.Fatalf("shard %d: %v", i, err)
					}
				}

				// Advertised, prefix by prefix; a VNH of the one reactor must
				// map to one VNH of the shards and back.
				vnhs, back := map[netip.Addr]netip.Addr{}, map[netip.Addr]netip.Addr{}
				for _, pf := range universe {
					want, wantVirtual, wantOK := one.Advertised(pf)
					got, virtual, ok := procs[shardOf(pf)].Advertised(pf)
					if ok != wantOK || virtual != wantVirtual || !wantVirtual && got != want {
						t.Fatalf("%v: shards advertise %v (virtual %v, ok %v), one reactor %v (%v, %v)", pf, got, virtual, ok, want, wantVirtual, wantOK)
					}
					if !virtual {
						continue
					}
					wantG, _ := one.Groups().ByVNH(want)
					g, _ := groups.ByVNH(got)
					if g.Key() != wantG.Key() || mode == AllocDeterministic && got != want {
						t.Fatalf("%v: shards advertise %v, one reactor %v", pf, g, wantG)
					}
					if prev, seen := vnhs[want]; seen && prev != got {
						t.Fatalf("%v: one reactor's VNH %v maps to %v and %v", pf, want, prev, got)
					}
					if prev, seen := back[got]; seen && prev != want {
						t.Fatalf("%v: shard VNH %v maps back to %v and %v", pf, got, prev, want)
					}
					vnhs[want], back[got] = got, want
				}

				// The same groups, member for member, each installed once.
				all, wantAll := groups.All(), one.Groups().All()
				if len(all) != len(wantAll) {
					t.Fatalf("shards hold %d groups, one reactor %d", len(all), len(wantAll))
				}
				for j, g := range all {
					if g.Key() != wantAll[j].Key() || g.Prefixes != wantAll[j].Prefixes {
						t.Fatalf("group %d: shards hold %v, one reactor %v", j, g, wantAll[j])
					}
					if installs[g.Key()] != 1 {
						t.Fatalf("%v: rule installed %d times", g, installs[g.Key()])
					}
				}

				// Each shard's output, replayed in order, is what it advertises.
				for i, p := range procs {
					router := routerModel{}
					for j, out := range outs[i] {
						router.apply(t, fmt.Sprintf("shard %d reaction %d", i, j), out)
						RecycleUpdates(out)
					}
					for _, pf := range universe {
						got, have := router[pf]
						nh, _, ok := p.Advertised(pf)
						if have != ok || got != nh {
							t.Fatalf("shard %d: %v: router holds %v (%v), Advertised says %v (%v)", i, pf, got, have, nh, ok)
						}
					}
					if len(router) != p.AdvertisedCount() {
						t.Fatalf("shard %d: router holds %d prefixes, AdvertisedCount %d", i, len(router), p.AdvertisedCount())
					}
				}
			})
		}
	}
}

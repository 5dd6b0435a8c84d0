package core

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"supercharged/internal/bgp"
	"supercharged/internal/feed"
	"supercharged/internal/metrics"
)

// The controller-side experiments of the paper's §3/§4: replica agreement
// without state sync (ablation A1), the n(n-1) group bound realized from
// announcements (E4) and the per-UPDATE processing latency (E3).

// feedPeers builds n providers announcing the same generated table, R2
// preferred, weights descending.
func feedPeers(t *testing.T, table *feed.Table, n int) ([]bgp.PeerMeta, [][]*bgp.Update) {
	t.Helper()
	metas := make([]bgp.PeerMeta, n)
	feeds := make([][]*bgp.Update, n)
	for i := range metas {
		a := netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)})
		metas[i] = bgp.PeerMeta{Addr: a, AS: uint32(65002 + i), ID: a, Weight: uint32(1000 - i*10)}
		ups, err := table.Updates(metas[i].AS, a, bgp.Codec{ASN4: true})
		if err != nil {
			t.Fatal(err)
		}
		feeds[i] = ups
	}
	return metas, feeds
}

// TestReplicasAgreeUnderReorderedFeeds is ablation A1, §3's "no state
// sync needed" claim: two controller replicas receive the same per-peer
// feeds, each peer's stream in order (TCP guarantees that) but the
// streams interleaved differently. What the routers and switches behind
// them see must agree: under AllocDeterministic every prefix's advertised
// next hop and every shared group's VNH; in both modes every shared
// group's VMAC, which is hashed from the group tuple. Groups only one
// replica realized are transient rankings of its interleaving, and
// harmless.
func TestReplicasAgreeUnderReorderedFeeds(t *testing.T) {
	table := feed.Generate(feed.Config{N: 1500, Seed: 1})
	metas, feeds := feedPeers(t, table, 4)

	replay := func(mode AllocMode, shuffleSeed int64) (*GroupTable, *Processor) {
		gt := NewGroupTable(NewVNHPool(mode))
		proc := NewProcessor(nil, gt)
		rng := rand.New(rand.NewSource(shuffleSeed))
		next := make([]int, len(feeds))
		remaining := 0
		for _, f := range feeds {
			remaining += len(f)
		}
		for remaining > 0 {
			p := rng.Intn(len(feeds))
			if next[p] == len(feeds[p]) {
				continue
			}
			if _, err := proc.Process(metas[p], feeds[p][next[p]]); err != nil {
				t.Fatal(err)
			}
			next[p]++
			remaining--
		}
		return gt, proc
	}

	for _, mode := range []AllocMode{AllocSequential, AllocDeterministic} {
		gtA, procA := replay(mode, 101)
		gtB, procB := replay(mode, 201)
		disagree := 0
		for _, r := range table.Routes {
			nhA, virtA, okA := procA.Advertised(r.Prefix)
			nhB, virtB, okB := procB.Advertised(r.Prefix)
			if !okA || !okB || virtA != virtB || nhA != nhB {
				disagree++
			}
		}
		shared, vnhDisagree := 0, 0
		for _, ga := range gtA.All() {
			gb, ok := gtB.Get(ga.NHs...)
			if !ok {
				continue
			}
			shared++
			if ga.VNH != gb.VNH {
				vnhDisagree++
			}
			if ga.VMAC != gb.VMAC {
				t.Fatalf("%s: group %v has VMAC %v on one replica, %v on the other", mode, ga.NHs, ga.VMAC, gb.VMAC)
			}
		}
		if shared == 0 {
			t.Fatalf("%s: the replicas share no group", mode)
		}
		if mode == AllocDeterministic {
			if disagree != 0 {
				t.Fatalf("deterministic replicas disagree on %d/%d prefixes", disagree, len(table.Routes))
			}
			if vnhDisagree != 0 {
				t.Fatalf("deterministic shared groups disagree: %d/%d", vnhDisagree, shared)
			}
		}
	}
}

// TestGroupCountFromAnnouncements is E4: realizing every (primary, backup)
// ordering among n peers through the processor allocates exactly n(n-1)
// backup-groups, the paper's n!/(n-2)!.
func TestGroupCountFromAnnouncements(t *testing.T) {
	for n := 2; n <= 6; n++ {
		proc := NewProcessor(nil, NewGroupTable(NewVNHPool(AllocDeterministic)))
		peers := make([]bgp.PeerMeta, n)
		for i := range peers {
			a := netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)})
			peers[i] = bgp.PeerMeta{Addr: a, AS: uint32(65000 + i), ID: a}
		}
		// One prefix per ordered pair (i, j), preferred via i with backup
		// j: the weights make the ordering explicit.
		k := 0
		for i := range peers {
			for j := range peers {
				if i == j {
					continue
				}
				p := netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(k >> 8), byte(k), 0}), 24)
				k++
				hi, lo := peers[i], peers[j]
				hi.Weight, lo.Weight = 200, 100
				for _, meta := range []bgp.PeerMeta{hi, lo} {
					u := &bgp.Update{
						Attrs: &bgp.Attrs{Origin: bgp.OriginIGP, ASPath: bgp.Sequence(meta.AS), NextHop: meta.Addr},
						NLRI:  []netip.Prefix{p},
					}
					if _, err := proc.Process(meta, u); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if got, want := proc.Groups().Len(), n*(n-1); got != want {
			t.Fatalf("n=%d: groups %d, want %d", n, got, want)
		}
	}
}

// TestUpdateLatencyBeatsPaper is E3, the controller-overhead benchmark the
// paper runs with "two times 500K updates from two different peers": here
// two 20k feeds replayed through one processor, timing each UPDATE's
// decision process + Listing 1 + next-hop rewrite. The paper's Python
// prototype reports a 125 ms p99.
func TestUpdateLatencyBeatsPaper(t *testing.T) {
	table := feed.Generate(feed.Config{N: 20000, Seed: 1})
	metas, feeds := feedPeers(t, table, 2)
	proc := NewProcessor(nil, NewGroupTable(NewVNHPool(AllocSequential)))
	var samples []float64
	emitted := 0
	for p := range feeds {
		for _, u := range feeds[p] {
			t0 := time.Now()
			out, err := proc.Process(metas[p], u)
			if err != nil {
				t.Fatal(err)
			}
			samples = append(samples, time.Since(t0).Seconds())
			emitted += len(out)
		}
	}
	if len(samples) == 0 || emitted == 0 {
		t.Fatalf("replayed %d updates, emitted %d", len(samples), emitted)
	}
	// Two providers over one shared table: R2 always wins, so only
	// (R2, R3) is realized; allow its reverse as well.
	if g := proc.Groups().Len(); g < 1 || g > 2 {
		t.Fatalf("groups %d", g)
	}
	if p99 := metrics.Summarize(samples).P99; p99 > 0.125 {
		t.Fatalf("p99 %.4fs exceeds the paper's Python number", p99)
	}
}

package main

import (
	"bytes"
	"io"
	"net/netip"
	"os"
	"time"

	"supercharged/internal/bgp"
	"supercharged/internal/clock"
	"supercharged/internal/core"
	"supercharged/internal/daemon"
	"supercharged/internal/dataplane"
	"supercharged/internal/feed"
	"supercharged/internal/mrt"
)

// Isolated replays: the traced run feeds a workload's recorded input through
// one public function of one layer alone, so a layer's cost can be read
// without the queueing and contention of the whole pipeline around it.

// isolatedRIB measures bgp.RIB on the full-table stream of both peers.
func isolatedRIB(e *env, f *serveFeed, res *result) {
	base := heapInuse()
	rib := bgp.NewRIB()
	var scratch []bgp.Change
	t0 := e.tr.begin()
	for _, p := range []bgp.PeerMeta{backupPeer, preferredPeer} {
		for _, u := range f.upds[p.Addr] {
			scratch = rib.UpdateInto(p, u, scratch[:0])
		}
	}
	e.tr.end("bgp.rib.insert", "isolated", t0, 2*f.routes)
	res.Layer["bgp.rib.insert_ns_per_route"] = e.tr.total("bgp.rib.insert").perUnit()
	clear(scratch)
	res.Layer["bgp.rib.bytes_per_route"] = (heapInuse() - base) / float64(2*f.routes)

	t0 = e.tr.begin()
	scratch = rib.RemovePeerInto(preferredPeer.Addr, scratch[:0])
	e.tr.end("bgp.rib.remove_peer", "isolated", t0, len(scratch))
	res.Layer["bgp.rib.remove_peer_ms"] = e.tr.total("bgp.rib.remove_peer").perCall() / 1e6
}

// isolatedChurnRIB replays one pass of the churn mix over a loaded bgp.RIB.
func isolatedChurnRIB(e *env, st *churnState, res *result) {
	rib := bgp.NewRIB()
	var scratch []bgp.Change
	for _, p := range []bgp.PeerMeta{backupPeer, preferredPeer} {
		for _, u := range st.feed.upds[p.Addr] {
			scratch = rib.UpdateInto(p, u, scratch[:0])
		}
	}
	mix := newChurnMix(st.blocks, e.rng(2))
	routes := 0
	t0 := e.tr.begin()
	for range 2 * len(st.blocks) {
		b, u := mix.next()
		scratch = rib.UpdateInto(preferredPeer, u, scratch[:0])
		routes += st.blocks[b].routes
	}
	e.tr.end("bgp.rib.churn", "isolated", t0, routes)
	res.Layer["bgp.rib.churn_ns_per_route"] = e.tr.total("bgp.rib.churn").perUnit()
}

// isolatedShardedRIB measures daemon.ShardedRIB (8 shards, as daemon.New
// builds it) with an emit that does nothing.
func isolatedShardedRIB(e *env, f *serveFeed, res *result) {
	rib := daemon.NewShardedRIB(8, 0)
	drop := func([]daemon.RouteChange) {}
	t0 := e.tr.begin()
	for _, p := range []bgp.PeerMeta{backupPeer, preferredPeer} {
		for _, u := range f.upds[p.Addr] {
			rib.UpdateEmit(p, u, drop)
		}
	}
	e.tr.end("daemon.rib.update_emit", "isolated", t0, 2*f.routes)
	res.Layer["daemon.rib.update_emit_ns_per_route"] = e.tr.total("daemon.rib.update_emit").perUnit()
	if bare := res.Layer["bgp.rib.insert_ns_per_route"]; bare > 0 {
		res.Layer["daemon.rib.shard_overhead_ratio"] = res.Layer["daemon.rib.update_emit_ns_per_route"] / bare
	}

	t0 = e.tr.begin()
	snap := rib.Snapshot(nil)
	e.tr.end("daemon.rib.snapshot", "isolated", t0, len(snap))
	res.Layer["daemon.rib.snapshot_ms"] = e.tr.total("daemon.rib.snapshot").perCall() / 1e6

	t0 = e.tr.begin()
	n := rib.RemovePeerEmit(preferredPeer.Addr, drop)
	e.tr.end("daemon.rib.remove_peer_emit", "isolated", t0, n)
	res.Layer["daemon.rib.remove_peer_emit_ms"] = e.tr.total("daemon.rib.remove_peer_emit").perCall() / 1e6
}

// isolatedGroups replays the tuples the processor allocated groups for
// through a fresh GroupTable.
func isolatedGroups(e *env, tuples [][]netip.Addr, res *result) {
	if len(tuples) == 0 {
		return
	}
	tbl := core.NewGroupTable(core.NewVNHPool(core.AllocSequential))
	t0 := e.tr.begin()
	for _, nhs := range tuples {
		if _, err := tbl.Ensure(nhs...); err != nil {
			res.check(false, "core-supercharge: isolated GroupTable.Ensure: %v", err)
			return
		}
	}
	e.tr.end("core.groups.ensure", "isolated", t0, len(tuples))
	res.Layer["core.groups.ensure_ns"] = e.tr.total("core.groups.ensure").perUnit()
}

// isolatedLab measures the layers under the lab that the units do not time
// on their own: the LPM trie, the MRT reader and feed bridge, the feed
// generator and the virtual clock.
func isolatedLab(e *env, res *result) {
	t0 := e.tr.begin()
	table := feed.Generate(feed.Config{N: e.sc.labBig, Seed: e.seed})
	e.tr.end("feed.generate", "isolated", t0, table.Len())
	res.Layer["feed.generate_ms_200k"] = e.tr.total("feed.generate").perCall() / 1e6

	t0 = e.tr.begin()
	err := table.StreamUpdates(preferredPeer.AS, preferredPeer.Addr, bgp.Codec{}, func(*bgp.Update) error { return nil })
	e.tr.end("feed.stream_updates", "isolated", t0, table.Len())
	res.check(err == nil, "lab-fig5: isolated StreamUpdates: %v", err)
	res.Layer["feed.stream_updates_ns_per_route"] = e.tr.total("feed.stream_updates").perUnit()

	var lpm dataplane.LPM[int]
	prefixes := table.Prefixes()
	t0 = e.tr.begin()
	for i, p := range prefixes {
		lpm.Insert(p, i)
	}
	e.tr.end("dataplane.lpm.insert", "isolated", t0, len(prefixes))
	res.Layer["dataplane.lpm.insert_ns"] = e.tr.total("dataplane.lpm.insert").perUnit()
	hits := 0
	t0 = e.tr.begin()
	for _, p := range prefixes {
		if _, _, ok := lpm.Lookup(p.Addr()); ok {
			hits++
		}
	}
	e.tr.end("dataplane.lpm.lookup", "isolated", t0, len(prefixes))
	res.check(hits == len(prefixes), "lab-fig5: isolated LPM lookup found %d of %d prefixes", hits, len(prefixes))
	res.Layer["dataplane.lpm.lookup_ns"] = e.tr.total("dataplane.lpm.lookup").perUnit()

	if raw, err := os.ReadFile(risSample()); res.check(err == nil, "lab-fig5: read RIS sample: %v", err) {
		routes := 0
		rd := mrt.NewReader(bytes.NewReader(raw))
		t0 = e.tr.begin()
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				break
			}
			if !res.check(err == nil, "lab-fig5: isolated MRT read: %v", err) {
				break
			}
			if rec.RIB != nil {
				routes += len(rec.RIB.Entries)
			}
		}
		e.tr.end("mrt.read", "isolated", t0, routes)
		if s := e.tr.total("mrt.read"); s.dur > 0 {
			res.Layer["mrt.read_routes_per_s"] = float64(s.n) / s.dur.Seconds()
		}
		t0 = e.tr.begin()
		_, err := feed.FromMRT(bytes.NewReader(raw))
		e.tr.end("feed.from_mrt", "isolated", t0, routes)
		res.check(err == nil, "lab-fig5: isolated FromMRT: %v", err)
		res.Layer["feed.from_mrt_ms"] = e.tr.total("feed.from_mrt").perCall() / 1e6
	}

	clk := clock.NewVirtualAtZero()
	fired := 0
	t0 = e.tr.begin()
	for i := range e.sc.clockTimers {
		clk.AfterFunc(time.Duration(i%1000)*time.Millisecond, func() { fired++ })
	}
	clk.Advance(time.Second)
	e.tr.end("clock.virtual.event", "isolated", t0, e.sc.clockTimers)
	res.check(fired == e.sc.clockTimers, "lab-fig5: virtual clock fired %d of %d timers", fired, e.sc.clockTimers)
	res.Layer["clock.virtual.event_ns"] = e.tr.total("clock.virtual.event").perUnit()
}

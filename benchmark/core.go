package main

import (
	"fmt"
	"net/netip"
	"runtime"
	"slices"
	"time"

	"supercharged/internal/bgp"
	"supercharged/internal/core"
	"supercharged/internal/dataplane"
	"supercharged/internal/feed"
	"supercharged/internal/openflow"
	"supercharged/internal/packet"
)

// core-supercharge: the paper's own path end to end, in one goroutine because
// the Processor is one critical section. Wire bytes in, Listing 1 (backup
// groups, VNH announcements) and Listing 2 (one rule rewrite per group) in
// the middle, wire bytes and switch rules out.

const coreThread = "controller"

var coreCodec = bgp.Codec{ASN4: true}

// corePeer is one upstream peer with its pre-rendered feed.
type corePeer struct {
	meta   bgp.PeerMeta
	port   core.PeerPort
	msgs   [][]byte
	routes int
}

type coreState struct {
	table *feed.Table
	// peers are ordered most preferred first: two full feeds, then four
	// staggered half-table windows, so a prefix is covered by four peers and
	// the (primary, backup) tuple changes several times as the feeds arrive.
	peers  []corePeer
	routes int
}

func coreSetup(e *env) (any, error) {
	st := &coreState{table: feed.Generate(feed.Config{N: e.sc.prefixes, Seed: e.seed})}
	n := st.table.Len()
	for i := range 6 {
		addr := netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)})
		p := corePeer{
			meta: bgp.PeerMeta{Addr: addr, ID: addr, AS: uint32(65001 + i), Weight: uint32(600 - 100*i)},
			port: core.PeerPort{NH: addr, MAC: packet.MAC{0x02, 0, 0, 0, 0, byte(i + 1)}, Port: uint16(i + 1)},
		}
		view := st.table
		if i >= 2 {
			view = st.table.Window((i-2)*n/4, n/2)
		}
		err := view.StreamUpdates(p.meta.AS, addr, coreCodec, func(u *bgp.Update) error {
			wire, err := coreCodec.Marshal(u)
			if err != nil {
				return err
			}
			p.msgs = append(p.msgs, wire)
			p.routes += len(u.NLRI)
			return nil
		})
		if err != nil {
			return nil, err
		}
		st.peers = append(st.peers, p)
		st.routes += p.routes
	}
	// One untimed load, so that the first timed one does not pay for the
	// runtime growing its heap.
	if _, _, err := newCoreRig(e, st).load(st); err != nil {
		return nil, fmt.Errorf("warm-up load: %w", err)
	}
	return st, nil
}

// coreRig is one controller instance: processor, engine and the switch's
// flow table behind an OpenFlow encode/decode.
type coreRig struct {
	e      *env
	proc   *core.Processor
	groups *core.GroupTable
	engine *core.Engine
	table  *dataplane.FlowTable
	tuples [][]netip.Addr
	xid    uint32
	sunk   int // bytes marshalled, so the encoder's output is used
}

func newCoreRig(e *env, st *coreState) *coreRig {
	r := &coreRig{e: e, table: dataplane.NewFlowTable()}
	r.groups = core.NewGroupTable(core.NewVNHPool(core.AllocSequential))
	r.engine = core.NewEngine(r.groups, core.FlowPusherFunc(r.pushRule))
	for _, p := range st.peers {
		r.engine.RegisterPeer(p.port)
	}
	r.proc = core.NewProcessor(nil, r.groups)
	r.proc.OnNewGroup = func(g core.Group) error {
		r.tuples = append(r.tuples, g.NHs)
		return r.engine.InstallGroup(g)
	}
	return r
}

// pushRule is the engine's switch backend: the FLOW_MOD crosses the OpenFlow
// codec in both directions before it reaches the flow table, as it would
// cross the controller-switch connection.
func (r *coreRig) pushRule(g core.Group, target core.PeerPort) error {
	tr := r.e.tr
	fm := &openflow.FlowMod{
		Match:    openflow.MatchDLDst(g.VMAC),
		Command:  openflow.FlowModify,
		Priority: 100,
		BufferID: openflow.BufferNone,
		OutPort:  openflow.PortNone,
		Actions:  []openflow.Action{openflow.ActionSetDLDst(target.MAC), openflow.ActionOutput(target.Port)},
	}
	r.xid++
	t0 := tr.begin()
	wire, err := openflow.Marshal(fm, r.xid)
	tr.end("openflow.flowmod_marshal", coreThread, t0, 1)
	if err != nil {
		return err
	}
	t0 = tr.begin()
	msg, _, err := openflow.Unmarshal(wire)
	tr.end("openflow.flowmod_unmarshal", coreThread, t0, 1)
	if err != nil {
		return err
	}
	got, ok := msg.(*openflow.FlowMod)
	if !ok {
		return fmt.Errorf("benchmark: FLOW_MOD decoded as %T", msg)
	}
	flow := dataplane.Flow{Priority: got.Priority, Match: got.Match.ToDataplane(), Cookie: got.Cookie}
	for _, a := range got.Actions {
		da, err := a.ToDataplane()
		if err != nil {
			return err
		}
		flow.Actions = append(flow.Actions, da)
	}
	t0 = tr.begin()
	r.table.Upsert(flow)
	tr.end("dataplane.flowtable.upsert", coreThread, t0, 1)
	return nil
}

// feed pushes one wire message from a peer through decode, Listing 1 and
// encode. It returns the routes carried in and the UPDATEs sent out.
func (r *coreRig) feed(p *corePeer, wire []byte) (routes, out int, err error) {
	tr := r.e.tr
	t0 := tr.begin()
	msg, err := coreCodec.Unmarshal(wire)
	if err != nil {
		return 0, 0, err
	}
	upd, ok := msg.(*bgp.Update)
	if !ok {
		return 0, 0, fmt.Errorf("benchmark: UPDATE decoded as %T", msg)
	}
	routes = len(upd.NLRI) + len(upd.Withdrawn)
	tr.end("bgp.codec.unmarshal", coreThread, t0, routes)

	t0 = tr.begin()
	outs, err := r.proc.Process(p.meta, upd)
	tr.end("core.proc.process", coreThread, t0, routes)
	if err != nil {
		return routes, 0, err
	}
	if err := r.marshalAll(outs, nil); err != nil {
		return routes, 0, err
	}
	core.RecycleUpdates(outs)
	return routes, len(outs), nil
}

// marshalAll encodes every outgoing UPDATE; each is handed to each afterwards.
// One span covers the batch (a cleanup emits an UPDATE per prefix, and a span
// per message would swamp the trace).
func (r *coreRig) marshalAll(outs []*bgp.Update, each func(u *bgp.Update)) error {
	if len(outs) == 0 {
		return nil
	}
	t0 := r.e.tr.begin()
	defer func() { r.e.tr.end("bgp.codec.marshal", coreThread, t0, len(outs)) }()
	for _, u := range outs {
		wire, err := coreCodec.Marshal(u)
		if err != nil {
			return err
		}
		r.sunk += len(wire)
		if each != nil {
			each(u)
		}
	}
	return nil
}

// load announces all six feeds round-robin, least preferred first.
func (r *coreRig) load(st *coreState) (routes, out int, err error) {
	for i := 0; ; i++ {
		sent := false
		for k := len(st.peers) - 1; k >= 0; k-- {
			p := &st.peers[k]
			if i >= len(p.msgs) {
				continue
			}
			sent = true
			n, o, err := r.feed(p, p.msgs[i])
			if err != nil {
				return routes, out, err
			}
			routes, out = routes+n, out+o
		}
		if !sent {
			return routes, out, nil
		}
	}
}

// checkAdvertised verifies what the router has been told: every prefix is
// announced; with bad set, none of it points at that peer; without, every
// prefix (all are multi-path here) is announced via a virtual next-hop.
func (r *coreRig) checkAdvertised(res *result, st *coreState, what string, bad netip.Addr) {
	missing, plain, dead := 0, 0, 0
	for _, rt := range st.table.Routes {
		nh, virtual, ok := r.proc.Advertised(rt.Prefix)
		switch {
		case !ok:
			missing++
		case !virtual:
			plain++
			if nh == bad {
				dead++
			}
		case bad.IsValid():
			if g, found := r.groups.ByVNH(nh); !found || slices.Contains(g.NHs, bad) {
				dead++
			}
		}
	}
	res.check(missing == 0, "core-supercharge %s: %d prefixes not advertised", what, missing)
	res.check(dead == 0, "core-supercharge %s: %d prefixes still advertised via the dead peer", what, dead)
	if !bad.IsValid() {
		res.check(plain == 0, "core-supercharge %s: %d multi-path prefixes not advertised via a VNH", what, plain)
	}
}

type coreCleanup struct {
	engineUS, procMS, halfMS, cleanupMS float64
	rewrites, updatesOut, routesOut     int
}

// cleanupCycle fails the primary peer: Listing 2's rule rewrite first (that
// is what restores traffic), then the control-plane cleanup the benchmark
// times, then the peer comes back.
func (r *coreRig) cleanupCycle(res *result, st *coreState) (c coreCleanup) {
	tr := r.e.tr
	primary := &st.peers[0]

	// Which rules point at the primary now, and where must they go?
	expect := map[string]core.PeerPort{}
	var affected []core.Group
	for _, g := range r.groups.All() {
		if nh, ok := r.engine.CurrentTarget(g); !ok || nh != primary.meta.Addr {
			continue
		}
		for _, nh := range g.NHs[1:] {
			if i := slices.IndexFunc(st.peers, func(p corePeer) bool { return p.meta.Addr == nh }); i >= 0 && !r.engine.PeerIsDown(nh) {
				expect[g.Key()] = st.peers[i].port
				affected = append(affected, g)
				break
			}
		}
	}

	t0 := time.Now()
	n, err := r.engine.PeerDown(primary.meta.Addr)
	dt := time.Since(t0)
	tr.add("core.engine.peer_down", coreThread, t0, dt, n)
	c.engineUS, c.rewrites = float64(dt)/1e3, n
	res.check(err == nil, "core-supercharge: Engine.PeerDown: %v", err)
	res.check(n == len(affected), "core-supercharge: Engine.PeerDown rewrote %d rules, %d groups targeted the failed peer", n, len(affected))

	// A frame tagged with each affected group's VMAC must now leave the
	// switch toward the group's next live member.
	buf := packet.NewBuffer()
	for _, g := range affected {
		frame, err := packet.UDPFrame(buf, packet.MAC{0x02, 0, 0, 0, 0, 0xfe}, g.VMAC,
			netip.MustParseAddr("198.51.100.1"), netip.MustParseAddr("198.51.100.2"), 4000, 4001, nil)
		if !res.check(err == nil, "core-supercharge: build probe frame: %v", err) {
			continue
		}
		t0 := tr.begin()
		out, ok := r.table.Process(99, frame)
		tr.end("dataplane.flowtable.process", coreThread, t0, 1)
		want := expect[g.Key()]
		good := ok && len(out) == 1 && out[0].Port == want.Port && packet.MAC(out[0].Frame[0:6]) == want.MAC
		res.check(good, "core-supercharge: frame to %s did not leave toward %s after Engine.PeerDown", g.VMAC, want.NH)
	}

	// Timed: remove the peer from the RIB, re-announce every prefix it
	// carried and put every resulting UPDATE on the wire. A collection
	// first, so every cycle starts at the same point of the GC's pacing.
	runtime.GC()
	t0 = time.Now()
	outs, err := r.proc.PeerDown(primary.meta.Addr)
	procDur := time.Since(t0)
	tr.add("core.proc.peer_down", coreThread, t0, procDur, primary.routes)
	res.check(err == nil, "core-supercharge: Processor.PeerDown: %v", err)
	for _, u := range outs {
		c.routesOut += len(u.NLRI) + len(u.Withdrawn)
	}
	sent, half := 0, time.Duration(0)
	err = r.marshalAll(outs, func(u *bgp.Update) {
		before := sent
		sent += len(u.NLRI) + len(u.Withdrawn)
		if mid := (c.routesOut + 1) / 2; before < mid && sent >= mid {
			half = time.Since(t0)
		}
	})
	total := time.Since(t0)
	res.check(err == nil, "core-supercharge: marshal cleanup UPDATEs: %v", err)
	res.check(c.routesOut >= primary.routes, "core-supercharge: cleanup covered %d prefixes, the dead peer carried %d", c.routesOut, primary.routes)
	c.procMS, c.halfMS, c.cleanupMS, c.updatesOut = ms(procDur), ms(half), ms(total), len(outs)
	core.RecycleUpdates(outs)
	r.checkAdvertised(res, st, "after cleanup", primary.meta.Addr)

	// Untimed: the peer returns and re-announces its table.
	for _, wire := range primary.msgs {
		if _, _, err := r.feed(primary, wire); !res.check(err == nil, "core-supercharge: re-announce: %v", err) {
			break
		}
	}
	_, err = r.engine.PeerUp(primary.meta.Addr)
	res.check(err == nil, "core-supercharge: Engine.PeerUp: %v", err)
	return c
}

func coreMeasure(e *env, state any) *result {
	st := state.(*coreState)
	res := newResult(wlCore)
	start := time.Now()
	before := memStats()

	// Fresh loads for two fifths of the time budget, failure cycles on the
	// last load for the rest: a cycle is one sample of the cleanup, and the
	// cleanup is the figure a busy host disturbs most.
	loadBudget := *e
	loadBudget.seconds = 0.4 * e.seconds
	var rig *coreRig
	var loadSecs, heaps []float64
	routesIn, updatesOut := 0, 0
	for n := 0; loadBudget.budget(start, n); n++ {
		rig = nil
		base := heapInuse()
		rig = newCoreRig(e, st)
		t0 := time.Now()
		routes, out, err := rig.load(st)
		dt := time.Since(t0)
		if !res.check(err == nil && routes == st.routes, "core-supercharge: load processed %d of %d routes: %v", routes, st.routes, err) {
			break
		}
		res.Ops += routes
		routesIn, updatesOut = routesIn+routes, updatesOut+out
		loadSecs = append(loadSecs, dt.Seconds())
		rig.checkAdvertised(res, st, "after load", netip.Addr{})
		heaps = append(heaps, (heapInuse()-base)/(1<<20))
		e.logf("  load: %.0f routes/s, %d groups, heap %.1f MB", float64(routes)/dt.Seconds(), rig.groups.Len(), heaps[len(heaps)-1])
	}
	// Every load carries the same routes, so the rate of the lower-quartile
	// load time is the upper-quartile rate.
	if t := lowerQuartileOf(loadSecs); t.V > 0 {
		fast, slow := float64(st.routes)/t.V, float64(st.routes)/(t.V+t.IQR)
		res.Named["core_load_routes_per_s"] = value{V: fast, N: t.N, Stat: "upper quartile", IQR: fast - slow}
	}
	res.Named["core_heap_mb"] = medianOf(heaps)
	if rig == nil || res.Failed > 0 {
		return res
	}
	groupsAfterLoad := rig.groups.Len()
	tuples := rig.tuples

	// The first cycle on a fresh load is checked and counted but not timed:
	// it pays the page faults for the first table-sized burst of UPDATEs.
	var cycles []coreCleanup
	for first := true; first || e.budget(start, len(cycles)); first = false {
		c := rig.cleanupCycle(res, st)
		res.Ops++
		note := ""
		if first {
			note = " (warm-up, discarded)"
		} else {
			cycles = append(cycles, c)
		}
		e.logf("  cleanup: engine %.0f us (%d rewrites), processor %.1f ms, on the wire %.1f ms (half %.1f), %d UPDATEs%s",
			c.engineUS, c.rewrites, c.procMS, c.cleanupMS, c.halfMS, c.updatesOut, note)
	}
	t0 := time.Now()
	_, err := rig.engine.Resync()
	resync := time.Since(t0)
	e.tr.add("core.engine.resync", coreThread, t0, resync, rig.groups.Len())
	res.check(err == nil, "core-supercharge: Engine.Resync: %v", err)
	after := memStats()
	res.Wall = time.Since(start)

	col := func(get func(coreCleanup) float64) value { return medianOf(column(cycles, get)) }
	fast := func(get func(coreCleanup) float64) value { return lowerQuartileOf(column(cycles, get)) }
	res.Named["core_cleanup_half_ms"] = fast(func(c coreCleanup) float64 { return c.halfMS })
	res.Named["core_cleanup_ms"] = fast(func(c coreCleanup) float64 { return c.cleanupMS })

	res.Layer["core.proc.peer_down_ms"] = col(func(c coreCleanup) float64 { return c.procMS }).V
	res.Layer["core.proc.cleanup_updates_out"] = col(func(c coreCleanup) float64 { return float64(c.updatesOut) }).V
	res.Layer["core.proc.cleanup_routes_per_update"] = col(func(c coreCleanup) float64 { return float64(c.routesOut) / float64(max(c.updatesOut, 1)) }).V
	res.Layer["core.engine.peer_down_us"] = col(func(c coreCleanup) float64 { return c.engineUS }).V
	res.Layer["core.engine.rewrites"] = col(func(c coreCleanup) float64 { return float64(c.rewrites) }).V
	res.Layer["core.engine.resync_us"] = float64(resync) / 1e3
	res.Layer["core.groups.count"] = float64(groupsAfterLoad)
	res.Layer["core.proc.updates_out_per_kroute"] = 1000 * float64(updatesOut) / float64(routesIn)
	if tr := e.tr; tr != nil {
		res.Layer["bgp.codec.unmarshal_ns_per_route"] = tr.total("bgp.codec.unmarshal").perUnit()
		res.Layer["bgp.codec.marshal_ns_per_msg"] = tr.total("bgp.codec.marshal").perUnit()
		res.Layer["core.proc.process_ns_per_route"] = tr.total("core.proc.process").perUnit()
		res.Layer["openflow.flowmod_marshal_ns"] = tr.total("openflow.flowmod_marshal").perCall()
		res.Layer["openflow.flowmod_unmarshal_ns"] = tr.total("openflow.flowmod_unmarshal").perCall()
		res.Layer["dataplane.flowtable.upsert_ns"] = tr.total("dataplane.flowtable.upsert").perCall()
		res.Layer["dataplane.flowtable.process_ns_per_frame"] = tr.total("dataplane.flowtable.process").perCall()
		isolatedGroups(e, tuples, res)
	}
	res.runtimeLayer(before, after, routesIn)
	return res
}

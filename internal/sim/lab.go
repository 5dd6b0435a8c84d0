package sim

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"time"

	"supercharged/internal/bgp"
	"supercharged/internal/core"
	"supercharged/internal/dataplane"
	"supercharged/internal/packet"
)

// routerPortOnSwitch is the switch port facing R1.
const routerPortOnSwitch uint16 = 1

// setup populates the pre-failure steady state for every router: feeds
// loaded into its table, best paths selected, FIB installed, and — on
// supercharged routers — backup-groups allocated, VNHs announced, ARP
// resolved and switch rules installed. Setup is not part of the measured
// experiment, so table loads are synchronous. Feeds stream one UPDATE at
// a time (feed.Table.StreamUpdates) through the router's reused change
// buffer, so a 1M-prefix load never holds a per-peer rendered table in
// memory.
func (l *lab) setup(ctx context.Context) error {
	cfg := l.cfg
	if cfg.Mode != Standalone && cfg.Mode != Supercharged {
		return fmt.Errorf("sim: unknown mode %d", cfg.Mode)
	}
	codec := bgp.Codec{ASN4: true}
	for _, r := range l.routers {
		r.fib = dataplane.NewFlatFIB(l.clk, cfg.PerEntry)
		r.fib.Reserve(cfg.NumPrefixes)
		r.rib = bgp.NewRIBSized(cfg.NumPrefixes)
		if r.supercharged {
			l.supercharge(r)
		}
		ops := make([]dataplane.FIBOp, 0, cfg.NumPrefixes)
		for _, prov := range l.providers {
			ops = ops[:0]
			err := prov.feed.StreamUpdates(prov.as, prov.nh, codec, func(u *bgp.Update) error {
				var err error
				ops, err = l.loadOps(r, r.update(prov.meta, u), ops)
				return err
			})
			if err != nil {
				return err
			}
			r.fib.LoadSync(ops)
			l.traceFeedIngest(prov, prov.feed.Len())
		}
		r.fib.OnApplied = func(op dataplane.FIBOp, at time.Time) { l.onFIBApplied(r, op, at) }
		if r.supercharged {
			// Setup-phase rule installs happen synchronously; drain them
			// now so they are in place before traffic starts.
			if _, err := l.clk.Drive(ctx, 1_000_000); err != nil {
				return fmt.Errorf("sim: setup cancelled: %w", err)
			}
		}
	}
	return nil
}

// supercharge interposes the controller in front of the router: a
// processor reacting to the router's table, the engine installing one
// switch rule per backup-group, and the ARP responder through which the
// router resolves VNH announcements to VMAC-tagged FIB entries.
func (l *lab) supercharge(r *router) {
	cfg := l.cfg
	groups := core.NewGroupTable(core.NewVNHPool(core.AllocSequential))
	r.flows = dataplane.NewFlowTable()
	r.arp = core.NewARPResponder(groups)
	r.engine = core.NewEngine(groups, core.FlowPusherFunc(func(g core.Group, target core.PeerPort) error {
		return l.pushRule(r, g, target)
	}))
	for _, prov := range l.providers {
		r.engine.RegisterPeer(core.PeerPort{NH: prov.nh, MAC: prov.mac, Port: prov.port})
	}
	r.proc = core.NewProcessor(r.rib, groups)
	r.proc.GroupSize = cfg.GroupSize
	r.proc.OnNewGroup = r.engine.InstallGroup
	r.proc.Reserve(cfg.NumPrefixes)
	l.wireCoreMetrics(r)
}

// update applies one UPDATE from a peer to the router's table. The
// returned changes live in the router's buffer until its next update.
func (r *router) update(meta bgp.PeerMeta, u *bgp.Update) []bgp.Change {
	r.changes = r.rib.UpdateInto(meta, u, r.changes[:0])
	return r.changes
}

// loadOps appends the FIB ops one setup UPDATE's changes install: a
// vanilla router programs them itself, a supercharged router what its
// controller announces.
func (l *lab) loadOps(r *router, changes []bgp.Change, ops []dataplane.FIBOp) ([]dataplane.FIBOp, error) {
	if !r.supercharged {
		return l.fibOps(ops, changes), nil
	}
	out, err := r.proc.React(changes)
	if err != nil {
		return ops, err
	}
	ops = l.routerApply(r, ops, out)
	core.RecycleUpdates(out)
	return ops, nil
}

// routerApply models a supercharged router's control plane receiving
// UPDATEs from the controller: resolve the announced next-hop to a MAC
// (via ARP: VNH→VMAC, or a real peer's MAC) and append the FIB ops to ops.
func (l *lab) routerApply(r *router, ops []dataplane.FIBOp, updates []*bgp.Update) []dataplane.FIBOp {
	// Room for every op up front: a peer's cleanup hands over a
	// table-sized batch, which append would grow through its doublings.
	n := 0
	for _, u := range updates {
		n += len(u.Withdrawn) + len(u.NLRI)
	}
	ops = slices.Grow(ops, n)
	for _, u := range updates {
		for _, w := range u.Withdrawn {
			ops = append(ops, dataplane.FIBOp{Prefix: w, Delete: true})
		}
		if u.Attrs == nil {
			continue
		}
		mac, ok := l.resolveNH(r, u.Attrs.NextHop)
		if !ok {
			continue // unresolvable next-hop: router keeps the route in RIB only
		}
		for _, p := range u.NLRI {
			ops = append(ops, dataplane.FIBOp{
				Prefix: p,
				NH:     dataplane.L2NH{MAC: mac, Port: int(routerPortOnSwitch)},
			})
		}
	}
	return ops
}

// resolveNH is the router's ARP step: virtual next-hops answered by the
// controller's responder, real peers by their own MAC.
func (l *lab) resolveNH(r *router, nh netip.Addr) (packet.MAC, bool) {
	if r.arp != nil {
		if vmac, ok := r.arp.Lookup(nh); ok {
			return vmac, true
		}
	}
	if prov, ok := l.providerByNH(nh); ok {
		return prov.mac, true
	}
	return packet.MAC{}, false
}

func (l *lab) providerByNH(nh netip.Addr) (*provider, bool) {
	for _, p := range l.providers {
		if p.nh == nh {
			return p, true
		}
	}
	return nil, false
}

// hasSupercharged reports whether any router is SDN-assisted — i.e.
// whether a controller exists in this deployment at all.
func (l *lab) hasSupercharged() bool {
	for _, r := range l.routers {
		if r.supercharged {
			return true
		}
	}
	return false
}

// mixedDeployment reports whether the run mixes supercharged and vanilla
// routers — the partial-deployment regime whose reports carry per-class
// breakdowns.
func (l *lab) mixedDeployment() bool {
	vanilla := false
	for _, r := range l.routers {
		if !r.supercharged {
			vanilla = true
		}
	}
	return vanilla && l.hasSupercharged()
}

// afterCost defers fn by the controller's processing tax. A zero tax runs
// fn inline — never through a zero-delay timer, which would reorder
// same-instant events and break byte-identity with the free-controller
// model.
func (l *lab) afterCost(tax time.Duration, fn func()) {
	if tax <= 0 {
		fn()
		return
	}
	l.traceControllerCost(tax)
	l.clk.AfterFunc(tax, fn)
}

// pushRule is the engine's FlowPusher: controller reaction plus switch
// programming latency (plus the per-rule cost tax), then the rule lands in
// the router's flow table. During setup (before traffic) the same path is
// used but the virtual clock drains it immediately. The in-flight window
// is tracked in l.pending so replica failover can replay or drop it.
func (l *lab) pushRule(r *router, g core.Group, target core.PeerPort) error {
	delay := l.cfg.ControllerReact + l.cfg.FlowModLatency + l.cfg.Cost.PerRule
	l.traceRuleInstall(delay)
	p := &pendingRule{at: l.clk.Now().Add(delay)}
	p.fire = func() {
		l.unpend(p)
		r.flows.Upsert(dataplane.Flow{
			Priority: 100,
			Match:    dataplane.MatchDstMAC(g.VMAC),
			Actions:  []dataplane.Action{dataplane.SetDstMAC(target.MAC), dataplane.Output(target.Port)},
		})
		l.reevaluateAllProbes()
	}
	p.timer = l.clk.AfterFunc(delay, p.fire)
	l.pending = append(l.pending, p)
	return nil
}

// unpend removes one in-flight FLOW_MOD from the pending list,
// preserving issue order for the remainder.
func (l *lab) unpend(p *pendingRule) {
	for i, q := range l.pending {
		if q == p {
			l.pending = append(l.pending[:i], l.pending[i+1:]...)
			return
		}
	}
}

// stopPending drops every in-flight FLOW_MOD — the dead primary's
// unacknowledged batch, lost with it.
func (l *lab) stopPending() {
	for _, p := range l.pending {
		p.timer.Stop()
	}
	l.pending = nil
}

// rearmPending replays the in-flight batch from the standby: each rule
// lands no earlier than the takeover completes and no earlier than its
// original schedule, in issue order.
func (l *lab) rearmPending(until time.Time) {
	for _, p := range l.pending {
		p.timer.Stop()
		at := p.at
		if at.Before(until) {
			at = until
		}
		p.timer = l.clk.AfterFunc(at.Sub(l.clk.Now()), p.fire)
	}
}

// setupProbes selects the probe prefixes (paper: 100 random prefixes
// including the first and last advertised), initializes their state and
// has each probe's router FIB watch its prefix.
// With several routers the flows are dealt round-robin across them in
// sample order, so every class carries probes.
func (l *lab) setupProbes() {
	for i, pfx := range l.table.SamplePrefixes(l.cfg.NumFlows, l.cfg.Seed+7) {
		pr := &probe{
			prefix: pfx,
			rtr:    l.routers[i%len(l.routers)],
			phase:  time.Duration(l.rng.Int63n(int64(l.cfg.ProbeInterval))),
		}
		pr.working = l.pathWorks(pr.rtr, pfx)
		pr.rtr.fib.Watch(pfx)
		l.probes[pfx] = pr
	}
}

// pathWorks walks a probe's forwarding path through its router's real
// tables: router FIB → (switch flow table if VMAC-tagged) → provider link
// state.
func (l *lab) pathWorks(r *router, pfx netip.Prefix) bool {
	nh, ok := r.fib.Get(pfx)
	if !ok {
		return false
	}
	mac := nh.MAC
	if r.flows != nil {
		if prov, direct := l.targets[mac]; direct {
			return prov.forwarding() && !prov.withdrawn[pfx]
		}
		// VMAC: resolve through the switch table.
		eth := &packet.Ethernet{Dst: mac, Type: packet.EtherTypeIPv4}
		flow := r.flows.Lookup(routerPortOnSwitch, eth)
		if flow == nil {
			return false
		}
		for _, a := range flow.Actions {
			if a.Type == dataplane.ActionSetDstMAC {
				mac = a.MAC
			}
		}
	}
	prov, ok := l.targets[mac]
	return ok && prov.forwarding() && !prov.withdrawn[pfx]
}

// --- failure sequence ---

// linkDown cuts the physical link: probes through this provider black-hole
// immediately, before any detection or reaction.
func (l *lab) linkDown(prov *provider) {
	prov.up = false
	now := l.clk.Now()
	for _, pr := range l.probes {
		if pr.working && !l.pathWorks(pr.rtr, pr.prefix) {
			pr.working = false
			pr.open(now)
		}
	}
}

// reactToFailure dispatches the post-detection convergence pipeline on
// every router: each converges through its own class's path.
func (l *lab) reactToFailure(prov *provider) {
	for _, r := range l.routers {
		if r.supercharged {
			l.superchargedReact(r, prov)
		} else {
			l.standaloneReact(r, prov)
		}
	}
}

// ctlDelay draws one router's control-plane delay: RouterCtl plus the
// per-reaction jitter from that router's own stream.
func (l *lab) ctlDelay(r *router) time.Duration {
	ctl := l.cfg.RouterCtl
	if l.cfg.RouterCtlJitter > 0 {
		ctl += time.Duration(r.rng.Int63n(int64(l.cfg.RouterCtlJitter)))
	}
	return ctl
}

// afterRouterCtl schedules fn after the router's control-plane delay,
// preserving FIFO order across batches: BGP messages ride one TCP
// session, so a batch emitted later must not overtake an earlier one,
// however their independent jitter draws land. Without this floor a
// withdraw burst could be applied after the re-announcement that
// superseded it, deleting routes forever (the fuzzer found exactly that
// interleaving).
func (l *lab) afterRouterCtl(r *router, fn func()) {
	at := l.clk.Now().Add(l.ctlDelay(r))
	if at.Before(r.routerCtlFIFO) {
		at = r.routerCtlFIFO
	}
	r.routerCtlFIFO = at
	l.clk.AfterFunc(at.Sub(l.clk.Now()), fn)
}

// controllerDelay is how long until the controller can react: zero
// normally, the remaining restart/takeover window while it is down.
func (l *lab) controllerDelay() time.Duration {
	if l.ctrlDownUntil.IsZero() {
		return 0
	}
	if d := l.ctrlDownUntil.Sub(l.clk.Now()); d > 0 {
		return d
	}
	return 0
}

// enqueueFIBChanges converts a vanilla router's RIB changes into FIB ops
// and enqueues them in table-walk order — the hardware rewrites entries
// one by one.
func (l *lab) enqueueFIBChanges(r *router, changes []bgp.Change) {
	r.fib.EnqueueWalkOrder(l.fibOps(make([]dataplane.FIBOp, 0, len(changes)), changes))
}

// fibOps appends the FIB op each change calls for on a vanilla router:
// the new best path's provider MAC, or a delete.
func (l *lab) fibOps(ops []dataplane.FIBOp, changes []bgp.Change) []dataplane.FIBOp {
	for _, ch := range changes {
		if len(ch.New) == 0 {
			ops = append(ops, dataplane.FIBOp{Prefix: ch.Prefix, Delete: true})
			continue
		}
		target, ok := l.providerByNH(ch.New[0].NextHop())
		if !ok {
			continue
		}
		ops = append(ops, dataplane.FIBOp{
			Prefix: ch.Prefix,
			NH:     dataplane.L2NH{MAC: target.mac, Port: int(routerPortOnSwitch)},
		})
	}
	return ops
}

// standaloneReact is the vanilla router's convergence: after its control
// plane digests the failure (RouterCtl + jitter), it rewrites every FIB
// entry one by one in table-walk order — the linear process of Fig. 5.
func (l *lab) standaloneReact(r *router, prov *provider) {
	start := l.clk.Now()
	l.afterRouterCtl(r, func() {
		l.traceRouterCtl(start)
		l.enqueueFIBChanges(r, r.rib.RemovePeer(prov.nh))
	})
}

// superchargedReact is Listing 2: the controller rewrites the affected
// backup-group rules (constant count), restoring the data plane; the
// router's own BGP/FIB cleanup then proceeds in the background without
// traffic impact. The reaction pays the controller's Base cost tax, and
// is dropped entirely once the last replica is gone (installed rules keep
// forwarding — fail-standalone).
func (l *lab) superchargedReact(r *router, prov *provider) {
	if l.ctrlDead {
		return
	}
	l.clk.AfterFunc(l.controllerDelay(), func() {
		if l.ctrlDead {
			return
		}
		l.afterCost(l.cfg.Cost.Base, func() {
			n, err := r.engine.PeerDown(prov.nh)
			if err != nil {
				panic(fmt.Sprintf("sim: engine.PeerDown: %v", err))
			}
			l.traceCtlNotified(prov, n)
			// Control-plane cleanup toward the router (unmeasured but real):
			// the processor withdraws/re-announces, the router walks its FIB.
			updates, err := r.proc.React(r.rib.RemovePeer(prov.nh))
			if err != nil {
				panic(fmt.Sprintf("sim: processor.React: %v", err))
			}
			ctlStart := l.clk.Now()
			l.afterRouterCtl(r, func() {
				l.traceRouterCtl(ctlStart)
				r.fib.EnqueueWalkOrder(l.routerApply(r, nil, updates))
				core.RecycleUpdates(updates)
			})
		})
	})
}

// onFIBApplied re-evaluates the touched prefix's probe when a router's
// serialized updater installs an entry. Each router's FIB watches only
// the probes that enter through it (setupProbes), so it reports nothing
// else.
func (l *lab) onFIBApplied(r *router, op dataplane.FIBOp, at time.Time) {
	if pr, ok := l.probes[op.Prefix.Masked()]; ok && pr.rtr == r {
		l.reevaluateProbe(pr, at)
	}
}

func (l *lab) reevaluateAllProbes() {
	now := l.clk.Now()
	for _, pr := range l.probes {
		l.reevaluateProbe(pr, now)
	}
}

func (l *lab) reevaluateProbe(pr *probe, at time.Time) {
	works := l.pathWorks(pr.rtr, pr.prefix)
	switch {
	case !pr.working && works:
		pr.working = true
		pr.closeAt(at)
	case pr.working && !works:
		pr.working = false
		pr.open(at)
	}
}

// Package router models the legacy edge router the paper supercharges
// (their Cisco Nexus 7k "R1", NX-OS, no hierarchical FIB): a BGP speaker
// with per-neighbor preferences, ARP resolution of next-hops, and a flat
// FIB whose hardware updater installs entries strictly one at a time. The
// router is deliberately unaware of the supercharger — it just peers with
// whatever speaks BGP at it and resolves whatever next-hop it learns,
// which is exactly the property the paper exploits.
package router

import (
	"fmt"
	"net"
	"net/netip"
	"sort"
	"sync"
	"time"

	"supercharged/internal/bgp"
	"supercharged/internal/clock"
	"supercharged/internal/dataplane"
	"supercharged/internal/netem"
	"supercharged/internal/packet"
)

// NeighborConfig is one BGP neighbor of the router.
type NeighborConfig struct {
	Addr netip.Addr
	AS   uint32
	// Weight implements the paper's "R1 is configured to prefer R2":
	// highest weight wins the decision process.
	Weight uint32
	// Dial actively connects to the neighbor (the usual arrangement in
	// the test-bed: the router dials the controller or the providers).
	Dial func() (net.Conn, error)
	// HoldTime overrides the session hold time.
	HoldTime time.Duration
}

// Config configures the router.
type Config struct {
	AS       uint32
	RouterID netip.Addr
	// IfIP and IfMAC are the router's single data-plane interface (the
	// link into the SDN switch in Fig. 4).
	IfIP  netip.Addr
	IfMAC packet.MAC
	// Port is the data-plane attachment.
	Port *netem.Port
	// PerEntry is the flat FIB's per-entry install cost (the Nexus 7k's
	// ≈280 µs; small values keep real-mode tests fast).
	PerEntry time.Duration
	// ARPTimeout bounds next-hop resolution attempts.
	ARPTimeout time.Duration
	Neighbors  []NeighborConfig
	Clock      clock.Clock
	Logf       func(format string, args ...any)
}

// Router is the device.
type Router struct {
	cfg Config
	rib *bgp.RIB
	fib *dataplane.FlatFIB

	mu       sync.Mutex
	sessions map[netip.Addr]*bgp.Session
	arpCache map[netip.Addr]packet.MAC
	// pendingARP queues FIB operations waiting on next-hop resolution.
	pendingARP map[netip.Addr][]dataplane.FIBOp
	arpTimers  map[netip.Addr]clock.Timer
	stopped    bool

	buf *packet.Buffer

	// Drops counts data-plane packets dropped for lack of a route or
	// unresolved next-hop.
	drops uint64
}

// New builds the router; Start brings up sessions and the data plane.
func New(cfg Config) *Router {
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.ARPTimeout == 0 {
		cfg.ARPTimeout = 2 * time.Second
	}
	return &Router{
		cfg:        cfg,
		rib:        bgp.NewRIB(),
		fib:        dataplane.NewFlatFIB(cfg.Clock, cfg.PerEntry),
		sessions:   make(map[netip.Addr]*bgp.Session),
		arpCache:   make(map[netip.Addr]packet.MAC),
		pendingARP: make(map[netip.Addr][]dataplane.FIBOp),
		arpTimers:  make(map[netip.Addr]clock.Timer),
		buf:        packet.NewBuffer(),
	}
}

// FIB exposes the router's forwarding table (tests, ops).
func (r *Router) FIB() *dataplane.FlatFIB { return r.fib }

// RIB exposes the router's BGP table.
func (r *Router) RIB() *bgp.RIB { return r.rib }

// Drops returns the count of data-plane drops.
func (r *Router) Drops() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.drops
}

// Session returns the BGP session to the given neighbor.
func (r *Router) Session(addr netip.Addr) (*bgp.Session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[addr]
	return s, ok
}

// Start attaches the data plane and brings up every neighbor session.
func (r *Router) Start() {
	if r.cfg.Port != nil {
		r.cfg.Port.Handle(r.handleFrame)
	}
	for _, nb := range r.cfg.Neighbors {
		nb := nb
		meta := bgp.PeerMeta{Addr: nb.Addr, AS: nb.AS, ID: nb.Addr, Weight: nb.Weight}
		sess := bgp.NewSession(bgp.SessionConfig{
			LocalAS:  r.cfg.AS,
			LocalID:  r.cfg.RouterID,
			PeerAS:   nb.AS,
			PeerAddr: nb.Addr,
			HoldTime: nb.HoldTime,
			Dial:     nb.Dial,
			Clock:    r.cfg.Clock,
			Logf:     r.cfg.Logf,
			OnUpdate: func(u *bgp.Update) { r.applyUpdate(meta, u) },
			OnDown:   func(error) { r.PeerDown(nb.Addr) },
		})
		r.mu.Lock()
		r.sessions[nb.Addr] = sess
		r.mu.Unlock()
		sess.Start()
	}
}

// Stop tears the router down.
func (r *Router) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	sessions := make([]*bgp.Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		sessions = append(sessions, s)
	}
	for _, t := range r.arpTimers {
		t.Stop()
	}
	r.mu.Unlock()
	for _, s := range sessions {
		s.Stop()
	}
}

// Accept hands a passive transport connection to the session for the given
// neighbor (used when the neighbor dials us).
func (r *Router) Accept(addr netip.Addr, conn net.Conn) error {
	r.mu.Lock()
	sess, ok := r.sessions[addr]
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("router: no neighbor %v", addr)
	}
	go sess.Accept(conn)
	return nil
}

// PeerDown withdraws everything learned from a neighbor and starts the
// (slow) FIB walk — the standalone convergence path. External failure
// detectors (BFD) call this directly; session loss calls it automatically.
func (r *Router) PeerDown(addr netip.Addr) {
	changes := r.rib.RemovePeer(addr)
	r.enqueueChanges(changes)
	r.cfg.Logf("router: peer %v down, %d prefixes affected", addr, len(changes))
}

// applyUpdate runs one received UPDATE through the RIB and schedules the
// resulting FIB work.
func (r *Router) applyUpdate(meta bgp.PeerMeta, u *bgp.Update) {
	r.enqueueChanges(r.rib.Update(meta, u))
}

// enqueueChanges turns RIB changes into FIB operations, resolving
// next-hops through ARP. Ops are enqueued in FIB walk order, preserving
// the paper's entry-by-entry serialization.
func (r *Router) enqueueChanges(changes []bgp.Change) {
	type pending struct {
		pos int
		op  dataplane.FIBOp
		nh  netip.Addr // unresolved next-hop, if any
	}
	items := make([]pending, 0, len(changes))
	r.mu.Lock()
	for _, ch := range changes {
		if len(ch.New) == 0 {
			pos, _ := r.fib.Position(ch.Prefix)
			items = append(items, pending{pos: pos, op: dataplane.FIBOp{Prefix: ch.Prefix, Delete: true}})
			continue
		}
		nh := ch.New[0].NextHop()
		pos, known := r.fib.Position(ch.Prefix)
		if !known {
			pos = int(^uint(0) >> 1) // new prefixes append at the end
		}
		if mac, ok := r.arpCache[nh]; ok {
			items = append(items, pending{pos: pos, op: dataplane.FIBOp{
				Prefix: ch.Prefix, NH: dataplane.L2NH{MAC: mac, Port: 0},
			}})
		} else {
			items = append(items, pending{pos: pos, op: dataplane.FIBOp{Prefix: ch.Prefix}, nh: nh})
		}
	}
	r.mu.Unlock()

	sort.SliceStable(items, func(i, j int) bool { return items[i].pos < items[j].pos })

	var ready []dataplane.FIBOp
	for _, it := range items {
		if it.nh.IsValid() {
			r.queueForARP(it.nh, it.op)
			continue
		}
		ready = append(ready, it.op)
	}
	if len(ready) > 0 {
		r.fib.Enqueue(ready...)
	}
}

// queueForARP parks an op until the next-hop resolves, kicking off an ARP
// request if none is in flight.
func (r *Router) queueForARP(nh netip.Addr, op dataplane.FIBOp) {
	r.mu.Lock()
	first := len(r.pendingARP[nh]) == 0
	r.pendingARP[nh] = append(r.pendingARP[nh], op)
	r.mu.Unlock()
	if first {
		r.sendARPRequest(nh)
	}
}

func (r *Router) sendARPRequest(nh netip.Addr) {
	if r.cfg.Port == nil {
		return
	}
	frame, err := packet.ARPRequestFrame(packet.NewBuffer(), r.cfg.IfMAC, r.cfg.IfIP, nh)
	if err != nil {
		r.cfg.Logf("router: arp request: %v", err)
		return
	}
	r.cfg.Port.Send(frame)
	// Retry until resolved or timeout.
	r.mu.Lock()
	if t, ok := r.arpTimers[nh]; ok {
		t.Stop()
	}
	deadline := r.cfg.Clock.Now().Add(r.cfg.ARPTimeout)
	var retry func()
	retry = func() {
		r.mu.Lock()
		_, resolved := r.arpCache[nh]
		waiting := len(r.pendingARP[nh])
		stopped := r.stopped
		r.mu.Unlock()
		if resolved || waiting == 0 || stopped || r.cfg.Clock.Now().After(deadline) {
			return
		}
		frame, err := packet.ARPRequestFrame(packet.NewBuffer(), r.cfg.IfMAC, r.cfg.IfIP, nh)
		if err == nil {
			r.cfg.Port.Send(frame)
		}
		r.mu.Lock()
		if !r.stopped {
			r.arpTimers[nh] = r.cfg.Clock.AfterFunc(100*time.Millisecond, retry)
		}
		r.mu.Unlock()
	}
	if !r.stopped {
		r.arpTimers[nh] = r.cfg.Clock.AfterFunc(100*time.Millisecond, retry)
	}
	r.mu.Unlock()
}

// handleFrame is the data plane: ARP processing plus LPM forwarding with
// L2 rewrite.
func (r *Router) handleFrame(frame []byte) {
	var eth packet.Ethernet
	if err := eth.DecodeFromBytes(frame); err != nil {
		return
	}
	switch eth.Type {
	case packet.EtherTypeARP:
		r.handleARP(eth)
	case packet.EtherTypeIPv4:
		if eth.Dst != r.cfg.IfMAC && !eth.Dst.IsBroadcast() {
			return // not for us
		}
		r.forward(eth)
	}
}

func (r *Router) handleARP(eth packet.Ethernet) {
	var arp packet.ARP
	if err := arp.DecodeFromBytes(eth.Payload); err != nil {
		return
	}
	switch arp.Op {
	case packet.ARPRequest:
		if arp.TargetIP == r.cfg.IfIP {
			reply, err := packet.ARPReplyFrame(packet.NewBuffer(), r.cfg.IfMAC, r.cfg.IfIP, arp)
			if err == nil {
				r.cfg.Port.Send(reply)
			}
		}
	case packet.ARPReply:
		r.learnARP(arp.SenderIP, arp.SenderHW)
	}
}

// learnARP caches a resolution and flushes parked FIB operations. An op
// whose prefix no longer has its best path via ip is dropped: a newer
// change moved the prefix while this one waited, and its op (enqueued or
// parked elsewhere) must not be overwritten by the stale one.
func (r *Router) learnARP(ip netip.Addr, mac packet.MAC) {
	r.mu.Lock()
	r.arpCache[ip] = mac
	parked := r.pendingARP[ip]
	delete(r.pendingARP, ip)
	if t, ok := r.arpTimers[ip]; ok {
		t.Stop()
		delete(r.arpTimers, ip)
	}
	r.mu.Unlock()
	current := parked[:0]
	for _, op := range parked {
		if best, ok := r.rib.Best(op.Prefix); ok && best.NextHop() == ip {
			op.NH = dataplane.L2NH{MAC: mac, Port: 0}
			current = append(current, op)
		}
	}
	if len(current) > 0 {
		r.fib.Enqueue(current...)
	}
}

// forward performs the LPM lookup and L2 rewrite.
func (r *Router) forward(eth packet.Ethernet) {
	var ip packet.IPv4
	if err := ip.DecodeFromBytes(eth.Payload); err != nil {
		return
	}
	nh, _, ok := r.fib.Lookup(ip.Dst)
	if !ok {
		r.mu.Lock()
		r.drops++
		r.mu.Unlock()
		return
	}
	if ip.TTL <= 1 {
		return
	}
	// Rewrite on a copy: dst MAC = next-hop record, src = ours, TTL
	// decrement, header checksum recomputed.
	out := make([]byte, len(eth.Payload)+packet.EthernetHeaderLen)
	copy(out[0:6], nh.MAC[:])
	copy(out[6:12], r.cfg.IfMAC[:])
	out[12] = byte(packet.EtherTypeIPv4 >> 8)
	out[13] = byte(packet.EtherTypeIPv4 & 0xff)
	copy(out[14:], eth.Payload)
	out[14+8]-- // TTL
	ihl := int(out[14]&0x0f) * 4
	out[14+10], out[14+11] = 0, 0
	sum := packet.Checksum(out[14 : 14+ihl])
	out[14+10], out[14+11] = byte(sum>>8), byte(sum&0xff)
	r.cfg.Port.Send(out)
}

// ARPCacheLen returns the number of resolved next-hops (tests, ops).
func (r *Router) ARPCacheLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.arpCache)
}

package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"sync"
	"time"

	"supercharged/internal/bfd"
	"supercharged/internal/bgp"
	"supercharged/internal/clock"
	"supercharged/internal/openflow"
	"supercharged/internal/packet"
	"supercharged/internal/telemetry"
)

// PeerConfig describes one of the supercharged router's (former) BGP
// peers, now terminated on the controller.
type PeerConfig struct {
	Addr netip.Addr
	AS   uint32
	// MAC and SwitchPort locate the peer in the data plane.
	MAC        packet.MAC
	SwitchPort uint16
	// Weight expresses the router's preference (the paper's "prefer R2").
	Weight uint32
	// Dial connects the BGP session to the peer (nil = passive; hand
	// connections to AcceptPeer).
	Dial func() (net.Conn, error)
	// BFD optionally enables failure detection to this peer. When nil,
	// failures must be signaled via Controller.PeerDown.
	BFD *BFDConfig
}

// BFDConfig enables BFD-based detection for a peer.
type BFDConfig struct {
	LocalDiscr uint32
	TxInterval time.Duration
	DetectMult uint8
	Transport  bfd.Transport
}

// RouterConfig describes the session toward the supercharged router.
type RouterConfig struct {
	Addr netip.Addr
	AS   uint32
	// MAC and SwitchPort locate the router in the data plane (for the
	// static L2 rules on the switch).
	MAC        packet.MAC
	SwitchPort uint16
	// Dial connects to the router (nil = passive via AcceptRouter).
	Dial func() (net.Conn, error)
}

// ControllerConfig assembles the full supercharger.
type ControllerConfig struct {
	LocalAS  uint32
	RouterID netip.Addr
	Peers    []PeerConfig
	Router   RouterConfig
	// SwitchDPID identifies the SDN switch to program.
	SwitchDPID uint64
	// AllocMode selects VNH allocation (deterministic recommended for
	// replicated deployments, §3).
	AllocMode AllocMode
	// GroupSize is the backup-group size k (default 2).
	GroupSize int
	// FlowPriority for backup-group rules (static L2 rules use
	// FlowPriority-50).
	FlowPriority uint16
	// Clock schedules every controller timer (BFD transmit/detect, BGP
	// keepalives). Any clock.Clock satisfies it, so the same controller
	// runs under the lab's virtual clock, the paced wall source, or the
	// system clock (the nil default).
	Clock clock.Clock
	Logf  func(format string, args ...any)
	// Telemetry, if set, registers the controller's metric series
	// (processor, engine, BFD, router session) on the registry and makes
	// OpsHandler serve /metrics. Nil (the default) compiles every hook
	// to a no-op sink.
	Telemetry *telemetry.Registry
}

// Controller is the deployable supercharger: §3's prototype (ExaBGP +
// FreeBFD + Floodlight) as one Go process.
type Controller struct {
	cfg ControllerConfig

	groups *GroupTable
	proc   *Processor
	engine *Engine
	arp    *ARPResponder
	ofc    *openflow.Controller

	bfdMetrics      *bfd.Metrics
	updatesToRouter *telemetry.Counter

	// routerMu spans each reaction and the queueing of its UPDATEs, so
	// reactions on different peer sessions reach the router in the order
	// the processor made them. Without it a prefix's older announcement
	// could land after its newer one and stay there.
	routerMu sync.Mutex

	mu          sync.Mutex
	peerSess    map[netip.Addr]*bgp.Session
	routerSess  *bgp.Session
	bfdSessions map[netip.Addr]*bfd.Session
	sw          *openflow.SwitchConn
	pendingRule []RuleTarget // rules queued until the switch connects
	stopped     bool
}

// NewController builds the controller; Start brings everything up.
func NewController(cfg ControllerConfig) *Controller {
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.GroupSize == 0 {
		cfg.GroupSize = 2
	}
	if cfg.FlowPriority == 0 {
		cfg.FlowPriority = 100
	}
	c := &Controller{
		cfg:         cfg,
		groups:      NewGroupTable(NewVNHPool(cfg.AllocMode)),
		peerSess:    make(map[netip.Addr]*bgp.Session),
		bfdSessions: make(map[netip.Addr]*bfd.Session),
	}
	c.arp = NewARPResponder(c.groups)
	c.engine = NewEngine(c.groups, FlowPusherFunc(c.pushRule))
	for _, p := range cfg.Peers {
		c.engine.RegisterPeer(PeerPort{NH: p.Addr, MAC: p.MAC, Port: p.SwitchPort})
	}
	c.proc = NewProcessor(nil, c.groups)
	c.proc.GroupSize = cfg.GroupSize
	c.proc.OnNewGroup = c.engine.InstallGroup

	if cfg.Telemetry != nil {
		c.proc.Metrics = NewProcMetrics(cfg.Telemetry)
		c.engine.Metrics = NewEngineMetrics(cfg.Telemetry)
		c.bfdMetrics = bfd.NewMetrics(cfg.Telemetry)
		c.updatesToRouter = cfg.Telemetry.Counter("supercharged_ctl_updates_to_router_total",
			"BGP UPDATE messages sent on the session toward the supercharged router.")
		cfg.Telemetry.GaugeFunc("supercharged_ctl_groups",
			"Backup groups currently allocated.",
			func() float64 { return float64(len(c.groups.All())) })
		cfg.Telemetry.GaugeFunc("supercharged_ctl_advertised_prefixes",
			"Prefixes currently advertised toward the router.",
			func() float64 { return float64(c.proc.AdvertisedCount()) })
	}

	c.ofc = openflow.NewController(openflow.ControllerConfig{
		Logf:       cfg.Logf,
		OnSwitch:   c.onSwitch,
		OnPacketIn: c.onPacketIn,
	})
	return c
}

// Groups exposes the backup-group table.
func (c *Controller) Groups() *GroupTable { return c.groups }

// Engine exposes the convergence engine.
func (c *Controller) Engine() *Engine { return c.engine }

// Processor exposes the Listing-1 processor.
func (c *Controller) Processor() *Processor { return c.proc }

// OpenFlow exposes the OF controller core (e.g. to Serve a listener).
func (c *Controller) OpenFlow() *openflow.Controller { return c.ofc }

// Start brings up the BGP sessions (router first, then peers) and the BFD
// sessions. The OpenFlow side is driven by ServeOpenFlow or by handing
// connections to OpenFlow().HandleConn.
func (c *Controller) Start() {
	r := c.cfg.Router
	c.routerSess = bgp.NewSession(bgp.SessionConfig{
		LocalAS: c.cfg.LocalAS, LocalID: c.cfg.RouterID,
		PeerAS: r.AS, PeerAddr: r.Addr, Dial: r.Dial,
		Clock: c.cfg.Clock, Logf: c.cfg.Logf,
		OnEstablished: c.resyncRouter,
	})
	c.routerSess.Start()

	for _, p := range c.cfg.Peers {
		p := p
		meta := bgp.PeerMeta{Addr: p.Addr, AS: p.AS, ID: p.Addr, Weight: p.Weight}
		sess := bgp.NewSession(bgp.SessionConfig{
			LocalAS: c.cfg.LocalAS, LocalID: c.cfg.RouterID,
			PeerAS: p.AS, PeerAddr: p.Addr, Dial: p.Dial,
			Clock: c.cfg.Clock, Logf: c.cfg.Logf,
			OnUpdate: func(u *bgp.Update) { c.handlePeerUpdate(meta, u) },
			OnDown:   func(error) { c.peerSessionDown(p.Addr) },
		})
		c.mu.Lock()
		c.peerSess[p.Addr] = sess
		c.mu.Unlock()
		sess.Start()

		if p.BFD != nil {
			bs := bfd.NewSession(bfd.Config{
				LocalDiscr: p.BFD.LocalDiscr,
				TxInterval: p.BFD.TxInterval,
				DetectMult: p.BFD.DetectMult,
				Transport:  p.BFD.Transport,
				Clock:      c.cfg.Clock,
				Logf:       c.cfg.Logf,
				Metrics:    c.bfdMetrics,
				OnStateChange: func(st bfd.State, d bfd.Diag) {
					switch st {
					case bfd.StateDown:
						c.PeerDown(p.Addr)
					case bfd.StateUp:
						c.PeerUp(p.Addr)
					}
				},
			})
			c.mu.Lock()
			c.bfdSessions[p.Addr] = bs
			c.mu.Unlock()
			bs.Start()
		}
	}
}

// Stop tears everything down.
func (c *Controller) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	sessions := make([]*bgp.Session, 0, len(c.peerSess)+1)
	for _, s := range c.peerSess {
		sessions = append(sessions, s)
	}
	if c.routerSess != nil {
		sessions = append(sessions, c.routerSess)
	}
	bfds := make([]*bfd.Session, 0, len(c.bfdSessions))
	for _, b := range c.bfdSessions {
		bfds = append(bfds, b)
	}
	c.mu.Unlock()
	for _, b := range bfds {
		b.Stop()
	}
	for _, s := range sessions {
		s.Stop()
	}
	c.ofc.Close()
}

// ServeOpenFlow accepts switch connections on l (blocking).
func (c *Controller) ServeOpenFlow(l net.Listener) error { return c.ofc.Serve(l) }

// AcceptPeer hands a passive transport connection to a peer session.
func (c *Controller) AcceptPeer(addr netip.Addr, conn net.Conn) error {
	c.mu.Lock()
	sess, ok := c.peerSess[addr]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: unknown peer %v", addr)
	}
	go sess.Accept(conn)
	return nil
}

// AcceptRouter hands a passive transport connection to the router session.
func (c *Controller) AcceptRouter(conn net.Conn) {
	go c.routerSess.Accept(conn)
}

// BFDSession returns the BFD session toward a peer (for transport wiring).
func (c *Controller) BFDSession(addr netip.Addr) (*bfd.Session, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.bfdSessions[addr]
	return s, ok
}

// RouterEstablished reports whether the session to the router is up.
func (c *Controller) RouterEstablished() bool {
	return c.routerSess != nil && c.routerSess.Established()
}

// PeerDown drives Listing 2 (fast data-plane failover) and the
// control-plane cleanup toward the router.
func (c *Controller) PeerDown(addr netip.Addr) {
	n, err := c.engine.PeerDown(addr)
	if err != nil {
		c.cfg.Logf("core: peer %v down: engine: %v", addr, err)
	}
	c.cfg.Logf("core: peer %v down, %d rule(s) rewritten", addr, n)
	c.routerMu.Lock()
	defer c.routerMu.Unlock()
	updates, err := c.proc.PeerDown(addr)
	if err != nil {
		c.cfg.Logf("core: peer %v down: processor: %v", addr, err)
	}
	c.sendToRouter(updates)
}

// PeerUp restores the primary after recovery.
func (c *Controller) PeerUp(addr netip.Addr) {
	n, err := c.engine.PeerUp(addr)
	if err != nil {
		c.cfg.Logf("core: peer %v up: engine: %v", addr, err)
	}
	c.cfg.Logf("core: peer %v up, %d rule(s) restored", addr, n)
}

// peerSessionDown reacts to BGP transport loss; with BFD configured the
// engine has usually fired already (idempotent either way).
func (c *Controller) peerSessionDown(addr netip.Addr) {
	c.PeerDown(addr)
}

func (c *Controller) handlePeerUpdate(meta bgp.PeerMeta, u *bgp.Update) {
	c.routerMu.Lock()
	defer c.routerMu.Unlock()
	out, err := c.proc.Process(meta, u)
	if err != nil {
		c.cfg.Logf("core: process update from %v: %v", meta.Addr, err)
		return
	}
	c.sendToRouter(out)
}

// sendToRouter puts the updates on the router session. A message the
// codec refuses is logged and skipped — the rest of the stream is still
// owed to the router — while a session error ends the attempt.
func (c *Controller) sendToRouter(updates []*bgp.Update) {
	for _, u := range updates {
		err := c.routerSess.Send(u)
		switch {
		case err == nil:
			c.updatesToRouter.Inc()
		case errors.Is(err, bgp.ErrBadLength), errors.Is(err, bgp.ErrBadMessage):
			c.cfg.Logf("core: send to router: skipping unencodable update: %v", err)
		default:
			c.cfg.Logf("core: send to router: %v", err)
			return
		}
	}
}

// resyncRouter replays the current advertisement state when the router
// session (re)establishes.
func (c *Controller) resyncRouter() {
	c.routerMu.Lock()
	defer c.routerMu.Unlock()
	updates, err := c.proc.Readvertise()
	if err != nil {
		c.cfg.Logf("core: router resync: %v", err)
	}
	c.cfg.Logf("core: router session up, resyncing %d prefixes in %d updates", c.proc.AdvertisedCount(), len(updates))
	c.sendToRouter(updates)
}

// --- OpenFlow side ---

func (c *Controller) onSwitch(sw *openflow.SwitchConn) {
	if sw.DPID() != c.cfg.SwitchDPID {
		c.cfg.Logf("core: ignoring unexpected switch %#x", sw.DPID())
		return
	}
	c.mu.Lock()
	c.sw = sw
	pending := c.pendingRule
	c.pendingRule = nil
	c.mu.Unlock()
	c.installStaticRules(sw)
	for _, rt := range pending {
		if err := c.pushRule(rt.Group, rt.Target); err != nil {
			c.cfg.Logf("core: replay rule: %v", err)
		}
	}
}

// installStaticRules wires plain L2 reachability: router→peers and
// everyone→router by real MAC, so single-path (non-VNH) routes and return
// traffic work.
func (c *Controller) installStaticRules(sw *openflow.SwitchConn) {
	prio := c.cfg.FlowPriority - 50
	add := func(mac packet.MAC, port uint16) {
		fm := &openflow.FlowMod{
			Match:    openflow.MatchDLDst(mac),
			Command:  openflow.FlowAdd,
			Priority: prio,
			BufferID: openflow.BufferNone,
			OutPort:  openflow.PortNone,
			Actions:  []openflow.Action{openflow.ActionOutput(port)},
		}
		if err := sw.FlowMod(fm); err != nil {
			c.cfg.Logf("core: static rule for %s: %v", mac, err)
		}
	}
	if !c.cfg.Router.MAC.IsZero() {
		add(c.cfg.Router.MAC, c.cfg.Router.SwitchPort)
	}
	for _, p := range c.cfg.Peers {
		add(p.MAC, p.SwitchPort)
	}
}

// pushRule is the engine's backend: one FLOW_MOD per backup-group rewrite.
func (c *Controller) pushRule(g Group, target PeerPort) error {
	c.mu.Lock()
	sw := c.sw
	if sw == nil {
		// Switch not connected yet: queue for replay on connect.
		c.pendingRule = append(c.pendingRule, RuleTarget{Group: g, Target: target})
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	return sw.FlowMod(&openflow.FlowMod{
		Match:    openflow.MatchDLDst(g.VMAC),
		Command:  openflow.FlowModify, // ADD semantics on first install in our switch
		Priority: c.cfg.FlowPriority,
		BufferID: openflow.BufferNone,
		OutPort:  openflow.PortNone,
		Actions: []openflow.Action{
			openflow.ActionSetDLDst(target.MAC),
			openflow.ActionOutput(target.Port),
		},
	})
}

// onPacketIn answers VNH ARP requests (PACKET_OUT back through the ingress
// port) and floods other broadcast ARP traffic.
func (c *Controller) onPacketIn(sw *openflow.SwitchConn, pi *openflow.PacketIn) {
	reply, handled, err := c.arp.Respond(pi.Data, nil)
	if err != nil {
		c.cfg.Logf("core: arp respond: %v", err)
		return
	}
	if handled {
		err := sw.PacketOut(&openflow.PacketOut{
			BufferID: openflow.BufferNone,
			InPort:   openflow.PortNone,
			Actions:  []openflow.Action{openflow.ActionOutput(pi.InPort)},
			Data:     reply,
		})
		if err != nil {
			c.cfg.Logf("core: arp packet-out: %v", err)
		}
		return
	}
	// Not ours: flood broadcast frames so hosts can resolve each other.
	var eth packet.Ethernet
	if eth.DecodeFromBytes(pi.Data) == nil && eth.Dst.IsBroadcast() {
		for _, port := range sw.Ports() {
			if port.PortNo == pi.InPort {
				continue
			}
			sw.PacketOut(&openflow.PacketOut{
				BufferID: openflow.BufferNone,
				InPort:   openflow.PortNone,
				Actions:  []openflow.Action{openflow.ActionOutput(port.PortNo)},
				Data:     pi.Data,
			})
		}
	}
}

// --- ops endpoint ---

// Status is the ops endpoint's JSON document.
type Status struct {
	RouterSession string        `json:"router_session"`
	Peers         []PeerStatus  `json:"peers"`
	Groups        []GroupStatus `json:"groups"`
	Advertised    int           `json:"advertised_prefixes"`
	Rewrites      uint64        `json:"failure_rewrites"`
}

// PeerStatus is one peer's view.
type PeerStatus struct {
	Addr    string `json:"addr"`
	Session string `json:"session"`
	Down    bool   `json:"down"`
}

// GroupStatus is one backup-group's view.
type GroupStatus struct {
	NHs      []string `json:"next_hops"`
	VNH      string   `json:"vnh"`
	VMAC     string   `json:"vmac"`
	Prefixes int      `json:"prefixes"`
	Target   string   `json:"current_target,omitempty"`
}

// Status snapshots the controller.
func (c *Controller) Status() Status {
	st := Status{Advertised: c.proc.AdvertisedCount(), Rewrites: c.engine.Rewrites()}
	if c.routerSess != nil {
		st.RouterSession = c.routerSess.State().String()
	}
	for _, p := range c.cfg.Peers {
		ps := PeerStatus{Addr: p.Addr.String(), Session: bgp.StateIdle.String(), Down: c.engine.PeerIsDown(p.Addr)}
		c.mu.Lock()
		if sess, ok := c.peerSess[p.Addr]; ok {
			ps.Session = sess.State().String()
		}
		c.mu.Unlock()
		st.Peers = append(st.Peers, ps)
	}
	for _, g := range c.groups.All() {
		gs := GroupStatus{VNH: g.VNH.String(), VMAC: g.VMAC.String(), Prefixes: g.Prefixes}
		for _, nh := range g.NHs {
			gs.NHs = append(gs.NHs, nh.String())
		}
		if cur, ok := c.engine.CurrentTarget(g); ok {
			gs.Target = cur.String()
		}
		st.Groups = append(st.Groups, gs)
	}
	return st
}

// OpsHandler returns an http.Handler exposing /status (JSON) and, when
// the controller was built with a Telemetry registry, /metrics
// (Prometheus text exposition).
func (c *Controller) OpsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(c.Status()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	if c.cfg.Telemetry != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			c.cfg.Telemetry.WritePrometheus(w)
		})
	}
	return mux
}

package core

import (
	"encoding/json"
	"net"
	"net/http/httptest"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"supercharged/internal/bgp"
	"supercharged/internal/clock"
	"supercharged/internal/dataplane"
	"supercharged/internal/feed"
	"supercharged/internal/openflow"
	"supercharged/internal/packet"
)

func testControllerConfig() ControllerConfig {
	return ControllerConfig{
		LocalAS:  65001,
		RouterID: addr("203.0.113.253"),
		Peers: []PeerConfig{
			{Addr: r2, AS: 65002, MAC: r2mac, SwitchPort: 2, Weight: 200},
			{Addr: r3, AS: 65003, MAC: r3mac, SwitchPort: 3, Weight: 100},
		},
		Router:     RouterConfig{Addr: addr("203.0.113.254"), AS: 65000, MAC: packet.MustParseMAC("00:ff:00:00:00:01"), SwitchPort: 1},
		SwitchDPID: 0x53,
		AllocMode:  AllocDeterministic,
	}
}

func TestControllerQueuesRulesUntilSwitchConnects(t *testing.T) {
	c := NewController(testControllerConfig())
	// No switch connected: creating a group must not fail; its rule is
	// queued for replay.
	g, err := c.Groups().Ensure(r2, r3)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Engine().InstallGroup(g); err != nil {
		t.Fatalf("install without switch: %v", err)
	}
	c.mu.Lock()
	queued := len(c.pendingRule)
	c.mu.Unlock()
	if queued != 1 {
		t.Fatalf("pending rules %d, want 1", queued)
	}
}

func TestControllerStatusAndOpsEndpoint(t *testing.T) {
	c := NewController(testControllerConfig())
	g, _ := c.Groups().Ensure(r2, r3)
	c.Engine().InstallGroup(g)
	c.Engine().PeerDown(r2)

	st := c.Status()
	if len(st.Peers) != 2 || len(st.Groups) != 1 {
		t.Fatalf("status %+v", st)
	}
	var r2Down bool
	for _, p := range st.Peers {
		if p.Addr == r2.String() {
			r2Down = p.Down
		}
	}
	if !r2Down {
		t.Fatal("status misses the failed peer")
	}
	if st.Groups[0].Target != r3.String() {
		t.Fatalf("group target %q, want backup", st.Groups[0].Target)
	}
	if st.Rewrites != 1 {
		t.Fatalf("rewrites %d", st.Rewrites)
	}

	// HTTP surface.
	srv := httptest.NewServer(c.OpsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded Status
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Rewrites != 1 || len(decoded.Groups) != 1 {
		t.Fatalf("ops endpoint returned %+v", decoded)
	}
	if !strings.Contains(resp.Header.Get("Content-Type"), "application/json") {
		t.Fatal("ops endpoint content type")
	}
}

// pipeDial returns a Dial function: each call hands the far end of a
// fresh net.Pipe to accept on its own goroutine.
func pipeDial(accept func(net.Conn)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		a, b := net.Pipe()
		go accept(b)
		return a, nil
	}
}

// routerUpdate is one UPDATE the router side received, with the engine's
// rewrite count read as it arrived.
type routerUpdate struct {
	*bgp.Update
	rewrites uint64
}

// startWired runs a controller built from cfg with every BGP session on
// net.Pipe: one provider session per configured peer, and a router-side
// session that puts each UPDATE it receives on the returned channel. It
// returns once every session is established and the controller has
// resynced the router; cleanup stops them all.
func startWired(t *testing.T, cfg ControllerConfig) (*Controller, map[netip.Addr]*bgp.Session, <-chan routerUpdate) {
	t.Helper()
	// The controller resyncs the router once its own side of the session
	// is up, which can be after the router's side is. A resync that late
	// would repeat announcements in the middle of a test, so wait for it.
	resynced := make(chan struct{})
	var once sync.Once
	cfg.Logf = func(format string, _ ...any) {
		if strings.HasPrefix(format, "core: router session up") {
			once.Do(func() { close(resynced) })
		}
	}
	var c *Controller
	updates := make(chan routerUpdate)
	done := make(chan struct{})
	router := bgp.NewSession(bgp.SessionConfig{
		LocalAS: cfg.Router.AS, LocalID: cfg.Router.Addr, PeerAS: cfg.LocalAS, PeerAddr: cfg.RouterID,
		OnUpdate: func(u *bgp.Update) {
			select {
			case updates <- routerUpdate{u, c.Engine().Rewrites()}:
			case <-done:
			}
		},
	})
	cfg.Router.Dial = pipeDial(router.Accept)
	provs := make(map[netip.Addr]*bgp.Session)
	cfg.Peers = slices.Clone(cfg.Peers)
	for i, p := range cfg.Peers {
		s := bgp.NewSession(bgp.SessionConfig{LocalAS: p.AS, LocalID: p.Addr, PeerAS: cfg.LocalAS, PeerAddr: cfg.RouterID})
		provs[p.Addr] = s
		cfg.Peers[i].Dial = pipeDial(s.Accept)
	}
	c = NewController(cfg)
	c.Start()
	t.Cleanup(c.Stop)
	t.Cleanup(router.Stop)
	for _, s := range provs {
		t.Cleanup(s.Stop)
	}
	t.Cleanup(func() { close(done) })
	for _, s := range provs {
		if err := s.WaitEstablished(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := router.WaitEstablished(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case <-resynced:
	case <-time.After(5 * time.Second):
		t.Fatal("the controller never resynced the router session")
	}
	return c, provs, updates
}

func TestControllerPeerUpdateFlowsToRouterSession(t *testing.T) {
	// Peer updates must come out of the router session with the VNH
	// substituted once both providers announce.
	c, provs, gotUpdates := startWired(t, testControllerConfig())

	// Provider announcements.
	if err := provs[r2].Send(announceFrom(r2, 65002, "1.0.0.0/24")); err != nil {
		t.Fatal(err)
	}
	first := recvUpdate(t, gotUpdates)
	if first.Attrs == nil || first.Attrs.NextHop != r2 {
		t.Fatalf("single-path announcement %v", first)
	}
	if err := provs[r3].Send(announceFrom(r3, 65003, "1.0.0.0/24")); err != nil {
		t.Fatal(err)
	}
	second := recvUpdate(t, gotUpdates)
	g, ok := c.Groups().Get(r2, r3)
	if !ok {
		t.Fatal("group not created")
	}
	if second.Attrs == nil || second.Attrs.NextHop != g.VNH {
		t.Fatalf("VNH announcement carries %v, want %v", second.Attrs.NextHop, g.VNH)
	}

	// An update the codec refuses is skipped; the stream behind it still
	// reaches the router.
	c.sendToRouter([]*bgp.Update{
		{NLRI: []netip.Prefix{pfx("9.9.9.0/24")}}, // NLRI without attributes
		announceFrom(r2, 65002, "2.0.0.0/24"),
	})
	if after := recvUpdate(t, gotUpdates); len(after.NLRI) != 1 || after.NLRI[0] != pfx("2.0.0.0/24") {
		t.Fatalf("update behind an unencodable one: %v", after)
	}

	// A router session coming up is sent the advertised state again.
	c.resyncRouter()
	resync := recvUpdate(t, gotUpdates)
	if len(resync.NLRI) != 1 || resync.NLRI[0] != pfx("1.0.0.0/24") || resync.Attrs.NextHop != g.VNH {
		t.Fatalf("resync sent %v, want 1.0.0.0/24 via %v", resync, g.VNH)
	}
}

// signalClock is a switch clock that sends on fired after each timer it
// ran, so a test waits for FLOW_MODs to land on a channel rather than by
// sleeping.
type signalClock struct {
	clock.Clock
	fired chan struct{}
}

func (c signalClock) AfterFunc(d time.Duration, f func()) clock.Timer {
	return c.Clock.AfterFunc(d, func() {
		f()
		select {
		case c.fired <- struct{}{}:
		default: // a signal is already pending
		}
	})
}

// beforeWrite is a net.Conn that calls hook ahead of every Write.
type beforeWrite struct {
	net.Conn
	hook func()
}

func (c beforeWrite) Write(b []byte) (int, error) {
	c.hook()
	return c.Conn.Write(b)
}

// TestControllerFailoverIsOneRuleRewrite runs the paper's failover (§3,
// Listings 1–2) over the product's transports: the controller, two
// provider sessions, a router-side session and an OpenFlow switch, all on
// net.Pipe. Forwarding is decided as sim.pathWorks decides it, with no
// frames: the router's best next hop, resolved through the ARP responder
// to a MAC, then the switch rule for that MAC. When R2 fails, one rule
// rewrite moves every prefix to R3 before the router hears of it.
func TestControllerFailoverIsOneRuleRewrite(t *testing.T) {
	c, provs, got := startWired(t, testControllerConfig())
	table := feed.Generate(feed.Config{N: 300, Seed: 42})

	// Once armed, the next message the controller writes to the switch
	// reports whether the processor still advertises a prefix via its
	// VNH at that moment, i.e. whether the cleanup is still to come.
	var armed atomic.Bool
	sample := table.Prefixes()[0]
	ruleBeforeCleanup := make(chan bool, 1)
	installed := make(chan struct{}, 1)
	sw := openflow.NewSwitch(openflow.SwitchConfig{
		DPID: c.cfg.SwitchDPID,
		Dial: pipeDial(func(conn net.Conn) {
			c.OpenFlow().HandleConn(beforeWrite{conn, func() {
				if armed.CompareAndSwap(true, false) {
					_, virtual, _ := c.proc.Advertised(sample)
					ruleBeforeCleanup <- virtual
				}
			}})
		}),
		Clock: signalClock{clock.System, installed},
	})
	sw.Start()
	t.Cleanup(sw.Stop)

	// The router's table. The controller is its only peer, so a prefix's
	// best next hop is the last one announced for it.
	rib := make(map[netip.Prefix]netip.Addr)
	receive := func(what string, done func() bool) []routerUpdate {
		t.Helper()
		var seen []routerUpdate
		timeout := time.After(10 * time.Second)
		for !done() {
			select {
			case u := <-got:
				for _, p := range u.Withdrawn {
					delete(rib, p)
				}
				for _, p := range u.NLRI {
					rib[p] = u.Attrs.NextHop
				}
				seen = append(seen, u)
			case <-timeout:
				t.Fatalf("timed out waiting for %s: %d prefixes, %d updates received", what, len(rib), len(seen))
			}
		}
		return seen
	}
	allVia := func(n int, want func(netip.Addr) bool) func() bool {
		return func() bool {
			if len(rib) != n {
				return false
			}
			for _, nh := range rib {
				if !want(nh) {
					return false
				}
			}
			return true
		}
	}
	send := func(peer PeerConfig, routes *feed.Table) {
		t.Helper()
		ups, err := routes.Updates(peer.AS, peer.Addr, bgp.Codec{ASN4: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range ups {
			if err := provs[peer.Addr].Send(u); err != nil {
				t.Fatal(err)
			}
		}
	}

	// R2 announces the first half alone, and a single path reaches the
	// router as-is. When R3 joins, those prefixes move to the VNH with
	// R2's attributes unchanged. The second half comes from both
	// providers at once, so their reactions race for the router session.
	half := table.Len() / 2
	send(c.cfg.Peers[0], table.Head(half))
	receive("R2's first half", allVia(half, func(nh netip.Addr) bool { return nh == r2 }))
	send(c.cfg.Peers[0], table.Window(half, table.Len()-half))
	send(c.cfg.Peers[1], table)
	receive("both feeds", allVia(table.Len(), func(nh netip.Addr) bool { return nh != r2 && nh != r3 }))

	groups := c.Groups().All()
	if len(groups) != 1 {
		t.Fatalf("backup groups %d, want 1", len(groups))
	}
	g := groups[0]
	for p, nh := range rib {
		if nh != g.VNH {
			t.Fatalf("%v reaches the router via %v, want the group's VNH %v", p, nh, g.VNH)
		}
	}
	if vmac, ok := c.arp.Lookup(g.VNH); !ok || vmac != g.VMAC {
		t.Fatalf("ARP resolves VNH %v to %v,%v, want VMAC %v", g.VNH, vmac, ok, g.VMAC)
	}

	// forward is where the switch sends the router's traffic to p: the
	// rule's dl_dst rewrite and output port.
	forward := func(p netip.Prefix) (mac packet.MAC, port uint16) {
		mac, ok := c.arp.Lookup(rib[p])
		if !ok {
			return packet.MAC{}, 0
		}
		flow := sw.Table().Lookup(c.cfg.Router.SwitchPort, &packet.Ethernet{Dst: mac, Type: packet.EtherTypeIPv4})
		if flow == nil {
			return packet.MAC{}, 0
		}
		for _, a := range flow.Actions {
			switch a.Type {
			case dataplane.ActionSetDstMAC:
				mac = a.MAC
			case dataplane.ActionOutput:
				port = a.Port
			}
		}
		return mac, port
	}
	waitForward := func(what string, mac packet.MAC, port uint16) {
		t.Helper()
		timeout := time.After(10 * time.Second)
		for {
			var stray netip.Prefix
			for p := range rib {
				if m, o := forward(p); m != mac || o != port {
					stray = p
					break
				}
			}
			if !stray.IsValid() {
				return
			}
			select {
			case <-installed:
			case <-timeout:
				m, o := forward(stray)
				t.Fatalf("%s: %v forwards to (%v, %d), want (%v, %d)", what, stray, m, o, mac, port)
			}
		}
	}
	waitForward("before the failure", r2mac, 2)

	armed.Store(true)
	c.PeerDown(r2)
	if n := c.Engine().Rewrites(); n != 1 {
		t.Fatalf("failure rewrote %d rules, want exactly 1", n)
	}
	// PeerDown writes the FLOW_MOD before it returns. The cleanup UPDATEs
	// are only queued on the router session by then, so the router's
	// arrival order alone cannot show that the rule went first.
	select {
	case virtual := <-ruleBeforeCleanup:
		if !virtual {
			t.Fatal("the cleanup was announced before the FLOW_MOD was written")
		}
	default:
		t.Fatal("the failure wrote nothing to the switch")
	}
	// The router's table still says VNH: the rule rewrite alone moves
	// every prefix to R3.
	waitForward("after the failure", r3mac, 3)

	cleanup := receive("the cleanup", allVia(table.Len(), func(nh netip.Addr) bool { return nh == r3 }))
	if cleanup[0].rewrites != 1 {
		t.Fatalf("first cleanup UPDATE arrived with %d rule rewrites made, want the FLOW_MOD first", cleanup[0].rewrites)
	}

	st := c.Status()
	if len(st.Groups) != 1 || st.Groups[0].Target != r3.String() {
		t.Fatalf("status after failover: %+v", st.Groups)
	}
	var sawDown bool
	for _, p := range st.Peers {
		if p.Addr == r2.String() && p.Down {
			sawDown = true
		}
	}
	if !sawDown {
		t.Fatalf("status does not reflect the failed peer: %+v", st.Peers)
	}
}

func recvUpdate(t *testing.T, ch <-chan routerUpdate) *bgp.Update {
	t.Helper()
	select {
	case u := <-ch:
		return u.Update
	case <-time.After(5 * time.Second):
		t.Fatal("no update from controller")
		return nil
	}
}

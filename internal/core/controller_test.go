package core

import (
	"encoding/json"
	"net"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"supercharged/internal/bgp"
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

func TestControllerPeerUpdateFlowsToRouterSession(t *testing.T) {
	// Wire only the BGP sides: peer updates must come out of the router
	// session with the VNH substituted once both providers announce.
	cfg := testControllerConfig()
	peerDials := map[string]func() (net.Conn, error){}
	peerConns := map[string]chan net.Conn{}
	for _, p := range cfg.Peers {
		ch := make(chan net.Conn, 4)
		peerConns[p.Addr.String()] = ch
		addrStr := p.Addr.String()
		peerDials[addrStr] = func() (net.Conn, error) {
			a, b := net.Pipe()
			peerConns[addrStr] <- b
			return a, nil
		}
	}
	for i := range cfg.Peers {
		cfg.Peers[i].Dial = peerDials[cfg.Peers[i].Addr.String()]
	}
	routerCh := make(chan net.Conn, 4)
	cfg.Router.Dial = func() (net.Conn, error) {
		a, b := net.Pipe()
		routerCh <- b
		return a, nil
	}
	c := NewController(cfg)

	// Fake router: collects received updates.
	gotUpdates := make(chan *bgp.Update, 64)
	routerSess := bgp.NewSession(bgp.SessionConfig{
		LocalAS: 65000, LocalID: addr("203.0.113.254"), PeerAS: 65001,
		PeerAddr: addr("203.0.113.253"),
		OnUpdate: func(u *bgp.Update) { gotUpdates <- u },
	})
	go func() {
		for conn := range routerCh {
			go routerSess.Accept(conn)
		}
	}()
	// Fake providers.
	provs := map[string]*bgp.Session{}
	for _, p := range cfg.Peers {
		sess := bgp.NewSession(bgp.SessionConfig{
			LocalAS: p.AS, LocalID: p.Addr, PeerAS: 65001, PeerAddr: addr("203.0.113.253"),
		})
		provs[p.Addr.String()] = sess
		ch := peerConns[p.Addr.String()]
		go func(s *bgp.Session, ch chan net.Conn) {
			for conn := range ch {
				go s.Accept(conn)
			}
		}(sess, ch)
	}

	c.Start()
	defer c.Stop()
	defer routerSess.Stop()
	for _, s := range provs {
		defer s.Stop()
		if err := s.WaitEstablished(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := routerSess.WaitEstablished(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Provider announcements.
	if err := provs[r2.String()].Send(announceFrom(r2, 65002, "1.0.0.0/24")); err != nil {
		t.Fatal(err)
	}
	first := recvUpdate(t, gotUpdates)
	if first.Attrs == nil || first.Attrs.NextHop != r2 {
		t.Fatalf("single-path announcement %v", first)
	}
	if err := provs[r3.String()].Send(announceFrom(r3, 65003, "1.0.0.0/24")); err != nil {
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

func recvUpdate(t *testing.T, ch chan *bgp.Update) *bgp.Update {
	t.Helper()
	select {
	case u := <-ch:
		return u
	case <-time.After(5 * time.Second):
		t.Fatal("no update from controller")
		return nil
	}
}

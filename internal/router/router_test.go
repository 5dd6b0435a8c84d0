package router

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"supercharged/internal/bgp"
	"supercharged/internal/clock"
	"supercharged/internal/netem"
	"supercharged/internal/packet"
)

var (
	routerMAC = packet.MustParseMAC("00:ff:00:00:00:01")
	peerMAC   = packet.MustParseMAC("01:aa:00:00:00:01")
	peer2MAC  = packet.MustParseMAC("02:bb:00:00:00:01")
	routerIP  = netip.MustParseAddr("203.0.113.254")
	peerIP    = netip.MustParseAddr("203.0.113.1")
	peer2IP   = netip.MustParseAddr("203.0.113.2")
)

// fakePeer answers ARP for its IP and records received IPv4 frames.
type fakePeer struct {
	mac  packet.MAC
	ip   netip.Addr
	port *netem.Port
	got  chan []byte
}

func newFakePeer(mac packet.MAC, ip netip.Addr, port *netem.Port) *fakePeer {
	p := &fakePeer{mac: mac, ip: ip, port: port, got: make(chan []byte, 256)}
	port.Handle(func(frame []byte) {
		var eth packet.Ethernet
		if eth.DecodeFromBytes(frame) != nil {
			return
		}
		switch eth.Type {
		case packet.EtherTypeARP:
			var arp packet.ARP
			if arp.DecodeFromBytes(eth.Payload) == nil && arp.Op == packet.ARPRequest && arp.TargetIP == p.ip {
				reply, _ := packet.ARPReplyFrame(packet.NewBuffer(), p.mac, p.ip, arp)
				port.Send(reply)
			}
		case packet.EtherTypeIPv4:
			if eth.Dst == p.mac {
				select {
				case p.got <- append([]byte(nil), frame...):
				default:
				}
			}
		}
	})
	return p
}

// hub wires N ports into a broadcast domain (stand-in for the switch in
// router-only tests).
type hub struct {
	clk   clock.Clock
	ports []*netem.Port
}

func newHub(clk clock.Clock) *hub { return &hub{clk: clk} }

// attach creates a link; the hub floods frames arriving on its side to
// every other device port.
func (h *hub) attach(name string) *netem.Port {
	link := netem.NewLink(h.clk, name, name+"-hub", 0)
	dev, hubSide := link.Ports()
	idx := len(h.ports)
	h.ports = append(h.ports, hubSide)
	hubSide.Handle(func(frame []byte) {
		for i, p := range h.ports {
			if i != idx {
				p.Send(frame)
			}
		}
	})
	return dev
}

func pipeDialer() (func() (net.Conn, error), <-chan net.Conn) {
	ch := make(chan net.Conn, 8)
	return func() (net.Conn, error) {
		a, b := net.Pipe()
		ch <- b
		return a, nil
	}, ch
}

// peerSpeaker runs the provider side of the BGP session.
func peerSpeaker(t *testing.T, as uint32, id netip.Addr, accepted <-chan net.Conn) *bgp.Session {
	t.Helper()
	sess := bgp.NewSession(bgp.SessionConfig{
		LocalAS: as, LocalID: id, PeerAS: 65001, PeerAddr: routerIP,
	})
	go func() {
		for conn := range accepted {
			go sess.Accept(conn)
		}
	}()
	return sess
}

func TestRouterLearnsResolvesInstallsForwards(t *testing.T) {
	hub := newHub(clock.Real{})
	routerPort := hub.attach("r1")
	peerPort := hub.attach("r2")
	peer := newFakePeer(peerMAC, peerIP, peerPort)

	dial, accepted := pipeDialer()
	r := New(Config{
		AS: 65001, RouterID: routerIP, IfIP: routerIP, IfMAC: routerMAC,
		Port: routerPort, PerEntry: 100 * time.Microsecond,
		Neighbors: []NeighborConfig{{Addr: peerIP, AS: 65002, Weight: 100, Dial: dial}},
	})
	sess := peerSpeaker(t, 65002, peerIP, accepted)
	defer sess.Stop()
	r.Start()
	defer r.Stop()

	if err := sess.WaitEstablished(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Announce a prefix with the peer as next-hop.
	err := sess.Send(&bgp.Update{
		Attrs: &bgp.Attrs{Origin: bgp.OriginIGP, ASPath: bgp.Sequence(65002), NextHop: peerIP},
		NLRI:  []netip.Prefix{netip.MustParsePrefix("1.0.0.0/24")},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The router must ARP for the next-hop and install the FIB entry.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if nh, ok := r.FIB().Get(netip.MustParsePrefix("1.0.0.0/24")); ok && nh.MAC == peerMAC {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("FIB entry never installed (arp cache %d, fib %d)", r.ARPCacheLen(), r.FIB().Len())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Data plane: a packet for 1.0.0.5 must come out rewritten to the peer.
	probe, _ := packet.UDPFrame(packet.NewBuffer(), packet.MustParseMAC("00:01:00:00:00:09"), routerMAC,
		netip.MustParseAddr("192.0.2.9"), netip.MustParseAddr("1.0.0.5"), 40000, 9, []byte("x"))
	// Inject via the hub from a third port.
	injector := hub.attach("host")
	injector.Send(probe)
	select {
	case frame := <-peer.got:
		var eth packet.Ethernet
		var ip packet.IPv4
		if eth.DecodeFromBytes(frame) != nil || ip.DecodeFromBytes(eth.Payload) != nil {
			t.Fatal("bad forwarded frame")
		}
		if eth.Src != routerMAC || eth.Dst != peerMAC {
			t.Fatalf("L2 rewrite wrong: %s -> %s", eth.Src, eth.Dst)
		}
		if ip.TTL != 63 {
			t.Fatalf("TTL %d, want 63", ip.TTL)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("packet not forwarded")
	}
}

func TestRouterFailoverWalksFIBEntryByEntry(t *testing.T) {
	hub := newHub(clock.Real{})
	routerPort := hub.attach("r1")
	newFakePeer(peerMAC, peerIP, hub.attach("r2"))
	newFakePeer(peer2MAC, peer2IP, hub.attach("r3"))

	dial1, accepted1 := pipeDialer()
	dial2, accepted2 := pipeDialer()
	const perEntry = 200 * time.Microsecond
	r := New(Config{
		AS: 65001, RouterID: routerIP, IfIP: routerIP, IfMAC: routerMAC,
		Port: routerPort, PerEntry: perEntry,
		Neighbors: []NeighborConfig{
			{Addr: peerIP, AS: 65002, Weight: 200, Dial: dial1},
			{Addr: peer2IP, AS: 65003, Weight: 100, Dial: dial2},
		},
	})
	s1 := peerSpeaker(t, 65002, peerIP, accepted1)
	s2 := peerSpeaker(t, 65003, peer2IP, accepted2)
	defer s1.Stop()
	defer s2.Stop()
	r.Start()
	defer r.Stop()
	if err := s1.WaitEstablished(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s2.WaitEstablished(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Both peers announce the same 200 prefixes; R2 preferred.
	const n = 200
	var nlri []netip.Prefix
	for i := 0; i < n; i++ {
		nlri = append(nlri, netip.PrefixFrom(netip.AddrFrom4([4]byte{10 + byte(i/250), byte(i), 0, 0}), 24))
	}
	for _, cfg := range []struct {
		sess *bgp.Session
		nh   netip.Addr
		as   uint32
	}{{s1, peerIP, 65002}, {s2, peer2IP, 65003}} {
		err := cfg.sess.Send(&bgp.Update{
			Attrs: &bgp.Attrs{Origin: bgp.OriginIGP, ASPath: bgp.Sequence(cfg.as), NextHop: cfg.nh},
			NLRI:  nlri,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the full table is installed via R2.
	waitFor(t, 10*time.Second, func() bool {
		nh, ok := r.FIB().Get(nlri[n-1])
		return ok && nh.MAC == peerMAC
	})

	// Fail R2 (as BFD would signal it).
	start := time.Now()
	r.PeerDown(peerIP)
	// Every entry must be rewritten to R3, serialized by the updater.
	waitFor(t, 10*time.Second, func() bool {
		nh, ok := r.FIB().Get(nlri[n-1])
		return ok && nh.MAC == peer2MAC
	})
	elapsed := time.Since(start)
	if want := time.Duration(n) * perEntry; elapsed < want {
		t.Fatalf("full rewrite in %v, faster than the serialized minimum %v", elapsed, want)
	}
	if r.RIB().Len() != n {
		t.Fatalf("RIB len %d", r.RIB().Len())
	}
}

func TestRouterAnswersARPForItsInterface(t *testing.T) {
	v := clock.Real{}
	hub := newHub(v)
	routerPort := hub.attach("r1")
	host := hub.attach("host")
	got := make(chan packet.ARP, 1)
	host.Handle(func(frame []byte) {
		var eth packet.Ethernet
		var arp packet.ARP
		if eth.DecodeFromBytes(frame) == nil && eth.Type == packet.EtherTypeARP &&
			arp.DecodeFromBytes(eth.Payload) == nil && arp.Op == packet.ARPReply {
			got <- arp
		}
	})
	r := New(Config{AS: 65001, RouterID: routerIP, IfIP: routerIP, IfMAC: routerMAC, Port: routerPort})
	r.Start()
	defer r.Stop()

	req, _ := packet.ARPRequestFrame(packet.NewBuffer(), packet.MustParseMAC("00:01:00:00:00:02"),
		netip.MustParseAddr("203.0.113.9"), routerIP)
	host.Send(req)
	select {
	case arp := <-got:
		if arp.SenderHW != routerMAC || arp.SenderIP != routerIP {
			t.Fatalf("reply %+v", arp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no ARP reply from router")
	}
}

func TestRouterDropsUnroutable(t *testing.T) {
	hub := newHub(clock.Real{})
	routerPort := hub.attach("r1")
	host := hub.attach("host")
	r := New(Config{AS: 65001, RouterID: routerIP, IfIP: routerIP, IfMAC: routerMAC, Port: routerPort})
	r.Start()
	defer r.Stop()
	probe, _ := packet.UDPFrame(packet.NewBuffer(), packet.MustParseMAC("00:01:00:00:00:09"), routerMAC,
		netip.MustParseAddr("192.0.2.9"), netip.MustParseAddr("8.8.8.8"), 40000, 9, nil)
	host.Send(probe)
	waitFor(t, 5*time.Second, func() bool { return r.Drops() == 1 })
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStaleParkedOpDoesNotOverwriteNewerRoute: a prefix first learned via
// an unresolved next-hop parks its FIB op on ARP; a newer announcement
// moves it to a resolved next-hop and installs at once. When the old
// next-hop's ARP reply finally arrives, the parked op is stale and must
// not overwrite the newer entry.
func TestStaleParkedOpDoesNotOverwriteNewerRoute(t *testing.T) {
	r := New(Config{AS: 65001, RouterID: routerIP, IfIP: routerIP, IfMAC: routerMAC})
	meta := bgp.PeerMeta{Addr: peerIP, AS: 65002, ID: peerIP}
	pfx := netip.MustParsePrefix("198.51.100.0/24")
	announce := func(nh netip.Addr) *bgp.Update {
		return &bgp.Update{
			Attrs: &bgp.Attrs{Origin: bgp.OriginIGP, ASPath: bgp.Sequence(65002), NextHop: nh},
			NLRI:  []netip.Prefix{pfx},
		}
	}

	r.applyUpdate(meta, announce(peerIP)) // parked: peerIP unresolved
	r.learnARP(peer2IP, peer2MAC)
	r.applyUpdate(meta, announce(peer2IP)) // resolved: installs now
	r.learnARP(peerIP, peerMAC)            // the late reply for the old next-hop

	waitFor(t, 5*time.Second, func() bool { return r.FIB().QueueLen() == 0 && r.FIB().Len() == 1 })
	if nh, ok := r.FIB().Get(pfx); !ok || nh.MAC != peer2MAC {
		t.Fatalf("FIB entry %v (present %v), want the newer next-hop's MAC %v", nh.MAC, ok, peer2MAC)
	}
}

// Command supercharged runs the controller against real transports: BGP
// sessions to the configured peers and router, an OpenFlow listener for
// the switch, optional BFD over UDP, and an HTTP ops endpoint.
//
//	supercharged -config lab.json
//
// The serve subcommand instead runs the concurrent controller daemon
// under replayed load — synthetic tables or an MRT dump streamed by N
// peers into the sharded RIB, batched out to simulated routers — with
// live Prometheus metrics:
//
//	supercharged serve -peers 4 -prefixes 50000 -listen 127.0.0.1:9090
//	supercharged serve -mrt rib.mrt -rate 25000 -duration 30s
//
// Delivery to each router is one loop with retries, a circuit breaker
// and gap-healing resync, whatever the flags. With -chaos, serve
// additionally injects a seeded fault schedule (drops, stalls, session
// crashes, corrupt records) for that loop to recover from, and
// reconnects crashed sessions. The chaoscheck subcommand runs a bounded soak under the same fault
// plans and exits non-zero if any resilience invariant is violated:
//
//	supercharged serve -chaos -chaos-mix all -chaos-seed 7 -duration 30s
//	supercharged chaoscheck -mix crash -seed 42 -mrt rib.mrt -sample 2000
//
// Configuration (JSON):
//
//	{
//	  "local_as": 65001,
//	  "router_id": "203.0.113.253",
//	  "of_listen": "127.0.0.1:6633",
//	  "ops_listen": "127.0.0.1:8080",
//	  "switch_dpid": 83,
//	  "alloc_mode": "deterministic",
//	  "router": {"addr": "203.0.113.254", "as": 65000, "mac": "00:ff:00:00:00:01",
//	             "switch_port": 1, "dial": "127.0.0.1:1790"},
//	  "peers": [
//	    {"addr": "203.0.113.1", "as": 65002, "mac": "01:aa:00:00:00:01",
//	     "switch_port": 2, "weight": 200, "dial": "127.0.0.1:1791",
//	     "bfd_local": "127.0.0.1:3784", "bfd_peer": "127.0.0.1:3785"},
//	    {"addr": "198.51.100.2", "as": 65003, "mac": "02:bb:00:00:00:01",
//	     "switch_port": 3, "weight": 100, "dial": "127.0.0.1:1792"}
//	  ]
//	}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"syscall"
	"time"

	"supercharged/internal/bfd"
	"supercharged/internal/core"
	"supercharged/internal/packet"
)

type peerJSON struct {
	Addr       string `json:"addr"`
	AS         uint32 `json:"as"`
	MAC        string `json:"mac"`
	SwitchPort uint16 `json:"switch_port"`
	Weight     uint32 `json:"weight"`
	Dial       string `json:"dial"`
	BFDLocal   string `json:"bfd_local,omitempty"`
	BFDPeer    string `json:"bfd_peer,omitempty"`
}

type routerJSON struct {
	Addr       string `json:"addr"`
	AS         uint32 `json:"as"`
	MAC        string `json:"mac"`
	SwitchPort uint16 `json:"switch_port"`
	Dial       string `json:"dial"`
}

type configJSON struct {
	LocalAS    uint32     `json:"local_as"`
	RouterID   string     `json:"router_id"`
	OFListen   string     `json:"of_listen"`
	OpsListen  string     `json:"ops_listen,omitempty"`
	SwitchDPID uint64     `json:"switch_dpid"`
	AllocMode  string     `json:"alloc_mode,omitempty"`
	Router     routerJSON `json:"router"`
	Peers      []peerJSON `json:"peers"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "chaoscheck" {
		chaoscheckMain(os.Args[2:])
		return
	}
	configPath := flag.String("config", "", "path to JSON configuration (required)")
	flag.Parse()
	if *configPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	raw, err := os.ReadFile(*configPath)
	if err != nil {
		log.Fatal(err)
	}
	var cj configJSON
	if err := json.Unmarshal(raw, &cj); err != nil {
		log.Fatalf("parse config: %v", err)
	}

	dialer := func(addr string) func() (net.Conn, error) {
		if addr == "" {
			return nil
		}
		return func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 10*time.Second) }
	}

	cfg := core.ControllerConfig{
		LocalAS:    cj.LocalAS,
		RouterID:   netip.MustParseAddr(cj.RouterID),
		SwitchDPID: cj.SwitchDPID,
		Logf:       log.Printf,
		Router: core.RouterConfig{
			Addr:       netip.MustParseAddr(cj.Router.Addr),
			AS:         cj.Router.AS,
			MAC:        packet.MustParseMAC(cj.Router.MAC),
			SwitchPort: cj.Router.SwitchPort,
			Dial:       dialer(cj.Router.Dial),
		},
	}
	if cj.AllocMode == "deterministic" {
		cfg.AllocMode = core.AllocDeterministic
	}

	type bfdWire struct {
		conn *net.UDPConn
		mux  *bfd.Mux
		peer string
		addr netip.Addr
	}
	var bfdWires []bfdWire
	for i, p := range cj.Peers {
		pc := core.PeerConfig{
			Addr:       netip.MustParseAddr(p.Addr),
			AS:         p.AS,
			MAC:        packet.MustParseMAC(p.MAC),
			SwitchPort: p.SwitchPort,
			Weight:     p.Weight,
			Dial:       dialer(p.Dial),
		}
		if p.BFDLocal != "" && p.BFDPeer != "" {
			laddr, err := net.ResolveUDPAddr("udp", p.BFDLocal)
			if err != nil {
				log.Fatal(err)
			}
			raddr, err := net.ResolveUDPAddr("udp", p.BFDPeer)
			if err != nil {
				log.Fatal(err)
			}
			conn, err := net.ListenUDP("udp", laddr)
			if err != nil {
				log.Fatal(err)
			}
			pc.BFD = &core.BFDConfig{
				LocalDiscr: uint32(i + 1),
				TxInterval: 30 * time.Millisecond,
				DetectMult: 3,
				Transport:  &bfd.UDPTransport{Conn: conn, Peer: raddr},
			}
			bfdWires = append(bfdWires, bfdWire{conn: conn, mux: bfd.NewMux(), peer: raddr.String(), addr: pc.Addr})
		}
		cfg.Peers = append(cfg.Peers, pc)
	}

	ctrl := core.NewController(cfg)
	ctrl.Start()
	defer ctrl.Stop()

	// Wire BFD demultiplexers after Start created the sessions.
	for _, w := range bfdWires {
		if sess, ok := ctrl.BFDSession(w.addr); ok {
			w.mux.Register(sess, w.peer)
			go w.mux.ServeUDP(w.conn)
		}
	}

	ofl, err := net.Listen("tcp", cj.OFListen)
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := ctrl.ServeOpenFlow(ofl); err != nil {
			log.Printf("openflow listener: %v", err)
		}
	}()
	log.Printf("supercharged: OpenFlow on %s", cj.OFListen)

	if cj.OpsListen != "" {
		go func() {
			log.Printf("supercharged: ops endpoint on http://%s/status", cj.OpsListen)
			if err := http.ListenAndServe(cj.OpsListen, ctrl.OpsHandler()); err != nil {
				log.Printf("ops endpoint: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
}

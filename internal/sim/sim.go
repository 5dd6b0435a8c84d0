// Package sim is the discrete-event convergence lab: the Fig. 4 topology
// (edge router R1 behind an SDN switch, primary provider R2, backup
// provider R3, FPGA-style traffic probes) driven on a virtual clock so the
// full 1k→500k-prefix sweep of Fig. 5 runs deterministically in CPU
// milliseconds instead of lab hours.
//
// The control-plane code under test is the real thing — core.Processor
// (Listing 1), core.Engine (Listing 2), bgp.RIB/decision process,
// dataplane.FlatFIB and dataplane.FlowTable. Only the physical elements
// are modeled by timing parameters: BFD detection, per-FIB-entry install
// cost, switch rule programming and controller reaction.
package sim

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"supercharged/internal/bgp"
	"supercharged/internal/clock"
	"supercharged/internal/core"
	"supercharged/internal/dataplane"
	"supercharged/internal/feed"
	"supercharged/internal/packet"
	"supercharged/internal/telemetry"
)

// Mode selects the router under test.
type Mode int

const (
	// Standalone is the vanilla router: flat FIB, entry-by-entry
	// convergence (the paper's non-supercharged baseline).
	Standalone Mode = iota
	// Supercharged puts the controller and switch in front of the same
	// router.
	Supercharged
)

func (m Mode) String() string {
	if m == Supercharged {
		return "supercharged"
	}
	return "non-supercharged"
}

// Config parameterizes one lab run. Zero fields take the calibrated
// defaults in DefaultConfig.
type Config struct {
	Mode        Mode
	NumPrefixes int
	NumFlows    int
	Seed        int64
	GroupSize   int // backup-group size k (default 2)

	// --- timing model (see DESIGN.md §5 for the calibration) ---

	// PerEntry is the router's per-FIB-entry install cost.
	PerEntry time.Duration
	// BFDInterval and BFDMult give the failure detection time.
	BFDInterval time.Duration
	BFDMult     int
	// RouterCtl is the router's control-plane time between detection and
	// the start of the FIB walk (BGP withdraw processing, decision, ARP).
	RouterCtl time.Duration
	// RouterCtlJitter adds a per-run uniform extra in [0, jitter) —
	// run-to-run variance of the router's control plane; this reproduces
	// the spread between the paper's 375 ms best case and 0.9 s worst
	// case at 1k prefixes.
	RouterCtlJitter time.Duration
	// ControllerReact is BFD-expiry→FLOW_MOD-sent latency at the
	// controller.
	ControllerReact time.Duration
	// FlowModLatency is the switch's rule programming time.
	FlowModLatency time.Duration
	// ProbeInterval is the per-flow inter-packet gap of the traffic
	// source (the paper's FPGA: ~14k pkt/s per flow ≈ 70 µs), which is
	// also the measurement quantum.
	ProbeInterval time.Duration

	// Cost prices the controller's work in virtual time (the
	// centralization-economics model). The zero value is the free
	// controller of the original experiments: no tax anywhere, and the
	// event schedule is byte-identical to the pre-cost model.
	Cost ControllerCost

	// Source is the time source the lab runs on. Nil — the default —
	// builds a fresh virtual discrete-event source starting at the Unix
	// epoch: the deterministic lab. A clock.Wall source runs the same
	// engine paced by the system clock (the virtual-vs-real equivalence
	// tests do exactly that); the source must serialize callbacks on the
	// driving goroutine, as Virtual and Wall do — the lab's state is
	// unsynchronized.
	Source clock.Source `json:"-"`

	// Trace, if set, records source-time spans of the convergence
	// pipeline (see internal/telemetry and sim's telemetry.go). Nil — the
	// default — disables tracing entirely.
	Trace *telemetry.Trace `json:"-"`
	// Telemetry, if set, registers the run's metric series on the
	// registry. Nil disables every metric hook.
	Telemetry *telemetry.Registry `json:"-"`
}

// DefaultConfig returns the calibrated configuration for n prefixes.
func DefaultConfig(mode Mode, n int) Config {
	return Config{
		Mode:            mode,
		NumPrefixes:     n,
		NumFlows:        100,
		Seed:            1,
		GroupSize:       2,
		PerEntry:        280 * time.Microsecond,
		BFDInterval:     30 * time.Millisecond,
		BFDMult:         3,
		RouterCtl:       285 * time.Millisecond,
		RouterCtlJitter: 300 * time.Millisecond,
		ControllerReact: 15 * time.Millisecond,
		FlowModLatency:  25 * time.Millisecond,
		ProbeInterval:   70 * time.Microsecond,
	}
}

// ControllerCost models the controller's processing latency: the tax a
// centralized reaction pays between failure-detected and rules-computed
// (Sermpezis & Dimitropoulos, "Can SDN Accelerate BGP Convergence?").
// Every field adds virtual time on the supercharged path only; vanilla
// routers never consult it.
type ControllerCost struct {
	// Base is the fixed per-reaction latency: queueing, scheduling and
	// decision logic at the controller (the paper's E3 reports ~125 ms
	// p99 reaction under load for the prototype).
	Base time.Duration
	// PerUpdate is the per-BGP-UPDATE processing cost, paid on every
	// ingest batch the controller relays (Base + N×PerUpdate).
	PerUpdate time.Duration
	// PerRule is the extra per-FLOW_MOD cost on top of the switch's own
	// programming latency (FlowModLatency).
	PerRule time.Duration
}

// benchPerUpdateNS is the measured cost of the controller's churn filter
// (core.Processor.Process on a suppressed replay), ~252 ns on the
// reference host. A calibration test times that path in-process and
// fails when the two drift apart, so the default cost model stays
// anchored to the measured code.
const benchPerUpdateNS = 252

// DefaultControllerCost is the calibrated cost model: Base from the
// paper's E3 p99 reaction latency, PerUpdate from the measured
// churn-filter cost, PerRule a conservative FLOW_MOD serialization
// allowance.
func DefaultControllerCost() ControllerCost {
	return ControllerCost{
		Base:      125 * time.Millisecond,
		PerUpdate: benchPerUpdateNS * time.Nanosecond,
		PerRule:   500 * time.Microsecond,
	}
}

// provider is one upstream router in the lab.
type provider struct {
	name string
	nh   netip.Addr
	mac  packet.MAC
	port uint16
	as   uint32
	meta bgp.PeerMeta
	up   bool
	// session is the BGP session liveness: true while established. A hard
	// session reset (EventSessionReset without graceful restart) drops it
	// with the link still up — the peer's forwarding state is gone until
	// the session re-establishes and the feed replays.
	session bool

	// feedN caps the provider's advertised table and feedOff rotates the
	// window start (0 = full table from index 0); feed is the rendered
	// view, assigned once the table is generated.
	feedN   int
	feedOff int
	feed    *feed.Table
	// withdrawn marks prefixes the peer has withdrawn while its link stays
	// up (partial-withdraw events): the destination is unreachable via
	// this peer even though the session is alive. withdrawnN is the
	// high-water head count of the withdrawn chunk.
	withdrawn  map[netip.Prefix]bool
	withdrawnN int
	// detect is the pending failure-detection timer (BFD or hold timer),
	// cancelled if the link comes back before it fires.
	detect clock.Timer
}

// forwarding reports whether packets handed to this provider reach their
// destinations: the link is up and the peer's forwarding state exists
// (not flushed by a non-graceful session restart).
func (p *provider) forwarding() bool { return p.up && p.session }

// withDefaults fills zero fields from the calibrated DefaultConfig.
func (cfg Config) withDefaults() Config {
	def := DefaultConfig(cfg.Mode, cfg.NumPrefixes)
	if cfg.NumFlows == 0 {
		cfg.NumFlows = def.NumFlows
	}
	if cfg.GroupSize == 0 {
		cfg.GroupSize = def.GroupSize
	}
	if cfg.PerEntry == 0 {
		cfg.PerEntry = def.PerEntry
	}
	if cfg.BFDInterval == 0 {
		cfg.BFDInterval = def.BFDInterval
	}
	if cfg.BFDMult == 0 {
		cfg.BFDMult = def.BFDMult
	}
	if cfg.RouterCtl == 0 {
		cfg.RouterCtl = def.RouterCtl
	}
	if cfg.RouterCtlJitter == 0 {
		cfg.RouterCtlJitter = def.RouterCtlJitter
	}
	if cfg.ControllerReact == 0 {
		cfg.ControllerReact = def.ControllerReact
	}
	if cfg.FlowModLatency == 0 {
		cfg.FlowModLatency = def.FlowModLatency
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = def.ProbeInterval
	}
	return cfg
}

type lab struct {
	cfg Config
	// clk is the run's time source; every timer and timestamp in the lab
	// goes through it. epoch is the source's time when the lab was built
	// — the origin all reported offsets and trace spans are relative to
	// (Unix(0,0) for the default virtual source).
	clk   clock.Source
	epoch time.Time
	rng   *rand.Rand
	table *feed.Table

	providers []*provider

	// routers are the edge routers under test: one in the classic
	// full-deployment labs, N in partial-deployment timelines where
	// supercharged and vanilla routers share the providers and probes.
	routers []*router

	targets map[packet.MAC]*provider // real MAC -> provider

	// Probes.
	probes map[netip.Prefix]*probe

	// Timeline state.
	tcfg          *TimelineConfig
	events        []*eventState
	base          time.Time
	ctrlDownUntil time.Time

	// Replica failover state: replicasLeft counts live controller
	// replicas; once the last one dies ctrlDead sticks and every
	// controller-mediated reaction is dropped (installed rules keep
	// forwarding — fail-standalone). pending tracks in-flight FLOW_MODs
	// in issue order so a takeover can replay or drop them
	// deterministically.
	replicasLeft int
	ctrlDead     bool
	pending      []*pendingRule

	// Telemetry wiring (zero when disabled; see telemetry.go).
	tracePID  int
	metrics   *simMetrics
	coreWired bool
}

// router is one edge router under test. Partial deployment mixes
// supercharged and vanilla routers in a single run; each keeps its own
// FIB, BGP table, control-plane FIFO and jitter stream, while the
// provider links, the probe set and the (single, shared) controller live
// on the lab. Both classes apply their peers' UPDATEs and failures to rib
// through the same calls (update, RemovePeer); what differs is who reacts
// to the changes: a vanilla router rewrites its FIB from them, a
// supercharged router's controller hands them to proc.React.
type router struct {
	name         string
	idx          int
	supercharged bool
	// rng is the router's control-plane jitter stream. Router 0 shares
	// the lab's stream, so a single-router run draws the exact sequence
	// the pre-refactor lab drew — byte-identical results.
	rng *rand.Rand

	fib *dataplane.FlatFIB
	// rib is the router's BGP view: a vanilla router's own table, the
	// controller's table in front of a supercharged one. changes is its
	// reused per-UPDATE change buffer (see update).
	rib     *bgp.RIB
	changes []bgp.Change

	// Supercharger state (nil on vanilla routers).
	proc   *core.Processor
	engine *core.Engine
	flows  *dataplane.FlowTable // switch table in front of this router
	arp    *core.ARPResponder

	fibBase uint64
	// routerCtlFIFO is the in-order floor of the router's control-plane
	// channel: no batch may be applied before one emitted earlier.
	routerCtlFIFO time.Time
}

// pendingRule is one FLOW_MOD in flight between the controller and the
// switch, tracked so replica failover can replay (durable) or drop
// (non-durable) the batch.
type pendingRule struct {
	at    time.Time // when the rule lands on the original schedule
	timer clock.Timer
	fire  func()
}

// outage is one contiguous blackout window of a probed flow.
type outage struct {
	start, end time.Time
	ended      bool
}

type probe struct {
	prefix  netip.Prefix
	rtr     *router       // the edge router this flow enters through
	phase   time.Duration // probe phase offset in [0, ProbeInterval)
	working bool
	// outages records every blackout window in chronological order; the
	// last entry is open while the flow is down.
	outages []outage
}

// open starts a new outage window unless one is already open.
func (p *probe) open(at time.Time) {
	if n := len(p.outages); n > 0 && !p.outages[n-1].ended {
		return
	}
	p.outages = append(p.outages, outage{start: at})
}

// closeAt ends the open outage window, if any.
func (p *probe) closeAt(at time.Time) {
	if n := len(p.outages); n > 0 && !p.outages[n-1].ended {
		p.outages[n-1].end = at
		p.outages[n-1].ended = true
	}
}

// newLab builds the lab. peers parameterizes the provider topology (R2
// preferred, then descending, unless weights say otherwise). routers
// parameterizes the deployment; nil builds the classic single edge router
// whose class follows cfg.Mode.
func newLab(cfg Config, peers []PeerSpec, routers []RouterSpec) *lab {
	src := cfg.Source
	if src == nil {
		src = clock.NewVirtualAtZero()
	}
	l := &lab{
		cfg:     cfg,
		clk:     src,
		epoch:   src.Now(),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		probes:  make(map[netip.Prefix]*probe),
		targets: make(map[packet.MAC]*provider),
	}
	if len(routers) == 0 {
		routers = []RouterSpec{{Supercharged: cfg.Mode == Supercharged}}
	}
	for i, spec := range routers {
		r := &router{name: spec.Name, idx: i, supercharged: spec.Supercharged, rng: l.rng}
		if r.name == "" {
			if len(routers) == 1 {
				r.name = "R1"
			} else {
				r.name = fmt.Sprintf("E%d", i+1)
			}
		}
		if i > 0 {
			// Routers after the first get their own jitter stream; the
			// large odd stride keeps per-router sequences disjoint for
			// nearby seeds.
			r.rng = rand.New(rand.NewSource(cfg.Seed + int64(i)*1_000_003))
		}
		l.routers = append(l.routers, r)
	}
	// Provider peers: R2 (primary, preferred via weight), R3, R4...
	for i, spec := range peers {
		p := &provider{
			name:    spec.Name,
			nh:      netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)}),
			mac:     packet.MAC{0x01 + byte(i)*0x11, 0xaa, 0, 0, 0, byte(i + 1)},
			port:    uint16(i + 2), // port 1 is the router
			as:      uint32(65002 + i),
			up:      true,
			session: true,
			feedN:   spec.Prefixes,
			feedOff: spec.Offset,
		}
		if p.name == "" {
			p.name = fmt.Sprintf("R%d", i+2)
		}
		weight := spec.Weight
		if weight == 0 {
			// Highest weight on R2, decreasing after: the paper's "R1 is
			// configured to prefer R2 for all destinations". Anchored high
			// so the auto weights stay positive and distinct for any
			// number of peers.
			weight = uint32(1_000_000 - i)
		}
		p.meta = bgp.PeerMeta{Addr: p.nh, AS: p.as, ID: p.nh, Weight: weight}
		l.providers = append(l.providers, p)
		l.targets[p.mac] = p
	}
	return l
}

// assignFeeds renders each provider's advertised table view: the full
// table, a head-anchored cap, or a rotated circular window.
func (l *lab) assignFeeds() {
	for _, prov := range l.providers {
		switch {
		case prov.feedOff > 0:
			n := prov.feedN
			if n <= 0 || n > l.table.Len() {
				n = l.table.Len()
			}
			prov.feed = l.table.Window(prov.feedOff, n)
		case prov.feedN > 0 && prov.feedN < l.table.Len():
			prov.feed = l.table.Head(prov.feedN)
		default:
			prov.feed = l.table
		}
	}
}

// quantizedGap reproduces the FPGA methodology: the maximum inter-packet
// gap seen by the flow across an outage, i.e. first probe delivered after
// recovery minus last probe delivered before the blackout.
func (l *lab) quantizedGap(pr *probe, o outage) time.Duration {
	iv := l.cfg.ProbeInterval
	// Last probe at or before the blackout started.
	lastBefore := alignDown(o.start.Sub(l.epoch)-pr.phase, iv) + pr.phase
	// First probe at or after recovery.
	firstAfter := alignUp(o.end.Sub(l.epoch)-pr.phase, iv) + pr.phase
	return firstAfter - lastBefore
}

func alignDown(d, q time.Duration) time.Duration {
	if q <= 0 {
		return d
	}
	return d - d%q
}

func alignUp(d, q time.Duration) time.Duration {
	if q <= 0 {
		return d
	}
	if r := d % q; r != 0 {
		return d + q - r
	}
	return d
}

func (l *lab) sortedProbes() []*probe {
	out := make([]*probe, 0, len(l.probes))
	for _, p := range l.probes {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].prefix.String() < out[j].prefix.String() })
	return out
}

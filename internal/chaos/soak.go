package chaos

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"supercharged/internal/bgp"
	"supercharged/internal/clock"
	"supercharged/internal/daemon"
	"supercharged/internal/feed"
	"supercharged/internal/telemetry"
)

// SoakConfig assembles one chaos soak: a daemon replaying a table from
// several peers into several FIB sinks, everything wrapped in one fault
// plan, with fast-recovery policies and the invariants checked at the
// end.
type SoakConfig struct {
	// Table is the feed every peer replays (required).
	Table *feed.Table
	// Peers and Routers size the pipeline (defaults 2 and 2).
	Peers   int
	Routers int
	// Rate paces each peer in routes/sec (0 = unpaced).
	Rate int
	// Seed keys the fault plan AND the policies' backoff jitter: one
	// number reproduces the whole run's schedule.
	Seed uint64
	// Faults is the injected mix (zero = fault-free control run).
	Faults Config
	// Delivery/Reconnect replace the soak's fast-recovery policies when
	// non-zero (a zero Delivery would otherwise mean the daemon's
	// serve-paced default, a zero Reconnect none at all).
	Delivery  daemon.DeliveryPolicy
	Reconnect daemon.ReconnectPolicy
	// Timeout bounds the replay (default 60s); DrainTimeout bounds the
	// graceful drain-and-heal (default 30s).
	Timeout      time.Duration
	DrainTimeout time.Duration
	// Clock drives everything (nil = system).
	Clock clock.Clock
	// Telemetry/Trace/Logf are passed through to the daemon and plan.
	Telemetry *telemetry.Registry
	Trace     *telemetry.Trace
	Logf      func(format string, args ...any)
}

// RouterReport is one sink's post-drain accounting.
type RouterReport struct {
	Name     string
	Entries  int
	Batches  uint64
	Gaps     uint64
	Healed   uint64
	Unhealed int
	Stale    uint64
	Hash     uint64
	Breaker  string
}

// SoakReport is the soak's outcome: per-router state, the RIB's own
// best-path hash, the injected fault tally, and every invariant
// violation found. An empty Violations slice is a passed soak.
type SoakReport struct {
	Seed        uint64
	RIBPrefixes int
	RIBHash     uint64
	Routers     []RouterReport
	Faults      map[string]uint64
	Violations  []string
}

// Ok reports whether every invariant held.
func (r *SoakReport) Ok() bool { return len(r.Violations) == 0 }

func (r *SoakReport) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// String renders the report for logs and the chaoscheck CLI.
func (r *SoakReport) String() string {
	s := fmt.Sprintf("soak seed=%d: rib=%d prefixes hash=%016x faults=%v\n",
		r.Seed, r.RIBPrefixes, r.RIBHash, r.Faults)
	for _, rt := range r.Routers {
		s += fmt.Sprintf("  router %s: %d entries, %d batches, %d gaps (%d healed, %d unhealed), %d stale, breaker %s, hash=%016x\n",
			rt.Name, rt.Entries, rt.Batches, rt.Gaps, rt.Healed, rt.Unhealed, rt.Stale, rt.Breaker, rt.Hash)
	}
	if r.Ok() {
		s += "  invariants: all held"
	} else {
		for _, v := range r.Violations {
			s += "  VIOLATION: " + v + "\n"
		}
	}
	return s
}

// soakMeta is the i-th peer's session identity. Peer 0 carries Weight
// 100, so the converged best path for every prefix is peer 0's — a
// final state that does not depend on which faults fired in between,
// which is what makes the final FIB hash comparable across mixes and
// against the fault-free control run.
func soakMeta(i int) bgp.PeerMeta {
	addr := netip.AddrFrom4([4]byte{203, 0, 113, byte(10 + i)})
	m := bgp.PeerMeta{Addr: addr, AS: 65001 + uint32(i), ID: addr}
	if i == 0 {
		m.Weight = 100
	}
	return m
}

// RunSoak runs one soak and checks the resilience invariants:
//
//  1. the replay finishes and the graceful drain completes mid-fault
//     without recording errors;
//  2. no silent update loss — every sink's FIB matches the RIB's
//     best-path snapshot byte-for-byte, and all sinks agree;
//  3. every observed sequence gap was healed by a resync (no missing
//     ranges survive the drain);
//  4. every breaker re-closed.
//
// The per-entity fault budget is what makes these provable: the storm
// is finite, so the reconnect policy's attempt budget (sized past the
// fault budget) always gets a clean final session, and the delivery
// path's drain-time healing always finds a fault-free resync.
func RunSoak(cfg SoakConfig) *SoakReport {
	if cfg.Peers <= 0 {
		cfg.Peers = 2
	}
	if cfg.Routers <= 0 {
		cfg.Routers = 2
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System
	}
	plan := NewPlan(cfg.Faults, cfg.Seed, clk).WithTelemetry(cfg.Telemetry)

	if cfg.Delivery == (daemon.DeliveryPolicy{}) {
		cfg.Delivery = daemon.DeliveryPolicy{
			PushTimeout:      200 * time.Millisecond,
			RetryBudget:      4,
			BackoffBase:      2 * time.Millisecond,
			BackoffMax:       20 * time.Millisecond,
			JitterFrac:       0.2,
			BreakerThreshold: 3,
			BreakerCooldown:  20 * time.Millisecond,
			BufferBytes:      1 << 20,
			Seed:             cfg.Seed,
		}
	}
	if !cfg.Reconnect.Enabled() {
		cfg.Reconnect = daemon.ReconnectPolicy{
			// One reconnect per possible injected session failure, plus
			// slack: the budget guarantees a clean final session.
			MaxAttempts: plan.cfg.MaxFaults + 2,
			Backoff:     5 * time.Millisecond,
			BackoffMax:  50 * time.Millisecond,
			JitterFrac:  0.2,
			Seed:        cfg.Seed,
		}
	}

	sources := make([]daemon.PeerSource, cfg.Peers)
	for i := range sources {
		sources[i] = plan.Source(&daemon.TableReplay{
			PeerName: fmt.Sprintf("peer%d", i),
			Meta:     soakMeta(i),
			Table:    cfg.Table,
			Rate:     cfg.Rate,
			Clock:    clk,
		})
	}
	fibs := make([]*daemon.FIBSink, cfg.Routers)
	routers := make([]daemon.RouterSink, cfg.Routers)
	for i := range routers {
		fibs[i] = daemon.NewFIBSink(fmt.Sprintf("edge%d", i))
		routers[i] = plan.Sink(fibs[i])
	}

	d := daemon.New(daemon.Config{
		Sources:   sources,
		Routers:   routers,
		Clock:     clk,
		Telemetry: cfg.Telemetry,
		Trace:     cfg.Trace,
		Delivery:  cfg.Delivery,
		Reconnect: cfg.Reconnect,
		Logf:      cfg.Logf,
	})

	rep := &SoakReport{Seed: cfg.Seed}
	d.Start(context.Background())
	waitCtx, cancelWait := context.WithTimeout(context.Background(), cfg.Timeout)
	waitErr := d.Wait(waitCtx)
	cancelWait()
	if waitErr != nil {
		rep.violate("replay did not finish within %v: %v", cfg.Timeout, waitErr)
	}
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), cfg.DrainTimeout)
	drainErr := d.Drain(drainCtx)
	cancelDrain()
	if drainErr != nil {
		rep.violate("drain: %v", drainErr)
	}

	ribEntries := snapshotEntries(d)
	rep.RIBPrefixes = len(ribEntries)
	rep.RIBHash = daemon.HashEntries(ribEntries)
	rep.Faults = plan.Stats()
	states := d.DeliveryStates()

	for _, fib := range fibs {
		st := fib.State()
		rr := RouterReport{
			Name:     fib.Name(),
			Entries:  fib.Len(),
			Batches:  fib.Batches(),
			Gaps:     st.Gaps,
			Healed:   st.Healed,
			Unhealed: len(st.Missing),
			Stale:    st.Stale,
			Hash:     fib.Hash(),
			Breaker:  states[fib.Name()],
		}
		rep.Routers = append(rep.Routers, rr)
		if rr.Unhealed > 0 {
			rep.violate("router %s: %d unhealed gap ranges: %v", rr.Name, rr.Unhealed, st.Missing)
		}
		if rr.Breaker != "" && rr.Breaker != "closed" {
			rep.violate("router %s: breaker left %s", rr.Name, rr.Breaker)
		}
		if diff := diffEntries(ribEntries, fib.Entries()); diff != "" {
			rep.violate("router %s: FIB diverges from RIB: %s", rr.Name, diff)
		}
	}
	return rep
}

// snapshotEntries flattens the daemon's post-drain RIB to the sorted
// entry form sinks are compared against.
func snapshotEntries(d *daemon.Daemon) []daemon.FIBEntry {
	changes := d.RIB().Snapshot(nil)
	entries := make([]daemon.FIBEntry, 0, len(changes))
	for _, ch := range changes {
		if ch.NextHop.IsValid() {
			entries = append(entries, daemon.FIBEntry{Prefix: ch.Prefix, NextHop: ch.NextHop})
		}
	}
	daemon.SortFIBEntries(entries)
	return entries
}

// diffEntries compares two sorted entry lists byte-for-byte, returning
// "" on equality or a description of the first divergence.
func diffEntries(want, got []daemon.FIBEntry) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Sprintf("entry %d is %v->%v, want %v->%v",
				i, got[i].Prefix, got[i].NextHop, want[i].Prefix, want[i].NextHop)
		}
	}
	return ""
}

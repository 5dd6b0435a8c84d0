package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/netip"
	"os"
	"os/signal"
	"syscall"
	"time"

	"supercharged/internal/bgp"
	"supercharged/internal/chaos"
	"supercharged/internal/clock"
	"supercharged/internal/daemon"
	"supercharged/internal/feed"
	"supercharged/internal/telemetry"
)

// serveMain is the `supercharged serve` subcommand: the concurrent
// controller daemon under replayed load. Synthetic or MRT-sourced
// tables stream in from N peers, the sharded RIB converges them, and
// batched best-path changes fan out to the simulated downstream
// routers, with live observability on -listen (/metrics, /debug/pprof).
// SIGINT/SIGTERM (or -duration) trigger a graceful drain.
func serveMain(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:9090", "telemetry listen address (/metrics, /debug/pprof)")
	peers := fs.Int("peers", 4, "number of upstream peers")
	prefixes := fs.Int("prefixes", 50000, "prefixes per synthetic peer table (ignored with -mrt)")
	seed := fs.Int64("seed", 1, "synthetic table seed (ignored with -mrt)")
	mrtPath := fs.String("mrt", "", "replay this MRT TABLE_DUMP_V2 file instead of a synthetic table")
	rate := fs.Int("rate", 0, "per-peer replay rate in routes/s (0 = unpaced)")
	loop := fs.Int("loop", 0, "extra replays of each peer's table after the initial announcement")
	routers := fs.Int("routers", 2, "number of downstream routers (FIB sinks)")
	shards := fs.Int("shards", 8, "RIB lock shards")
	duration := fs.Duration("duration", 0, "stop and drain after this long (0 = run until signal)")
	failAfter := fs.Int("fail-after", 0, "fail the first peer's session after this many routes (0 = never)")
	chaosOn := fs.Bool("chaos", false, "inject seeded faults (drops, stalls, crashes) into every source and sink, and reconnect crashed sessions")
	chaosMix := fs.String("chaos-mix", "all", "fault mix with -chaos: drop, stall, crash, corrupt, jitter or all")
	chaosSeed := fs.Int64("chaos-seed", 1, "fault schedule seed with -chaos")
	fs.Parse(args)
	if *peers < 1 {
		log.Fatal("serve: -peers must be >= 1")
	}

	// Load generators: every peer replays the same table (a multihomed
	// prefix set), the first with elevated weight so a scripted
	// -fail-after exercises the failover path end to end.
	var table *feed.Table
	if *mrtPath != "" {
		f, err := os.Open(*mrtPath)
		if err != nil {
			log.Fatal(err)
		}
		dump, err := feed.FromMRT(f)
		f.Close()
		if err != nil {
			log.Fatalf("serve: parse MRT %s: %v", *mrtPath, err)
		}
		table = dump.Table
		log.Printf("serve: MRT table %s: %d prefixes", *mrtPath, table.Len())
	} else {
		table = feed.Generate(feed.Config{N: *prefixes, Seed: *seed})
		log.Printf("serve: synthetic table: %d prefixes (seed %d)", table.Len(), *seed)
	}
	sources := make([]daemon.PeerSource, *peers)
	for i := range sources {
		meta := bgp.PeerMeta{
			Addr: netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)}),
			AS:   uint32(65001 + i),
			ID:   netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)}),
		}
		src := &daemon.TableReplay{
			PeerName: fmt.Sprintf("peer%d", i),
			Meta:     meta,
			Table:    table,
			Rate:     *rate,
			Loop:     *loop,
		}
		if i == 0 {
			src.Meta.Weight = 100
			src.FailAfter = *failAfter
		}
		sources[i] = src
	}

	sinks := make([]daemon.RouterSink, *routers)
	routerSinks := make([]*daemon.FIBSink, *routers)
	for i := range sinks {
		s := daemon.NewFIBSink(fmt.Sprintf("edge%d", i))
		routerSinks[i] = s
		sinks[i] = s
	}

	reg := telemetry.NewRegistry()
	srv, err := telemetry.Serve(*listen, reg, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	log.Printf("serve: metrics on http://%s/metrics", srv.Addr)

	cfg := daemon.Config{
		Sources:   sources,
		Routers:   sinks,
		Shards:    *shards,
		SizeHint:  table.Len(),
		Telemetry: reg,
		Logf:      log.Printf,
	}

	// -chaos wraps every source and sink in a seeded fault plan, keys the
	// delivery loop's backoff jitter to the same seed and lets crashed
	// sessions reconnect. Delivery itself (retries, breakers, resync) is
	// the same with and without it.
	var plan *chaos.Plan
	if *chaosOn {
		mix, err := chaos.Mix(*chaosMix)
		if err != nil {
			log.Fatal(err)
		}
		mix = clampCrashPoint(mix, table)
		plan = chaos.NewPlan(mix, uint64(*chaosSeed), clock.System).WithTelemetry(reg)
		for i := range sources {
			sources[i] = plan.Source(sources[i])
		}
		for i := range sinks {
			sinks[i] = plan.Sink(sinks[i])
		}
		cfg.Sources, cfg.Routers = sources, sinks
		cfg.Delivery.Seed = uint64(*chaosSeed)
		cfg.Reconnect = daemon.DefaultReconnectPolicy()
		cfg.Reconnect.Seed = uint64(*chaosSeed)
		// Ride out the whole per-entity fault budget: a peer must never
		// exhaust its reconnect attempts while the plan can still crash it.
		cfg.Reconnect.MaxAttempts = chaos.DefaultMaxFaults + 2
		log.Printf("serve: chaos on: mix %s, seed %d", *chaosMix, *chaosSeed)
	}

	d := daemon.New(cfg)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	d.Start(ctx)
	// Idle until the feeds end on their own or a signal/-duration cancels
	// them, then drain: final flush, queues closed, every queued batch
	// applied before the process reports its summary.
	if err := d.Wait(ctx); err != nil {
		log.Printf("serve: shutdown requested (%v), draining", err)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Drain(drainCtx); err != nil {
		log.Printf("serve: drain: %v", err)
	}
	log.Printf("serve: final RIB %d prefixes across %d shards", d.RIB().Len(), *shards)
	states := d.DeliveryStates()
	for _, s := range routerSinks {
		log.Printf("serve: router %s: %d FIB entries, %d batches, %d gaps",
			s.Name(), s.Len(), s.Batches(), s.Gaps())
		st := s.State()
		log.Printf("serve: router %s: recovery: %d healed, %d unhealed, %d stale, breaker %s",
			s.Name(), st.Healed, len(st.Missing), st.Stale, states[s.Name()])
	}
	if plan != nil {
		unhealed := 0
		for _, s := range routerSinks {
			unhealed += s.Unhealed()
		}
		log.Printf("serve: chaos: mix %s seed %d injected %v, %d unhealed gap ranges",
			*chaosMix, *chaosSeed, plan.Stats(), unhealed)
	}
}

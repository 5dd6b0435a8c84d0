package main

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"supercharged/internal/bgp"
	"supercharged/internal/daemon"
)

// serve-fulltable: the paper's event at service scale. Two peers announce the
// same table into a fresh daemon, then the preferred peer's session fails and
// every prefix moves to the backup.

type fulltableCycle struct {
	loadRoutesPerS float64
	failoverMS     float64
	failoverHalfMS float64
	withdrawMS     float64
	applyMS        float64
	heapMB         float64
}

// fulltableSetup renders the feed and runs one cycle that is not timed: it
// lets the runtime grow its heap and the scheduler settle, a cost the users of
// a long-running service never see, and one that belongs to set-up.
func fulltableSetup(e *env) (any, error) {
	f, err := newServeFeed(e)
	if err != nil {
		return nil, err
	}
	warm := newResult(wlFulltable)
	runFulltableCycle(e, f, warm)
	if warm.Failed > 0 {
		return nil, fmt.Errorf("warm-up cycle: %s", strings.Join(warm.Fails, "; "))
	}
	return f, nil
}

func fulltableMeasure(e *env, state any) *result {
	f := state.(*serveFeed)
	res := newResult(wlFulltable)
	start := time.Now()
	before := memStats()

	var cycles []fulltableCycle
	var lastSinks []*recSink
	for n := 0; e.budget(start, n); n++ {
		c, sinks := runFulltableCycle(e, f, res)
		res.Ops++
		cycles = append(cycles, c)
		lastSinks = sinks
	}
	after := memStats()
	res.Wall = time.Since(start)

	col := func(get func(fulltableCycle) float64) value { return medianOf(column(cycles, get)) }
	res.Named["load_routes_per_s"] = col(func(c fulltableCycle) float64 { return c.loadRoutesPerS })
	res.Named["failover_half_ms"] = col(func(c fulltableCycle) float64 { return c.failoverHalfMS })
	res.Named["failover_ms"] = col(func(c fulltableCycle) float64 { return c.failoverMS })
	res.Named["loaded_heap_mb"] = col(func(c fulltableCycle) float64 { return c.heapMB })

	res.Layer["daemon.failover.withdraw_ms"] = col(func(c fulltableCycle) float64 { return c.withdrawMS }).V
	res.Layer["daemon.failover.apply_ms"] = col(func(c fulltableCycle) float64 { return c.applyMS }).V
	sinkTotals(res, lastSinks, []int{0, 0}, 3*f.routes)
	res.runtimeLayer(before, after, len(cycles)*2*f.routes)
	return res
}

// runFulltableCycle is one load + failover on a fresh daemon.
func runFulltableCycle(e *env, f *serveFeed, res *result) (fulltableCycle, []*recSink) {
	var c fulltableCycle
	base := heapInuse()
	epoch := time.Now()
	sinks := []*recSink{newRecSink("edge0", epoch, e), newRecSink("edge1", epoch, e)}

	var firstEmit, failedAt atomic.Int64 // offsets from epoch, ns
	stampFirst := func() { firstEmit.CompareAndSwap(0, int64(time.Since(epoch))) }
	loaded := make(chan struct{}, 2)
	fail := make(chan struct{})

	backup := &scriptSource{meta: backupPeer, tr: e.tr, script: func(ctx context.Context, emit func(*bgp.Update) error) error {
		stampFirst()
		err := emitAll(f.upds[backupPeer.Addr], emit)
		loaded <- struct{}{}
		return err
	}}
	preferred := &scriptSource{meta: preferredPeer, tr: e.tr, script: func(ctx context.Context, emit func(*bgp.Update) error) error {
		stampFirst()
		err := emitAll(f.upds[preferredPeer.Addr], emit)
		loaded <- struct{}{}
		if err != nil {
			return err
		}
		select {
		case <-fail:
			failedAt.Store(int64(time.Since(epoch)))
			return daemon.ErrSessionFailed
		case <-ctx.Done():
			return ctx.Err()
		}
	}}

	d := daemon.New(daemon.Config{
		Sources: []daemon.PeerSource{backup, preferred},
		Routers: []daemon.RouterSink{sinks[0], sinks[1]},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d.Start(ctx)
	defer func() {
		dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer dcancel()
		res.check(d.Drain(dctx) == nil, "serve-fulltable: drain failed")
	}()

	// Load: both peers announce the table; done when both sinks hold it
	// and the queues are empty.
	<-loaded
	<-loaded
	loadEnd, ok := quiesce(sinks, 60*time.Second)
	res.check(ok, "serve-fulltable: load did not drain")
	c.loadRoutesPerS = float64(2*f.routes) / (loadEnd - time.Duration(firstEmit.Load())).Seconds()
	// The full FIB-against-RIB comparison runs once per cycle, after the
	// failover; here every sink must hold the table via the preferred peer.
	for _, s := range sinks {
		res.check(s.Len() == f.routes, "serve-fulltable: sink %s holds %d entries after load, want %d", s.Name(), s.Len(), f.routes)
		for i := 0; i < f.routes; i += 997 {
			nh, _ := s.NextHop(f.table.Routes[i].Prefix)
			res.check(nh == preferredPeer.Addr, "serve-fulltable: sink %s resolves %s via %s after load", s.Name(), f.table.Routes[i].Prefix, nh)
		}
	}
	c.heapMB = (heapInuse() - base) / (1 << 20)

	// Failover: the preferred peer's Run returns ErrSessionFailed; done when
	// both sinks hold the backup next-hop for every prefix.
	marks := []int{sinks[0].mark(), sinks[1].mark()}
	close(fail)
	deadline := time.Now().Add(60 * time.Second)
	for d.RIB().PeerLen(preferredPeer.Addr) > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	_, ok = quiesce(sinks, 60*time.Second)
	res.check(ok, "serve-fulltable: failover did not drain")
	t0 := time.Duration(failedAt.Load())

	firstEntry, lastRet, half := time.Duration(1<<62), time.Duration(0), time.Duration(0)
	for i, s := range sinks {
		recs := s.since(marks[i])
		total := 0
		for _, r := range recs {
			total += r.n
		}
		res.check(total >= f.routes, "serve-fulltable: sink %s saw %d changes after the failure, want at least %d", s.Name(), total, f.routes)
		seen := 0
		sinkHalf := time.Duration(0)
		for _, r := range recs {
			firstEntry = min(firstEntry, r.entry)
			lastRet = max(lastRet, r.ret)
			if seen < (total+1)/2 && seen+r.n >= (total+1)/2 {
				sinkHalf = r.ret
			}
			seen += r.n
		}
		half = max(half, sinkHalf)
	}
	if lastRet > t0 && firstEntry >= t0 {
		c.failoverMS = ms(lastRet - t0)
		c.failoverHalfMS = ms(half - t0)
		c.withdrawMS = ms(firstEntry - t0)
		c.applyMS = ms(lastRet - firstEntry)
	} else {
		res.check(false, "serve-fulltable: no withdraw batch reached the sinks after the failure")
	}

	want := verifySinks(res, "serve-fulltable failover", d.RIB(), sinks)
	onBackup := 0
	for _, en := range want {
		if en.NextHop == backupPeer.Addr {
			onBackup++
		}
	}
	res.check(len(want) == f.routes && onBackup == f.routes, "serve-fulltable: %d of %d prefixes on the backup after failover, want %d", onBackup, len(want), f.routes)
	e.logf("  cycle: load %.0f routes/s, failover %.1f ms (half %.1f, withdraw %.1f + apply %.1f), heap %.1f MB",
		c.loadRoutesPerS, c.failoverMS, c.failoverHalfMS, c.withdrawMS, c.applyMS, c.heapMB)
	return c, sinks
}

// fulltableIsolated replays the workload's inputs through single public
// functions of the bgp and daemon layers.
func fulltableIsolated(e *env, state any, res *result) {
	f := state.(*serveFeed)
	isolatedRIB(e, f, res)
	isolatedShardedRIB(e, f, res)
	ingestLayer(res, e.tr)
}

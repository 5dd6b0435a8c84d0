package main

import (
	"context"
	"net/netip"
	"sync"
	"time"

	"supercharged/internal/bgp"
	"supercharged/internal/daemon"
	"supercharged/internal/feed"
)

// The serve workloads drive internal/daemon through its two extension
// points: a PeerSource per upstream peer and a RouterSink per downstream
// router. Both are the harness's own, so every stamp is taken in this
// package and the daemon runs exactly as `supercharged serve` runs it.

var (
	preferredPeer = bgp.PeerMeta{
		Addr: netip.MustParseAddr("203.0.113.1"), ID: netip.MustParseAddr("203.0.113.1"),
		AS: 65001, Weight: 200,
	}
	backupPeer = bgp.PeerMeta{
		Addr: netip.MustParseAddr("203.0.113.2"), ID: netip.MustParseAddr("203.0.113.2"),
		AS: 65002, Weight: 100,
	}
)

// quietFor is how long every sink must have been idle before the pipeline
// counts as drained: three batch intervals, so a batch still waiting for the
// daemon's 50 ms flush timer cannot be missed.
const quietFor = 150 * time.Millisecond

// scriptSource is a PeerSource whose session is a function. In a traced run
// it wraps emit in a span, which is where daemon.ingest.* comes from.
type scriptSource struct {
	meta   bgp.PeerMeta
	tr     *tracer
	script func(ctx context.Context, emit func(*bgp.Update) error) error
}

func (s *scriptSource) Peer() bgp.PeerMeta { return s.meta }
func (s *scriptSource) Name() string       { return s.meta.Addr.String() }

func (s *scriptSource) Run(ctx context.Context, emit func(*bgp.Update) error) error {
	if s.tr != nil {
		inner, thread := emit, "source "+s.Name()
		emit = func(u *bgp.Update) error {
			t0 := time.Now()
			err := inner(u)
			s.tr.add("daemon.ingest.emit", thread, t0, time.Since(t0), len(u.NLRI)+len(u.Withdrawn))
			return err
		}
	}
	return s.script(ctx, emit)
}

// emitAll streams updates through emit until one fails.
func emitAll(upds []*bgp.Update, emit func(*bgp.Update) error) error {
	for _, u := range upds {
		if err := emit(u); err != nil {
			return err
		}
	}
	return nil
}

// batchRec is what the sink wrapper keeps of one delivered batch, as offsets
// from the run's epoch.
type batchRec struct {
	at    time.Duration // Batch.At: the flush instant
	entry time.Duration // Apply entered
	ret   time.Duration // Apply returned
	n     int
}

// recSink wraps a daemon.FIBSink and records, per batch, when it was flushed,
// when Apply was entered and when it returned.
type recSink struct {
	*daemon.FIBSink
	epoch time.Time
	tr    *tracer
	// drop, when non-zero, swallows the batch with that sequence number:
	// the fault the smoke test injects to prove the checks catch a loss.
	drop uint64

	mu      sync.Mutex
	recs    []batchRec
	errs    int
	busy    bool
	lastRet time.Duration
	lastSeq uint64
	// stamp, when set, sees every applied batch on the delivery goroutine
	// (the churn workload attributes changes to UPDATEs there).
	stamp func(b daemon.Batch, rec batchRec)
}

func newRecSink(name string, epoch time.Time, e *env) *recSink {
	return &recSink{FIBSink: daemon.NewFIBSink(name), epoch: epoch, tr: e.tr, drop: e.dropSeq}
}

func (s *recSink) Apply(b daemon.Batch) error {
	s.mu.Lock()
	s.busy = true
	stamp := s.stamp
	s.mu.Unlock()

	t0 := time.Now()
	var err error
	if s.drop == 0 || b.Seq != s.drop {
		err = s.FIBSink.Apply(b)
	}
	dur := time.Since(t0)
	rec := batchRec{at: b.At.Sub(s.epoch), entry: t0.Sub(s.epoch), n: len(b.Changes)}
	rec.ret = rec.entry + dur
	s.tr.add("daemon.sink.apply", "sink "+s.Name(), t0, dur, rec.n)
	if stamp != nil {
		stamp(b, rec)
	}

	s.mu.Lock()
	s.recs = append(s.recs, rec)
	if err != nil {
		s.errs++
	}
	s.busy = false
	s.lastRet = rec.ret
	s.lastSeq = b.Seq
	s.mu.Unlock()
	return err
}

func (s *recSink) setStamp(f func(daemon.Batch, batchRec)) {
	s.mu.Lock()
	s.stamp = f
	s.mu.Unlock()
}

// mark returns how many batches the sink has seen, so a later phase can tell
// its own batches from earlier ones.
func (s *recSink) mark() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// since returns the batches recorded after mark.
func (s *recSink) since(mark int) []batchRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]batchRec(nil), s.recs[mark:]...)
}

func (s *recSink) applyErrors() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errs
}

// quiesce blocks until the pipeline has drained: no sink is inside Apply,
// all have applied the same last batch, and none has applied anything for
// quietFor. It returns the instant of the last Apply return, which is when
// the work actually ended.
func quiesce(sinks []*recSink, timeout time.Duration) (last time.Duration, ok bool) {
	epoch := sinks[0].epoch
	called := time.Since(epoch)
	for {
		now := time.Since(epoch)
		quiet := true
		last = 0
		var seq uint64
		for i, s := range sinks {
			s.mu.Lock()
			busy, ret, sq := s.busy, s.lastRet, s.lastSeq
			s.mu.Unlock()
			if i == 0 {
				seq = sq
			}
			if busy || sq != seq || now-max(ret, called) < quietFor {
				quiet = false
			}
			last = max(last, ret)
		}
		if quiet {
			return last, true
		}
		if now-called > timeout {
			return last, false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// verifySinks is the serve workloads' correctness check: every sink's FIB
// hashes to the RIB's sorted best-path snapshot, no Apply failed and no
// batch sequence number was skipped. It returns the snapshot.
func verifySinks(res *result, what string, rib *daemon.ShardedRIB, sinks []*recSink) []daemon.FIBEntry {
	snap := rib.Snapshot(nil)
	want := make([]daemon.FIBEntry, len(snap))
	for i, ch := range snap {
		want[i] = daemon.FIBEntry{Prefix: ch.Prefix, NextHop: ch.NextHop}
	}
	daemon.SortFIBEntries(want)
	wantHash := daemon.HashEntries(want)
	for _, s := range sinks {
		res.check(s.Hash() == wantHash, "%s: sink %s: FIB hash differs from the RIB snapshot (%d entries vs %d)", what, s.Name(), s.Len(), len(want))
		res.check(s.applyErrors() == 0, "%s: sink %s: %d Apply errors", what, s.Name(), s.applyErrors())
		res.check(s.Gaps() == 0, "%s: sink %s: %d sequence gaps", what, s.Name(), s.Gaps())
	}
	return want
}

// serveFeed is the table both serve workloads announce, rendered once per
// peer in set-up so that the timed part measures the daemon and not the
// feed generator.
type serveFeed struct {
	table  *feed.Table
	routes int
	upds   map[netip.Addr][]*bgp.Update
}

func newServeFeed(e *env) (*serveFeed, error) {
	f := &serveFeed{
		table: feed.Generate(feed.Config{N: e.sc.prefixes, Seed: e.seed}),
		upds:  make(map[netip.Addr][]*bgp.Update),
	}
	f.routes = f.table.Len()
	for _, p := range []bgp.PeerMeta{preferredPeer, backupPeer} {
		u, err := f.table.Updates(p.AS, p.Addr, bgp.Codec{})
		if err != nil {
			return nil, err
		}
		f.upds[p.Addr] = u
	}
	return f, nil
}

// sinkTotals summarises the batches the sinks saw after marks for the
// daemon.sink.* and daemon.batch.* layer metrics.
func sinkTotals(res *result, sinks []*recSink, marks []int, routesOffered int) {
	var batches, changes int
	var apply time.Duration
	gaps := 0
	for i, s := range sinks {
		for _, r := range s.since(marks[i]) {
			batches++
			changes += r.n
			apply += r.ret - r.entry
		}
		gaps += s.Gaps()
	}
	if batches == 0 || changes == 0 {
		return
	}
	res.Layer["daemon.batch.count"] = float64(batches) / float64(len(sinks))
	res.Layer["daemon.batch.changes_per_batch"] = float64(changes) / float64(batches)
	res.Layer["daemon.sink.apply_ns_per_change"] = float64(apply) / float64(changes)
	res.Layer["daemon.sink.gaps"] = float64(gaps)
	if routesOffered > 0 {
		res.Layer["daemon.rib.change_ratio"] = float64(changes) / float64(len(sinks)) / float64(routesOffered)
	}
}

// ingestLayer fills daemon.ingest.* from the emit spans: the in-situ cost per
// route, and the share of the two sources' time spent above the isolated cost
// of the same RIB work (waiting for a shard lock, the batch mutex or a full
// queue). It needs daemon.rib.update_emit_ns_per_route, so it runs last.
func ingestLayer(res *result, tr *tracer) {
	const sources = 2
	wall := res.Wall
	emit := tr.total("daemon.ingest.emit")
	if emit.n == 0 {
		return
	}
	res.Layer["daemon.ingest.emit_ns_per_route"] = emit.perUnit()
	isolated := time.Duration(res.Layer["daemon.rib.update_emit_ns_per_route"] * float64(emit.n))
	if blocked := emit.dur - isolated; blocked > 0 && wall > 0 {
		res.Layer["daemon.ingest.blocked_share"] = float64(blocked) / float64(wall) / sources
	}
}

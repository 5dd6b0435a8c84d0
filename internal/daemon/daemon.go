// Package daemon is the long-running controller service behind
// `supercharged serve`: the batch lab's control plane turned into a
// concurrent pipeline. Per-peer ingestion goroutines stream BGP UPDATEs
// from their sources into a sharded, per-peer-indexed RIB; a batching
// stage accumulates the resulting best-path changes and fans them out
// to every downstream router over bounded queues (a slow router
// backpressures ingestion instead of dropping routes); and the whole
// pipeline drains gracefully under context cancellation. A source that
// fails mid-stream is treated as a session failure: the daemon
// withdraws the peer's routes via the indexed RemovePeer — the paper's
// failover event, at service scale.
//
// The daemon observes real time through clock.Clock, so tests can run
// it against any source; its concurrency is free-threaded (goroutines +
// channels), unlike the lab's serial discrete-event engine.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"supercharged/internal/bgp"
	"supercharged/internal/clock"
	"supercharged/internal/telemetry"
)

// Config assembles a daemon.
type Config struct {
	// Sources are the upstream peers; one ingestion goroutine each.
	Sources []PeerSource
	// Routers are the downstream sinks; one delivery goroutine and one
	// bounded queue each. No routers = ingest-only (the RIB still
	// builds, nothing is programmed).
	Routers []RouterSink
	// Shards splits the RIB lock domain (default 8).
	Shards int
	// SizeHint pre-sizes the RIB for about this many prefixes.
	SizeHint int
	// BatchSize is the largest batch the daemon builds: the pending
	// batch ships when it reaches this many changes, whatever the
	// routers are doing (default 4096). A batch is smaller whenever
	// every router was ready for it sooner.
	BatchSize int
	// BatchInterval is the staleness bound: a pending change ships no
	// later than this after it was produced, even while a slow router
	// keeps its queue non-empty (default 50 ms). It is not a batching
	// window — with every router queue empty a change ships at once.
	BatchInterval time.Duration
	// QueueDepth bounds each router's batch queue (default 64). A full
	// queue blocks the flusher, which blocks ingestion: backpressure,
	// not loss.
	QueueDepth int
	// Clock drives batching timers and latency stamps (nil = system).
	Clock clock.Clock
	// Telemetry, if set, registers the daemon's metric series: per-peer
	// session state and update counts, batch/queue gauges, propagation
	// latency and failover convergence histograms. Nil disables all of
	// it — the pipeline behaves identically either way.
	Telemetry *telemetry.Registry
	// Trace, if set, receives instant spans for resilience events
	// (breaker transitions, resyncs, gaps, reconnects).
	Trace *telemetry.Trace
	// Delivery tunes the one delivery loop every router gets: push
	// timeout, retries, circuit breaker with degraded buffering, gap
	// resync, drain-time read-back. Zero fields take their value from
	// DefaultDeliveryPolicy, so the zero policy is the default one.
	Delivery DeliveryPolicy
	// Reconnect, when non-zero, re-runs failed sources with backoff
	// after their withdraw. Zero leaves failed sessions down, and stays
	// a real choice: whether a dead source may be re-run is the
	// deployment's call (`serve -fail-after` and the benchmark's
	// failover script a peer that must stay down; `serve -chaos` and
	// `chaoscheck` need their crashed sessions back).
	Reconnect ReconnectPolicy
	// Logf, if set, receives lifecycle diagnostics.
	Logf func(format string, args ...any)
}

// Daemon is the running service. Lifecycle: New → Start → (serve) →
// Drain or Stop. Start, Drain and Stop are all idempotent.
type Daemon struct {
	cfg     Config
	clk     clock.Clock
	rib     *ShardedRIB
	metrics *metrics

	ctx    context.Context
	cancel context.CancelFunc

	hardStop chan struct{} // closed by Stop (or an expired Drain): lets blocked work abort
	hardOnce sync.Once

	epoch    time.Time // Start instant; trace span timestamps are offsets from it
	tracePID int

	workers []*sinkWorker // one per router, in Config.Routers order

	mu      sync.Mutex
	started bool
	batch   []RouteChange
	buf     *changeBuf   // the recycled storage batch is being built in, if any
	free    []*changeBuf // storage every router is done with (recycle)
	first   time.Time    // when the oldest pending change entered batch
	seq     uint64
	flushT  clock.Timer
	closed  bool // intake closed; no further flushes may enqueue

	queues  []chan Batch
	sendMu  sync.Mutex     // serializes queue sends, so Seq order holds per queue
	srcWG   sync.WaitGroup // ingestion goroutines
	sinkWG  sync.WaitGroup // delivery goroutines
	drainMu sync.Mutex     // serializes Drain/Stop shutdown
	drained bool
	downMu  sync.Mutex
	down    map[string]bool // peers already withdrawn

	errMu sync.Mutex
	errs  []error
}

// New builds a daemon; Start brings it up.
func New(cfg Config) *Daemon {
	if cfg.Shards == 0 {
		cfg.Shards = 8
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 4096
	}
	if cfg.BatchInterval == 0 {
		cfg.BatchInterval = 50 * time.Millisecond
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	cfg.Delivery = cfg.Delivery.normalize()
	cfg.Reconnect = cfg.Reconnect.normalize()
	d := &Daemon{
		cfg:      cfg,
		clk:      cfg.Clock,
		rib:      NewShardedRIB(cfg.Shards, cfg.SizeHint),
		down:     make(map[string]bool),
		hardStop: make(chan struct{}),
	}
	d.metrics = newMetrics(cfg.Telemetry, d)
	return d
}

// RIB exposes the daemon's table (live; safe for concurrent reads).
func (d *Daemon) RIB() *ShardedRIB { return d.rib }

// Start launches the pipeline: one goroutine per source, one per
// router, plus the batch flusher. Idempotent; the second call is a
// no-op. ctx cancels ingestion (sources see it via their Run context);
// use Drain for a graceful stop that flushes in-flight work.
func (d *Daemon) Start(ctx context.Context) {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return
	}
	d.started = true
	d.ctx, d.cancel = context.WithCancel(ctx)
	d.epoch = d.clk.Now()
	if d.cfg.Trace != nil {
		d.tracePID = d.cfg.Trace.Process("daemon")
	}
	d.queues = make([]chan Batch, len(d.cfg.Routers))
	for i := range d.cfg.Routers {
		d.queues[i] = make(chan Batch, d.cfg.QueueDepth)
	}
	d.mu.Unlock()

	for i, sink := range d.cfg.Routers {
		d.sinkWG.Add(1)
		w := newSinkWorker(d, d.queues[i], sink)
		d.workers = append(d.workers, w)
		go w.run()
	}
	for _, src := range d.cfg.Sources {
		d.srcWG.Add(1)
		d.metrics.sessionUp(src, true)
		go d.ingest(src)
	}
	d.armFlush()
	d.cfg.Logf("daemon: started (%d peers, %d routers, %d shards)",
		len(d.cfg.Sources), len(d.cfg.Routers), d.cfg.Shards)
}

// ErrCorruptUpdate marks an UPDATE that failed ingest validation. Like
// a malformed wire message in BGP proper, it fails the whole session
// (RFC 4271's treat-as-session-reset for fatal UPDATE errors): the
// peer's routes are withdrawn, and the reconnect policy — if enabled —
// brings the session back, at which point the peer re-announces its
// full table and the pipeline reconverges.
var ErrCorruptUpdate = errors.New("daemon: corrupt update")

// validateUpdate is the ingest guard against corrupted records (the
// chaos layer's corruption faults land here, as would a broken bridge).
func validateUpdate(u *bgp.Update) error {
	if u == nil {
		return fmt.Errorf("%w: nil update", ErrCorruptUpdate)
	}
	if len(u.NLRI) > 0 && u.Attrs == nil {
		return fmt.Errorf("%w: NLRI without path attributes", ErrCorruptUpdate)
	}
	for _, p := range u.NLRI {
		if !p.IsValid() {
			return fmt.Errorf("%w: invalid NLRI prefix", ErrCorruptUpdate)
		}
	}
	for _, p := range u.Withdrawn {
		if !p.IsValid() {
			return fmt.Errorf("%w: invalid withdrawn prefix", ErrCorruptUpdate)
		}
	}
	return nil
}

// ingest runs one source's session loop: stream into the RIB until the
// feed ends; on session failure, withdraw (PeerDown) and — under a
// reconnect policy — back off and re-run the source, which re-announces
// its table and reconverges the pipeline.
func (d *Daemon) ingest(src PeerSource) {
	defer d.srcWG.Done()
	name := src.Name()
	for attempt := 0; ; attempt++ {
		err := d.runSession(src)
		switch {
		case err == nil:
			// Clean end of feed: session stays up, routes stay in.
			d.cfg.Logf("daemon: peer %s: feed complete (%d routes)", name, d.rib.PeerLen(src.Peer().Addr))
			return
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// Shutdown, not failure.
			return
		}
		d.cfg.Logf("daemon: peer %s: session failed: %v", name, err)
		if errors.Is(err, ErrCorruptUpdate) {
			d.metrics.corruptUpdate(src)
		}
		d.PeerDown(src)
		rp := d.cfg.Reconnect
		if !rp.Enabled() || attempt >= rp.MaxAttempts-1 {
			return
		}
		if clock.SleepCtx(d.ctx, d.clk, rp.delay(name, attempt)) != nil {
			return
		}
		// Re-arm the peer's down latch so a later failure withdraws
		// again, then re-run the source from the top (a fresh session
		// re-announces the full table; the RIB dedups unchanged paths).
		d.downMu.Lock()
		delete(d.down, name)
		d.downMu.Unlock()
		d.metrics.sessionUp(src, true)
		d.metrics.reconnect(src)
		d.span("peer-reconnect", name)
		d.cfg.Logf("daemon: peer %s: reconnecting (attempt %d/%d)", name, attempt+1, rp.MaxAttempts)
	}
}

// runSession is one pass of a source's Run: validate, apply, emit.
func (d *Daemon) runSession(src PeerSource) error {
	peer := src.Peer()
	return src.Run(d.ctx, func(u *bgp.Update) error {
		if err := d.ctx.Err(); err != nil {
			return err
		}
		if err := validateUpdate(u); err != nil {
			return err
		}
		// Changes are enqueued from inside the shard lock (UpdateEmit's
		// contract): for any prefix, the batch stream carries its changes
		// in RIB-mutation order, so the last change a sink applies is the
		// RIB's final word. Applying first and enqueueing after would open
		// a window where two peers' changes for one prefix enter the batch
		// in the opposite order they hit the RIB — a stale withdraw could
		// then shadow the surviving announcement downstream.
		changed := 0
		d.reserve(len(u.NLRI) + len(u.Withdrawn))
		d.rib.UpdateEmit(peer, u, func(ch []RouteChange) {
			changed += len(ch)
			d.enqueue(ch)
		})
		// Group commit, ingestion side: once per UPDATE, outside the
		// shard locks enqueue runs under. This goroutine may block, so
		// the plain flush will do.
		if d.queuesEmpty() {
			d.flush()
		}
		d.metrics.updates(src, len(u.NLRI), len(u.Withdrawn), changed)
		return nil
	})
}

// PeerDown withdraws every route learned from the source's peer — the
// failover event. Idempotent per peer; the convergence histogram
// observes the wall time from the failure to the last router queue
// accepting the withdraw batch.
func (d *Daemon) PeerDown(src PeerSource) {
	name := src.Name()
	d.downMu.Lock()
	if d.down[name] {
		d.downMu.Unlock()
		return
	}
	d.down[name] = true
	d.downMu.Unlock()

	d.metrics.sessionUp(src, false)
	t0 := d.clk.Now()
	// Enqueue under the shard locks (see ingest) so the withdraws order
	// correctly against any still-streaming peer's announcements.
	n := d.rib.RemovePeerEmit(src.Peer().Addr, d.enqueue)
	d.flush() // failover does not wait for the routers to be ready
	d.metrics.failover(d.clk.Now().Sub(t0), n)
	d.cfg.Logf("daemon: peer %s: withdrew %d routes in %v", name, n, d.clk.Now().Sub(t0))
}

// Batching is group commit. The pending batch ships as soon as every
// router queue is empty — checked by ingestion after each UPDATE
// (runSession) and by each delivery goroutine at the end of its turn
// (flushIfIdle) — and keeps accumulating while any router still has a
// batch queued, so its size follows the load: one UPDATE per batch
// while the routers keep pace, up to BatchSize once one of them is the
// bottleneck. Two bounds hold regardless: a batch never exceeds
// BatchSize (enqueue flushes on size) and a change never waits longer
// than BatchInterval (armFlush).

// enqueue appends changes to the pending batch, flushing on size. The
// ingestion paths call it while holding the originating RIB shard's
// lock — that is what keeps per-prefix order in the batch stream equal
// to RIB-mutation order. A size-triggered flush can therefore block on
// a full router queue with a shard lock held: backpressure propagates
// all the way to that shard's writers, by design.
func (d *Daemon) enqueue(changes []RouteChange) {
	if len(changes) == 0 {
		return
	}
	d.mu.Lock()
	if len(d.batch) == 0 {
		d.first = d.clk.Now()
	}
	d.batch = append(d.batch, changes...)
	full := len(d.batch) >= d.cfg.BatchSize
	d.mu.Unlock()
	if full {
		d.flush()
	}
}

// reserve makes room in the pending batch for the n changes one UPDATE
// can produce. With one UPDATE per batch, the per-shard appends would
// otherwise grow a fresh slice by doubling and allocate three times
// what the batch ends up holding.
func (d *Daemon) reserve(n int) {
	d.mu.Lock()
	d.batch = slices.Grow(d.batch, n)
	d.mu.Unlock()
}

// armFlush schedules the staleness flush: every BatchInterval whatever
// is pending ships, ready routers or not.
func (d *Daemon) armFlush() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.flushT = d.clk.AfterFunc(d.cfg.BatchInterval, func() {
		d.flush()
		d.armFlush()
	})
}

// flush ships the pending batch to every router queue. Sends block on
// full queues — that is the backpressure path, and it holds during a
// graceful drain too (the final flush waits for the sinks to catch up).
// Only a hard Stop aborts a blocked send, because its sink goroutines
// are exiting and would never free the queue. sendMu serializes
// concurrent flushers so batches enter every queue in Seq order.
func (d *Daemon) flush() {
	d.sendMu.Lock()
	defer d.sendMu.Unlock()
	d.ship()
}

// flushIfIdle is group commit's delivery side: flush if every router
// queue is empty. Delivery goroutines call it, so it must never block —
// one parked behind a send into its own full queue would never free
// that queue. Hence TryLock (a flusher holding sendMu may be blocked on
// the caller's queue; it is shipping anyway, and every router it ships
// to re-checks after that Apply) and the emptiness test re-made under
// sendMu: only flushers add to queues, so "all empty under sendMu"
// means none of ship's sends can block (QueueDepth >= 1). A check lost
// to a contended TryLock is made up by the next UPDATE or Apply, at
// worst by the BatchInterval flush.
func (d *Daemon) flushIfIdle() {
	if !d.queuesEmpty() || !d.sendMu.TryLock() {
		return
	}
	defer d.sendMu.Unlock()
	if d.queuesEmpty() {
		d.ship()
	}
}

// queuesEmpty reports whether no router has a batch waiting. d.queues
// is written once, by Start, before any caller's goroutine exists.
func (d *Daemon) queuesEmpty() bool {
	for _, q := range d.queues {
		if len(q) > 0 {
			return false
		}
	}
	return true
}

// changeBuf is the storage of one shipped batch and the count of
// routers that have not applied it yet. With one batch per UPDATE a
// fresh slice per batch would be most of what the daemon allocates, and
// collector cycles are what the latency tail is made of; so the last
// router to finish hands the storage back (recycle) and ship builds the
// next batch in it.
type changeBuf struct {
	refs    atomic.Int32
	changes []RouteChange
}

// maxFreeBufs bounds the free list: a handful covers routers that keep
// pace, and a backlog's worth of BatchSize batches is not worth holding.
const maxFreeBufs = 4

// ship sends the pending batch, if any, to every router queue. The
// caller holds sendMu.
func (d *Daemon) ship() {
	d.mu.Lock()
	if len(d.batch) == 0 || d.closed {
		d.mu.Unlock()
		return
	}
	d.seq++
	buf := d.buf
	if buf == nil {
		buf = new(changeBuf)
	}
	buf.changes = d.batch
	buf.refs.Store(int32(len(d.queues)))
	b := Batch{Seq: d.seq, First: d.first, At: d.clk.Now(), Changes: d.batch, buf: buf}
	d.batch, d.buf = nil, nil
	if n := len(d.free); n > 0 {
		d.buf, d.free = d.free[n-1], d.free[:n-1]
		d.batch = d.buf.changes[:0]
	}
	queues := d.queues
	d.mu.Unlock()

	d.metrics.flush(b)
	for _, q := range queues {
		select {
		case q <- b:
		case <-d.hardStop:
			return
		}
	}
}

// recycle is a delivery goroutine saying its router is done with b and
// kept nothing of it. The last one to say so returns the storage for
// reuse. A batch somebody may still be reading is simply never recycled
// (the collector has it), so forgetting to call this is always safe and
// calling it early never is. A size-flushed batch overshoots BatchSize
// by an UPDATE and its array by append's growth step; storage grown
// well past that — a failover burst — is not kept.
func (d *Daemon) recycle(b Batch) {
	if b.buf == nil || b.buf.refs.Add(-1) != 0 || cap(b.buf.changes) > 2*d.cfg.BatchSize {
		return
	}
	d.mu.Lock()
	if len(d.free) < maxFreeBufs {
		d.free = append(d.free, b.buf)
	}
	d.mu.Unlock()
}

// resyncBatch builds a full-state snapshot batch for a recovering sink.
// The sequence stamp is read BEFORE the snapshot walk: every batch at
// or below it was flushed before the read, so its RIB mutations
// happened-before the walk and are in the snapshot — which is exactly
// the claim the stamp makes (the snapshot subsumes all batches ≤ Seq).
// Batches above the stamp may or may not be reflected; either way they
// reapply cleanly on top, last-writer-wins. The stamp deliberately does
// NOT consume a fresh sequence number: a per-sink resync must not punch
// holes in the other sinks' dense streams.
func (d *Daemon) resyncBatch() Batch {
	d.mu.Lock()
	seq := d.seq
	d.mu.Unlock()
	now := d.clk.Now()
	return Batch{
		Seq:     seq,
		First:   now,
		At:      now,
		Changes: d.rib.Snapshot(nil),
		Resync:  true,
	}
}

// finalSeq is the last flushed sequence number; valid as the stream's
// end mark once intake has closed.
func (d *Daemon) finalSeq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seq
}

// hardStopNow closes hardStop exactly once: Stop does it by definition,
// and an expired Drain does it so blocked flushes and healing workers
// abort instead of hanging past the deadline the caller set.
func (d *Daemon) hardStopNow() {
	d.hardOnce.Do(func() { close(d.hardStop) })
}

// span emits an instant trace span for a resilience event (no-op
// without Config.Trace).
func (d *Daemon) span(name, entity string) {
	tr := d.cfg.Trace
	if tr == nil {
		return
	}
	tr.Add(telemetry.Span{
		Name:  name,
		Cat:   "daemon",
		PID:   d.tracePID,
		Start: d.clk.Now().Sub(d.epoch),
		Peer:  entity,
	})
}

// DeliveryStates reports each router's breaker state by name
// ("closed", "open", "half-open").
func (d *Daemon) DeliveryStates() map[string]string {
	out := make(map[string]string, len(d.workers))
	for _, w := range d.workers {
		out[w.sink.Name()] = w.stateName()
	}
	return out
}

// Wait blocks until every source's feed has ended on its own — clean
// completion or session failure — or ctx expires. It does not stop the
// daemon: the flusher keeps running and the RIB stays live, so callers
// typically Wait (finite replays) and then Drain. For endless sources,
// skip Wait and Drain directly.
func (d *Daemon) Wait(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		d.srcWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Drain performs a graceful shutdown: stop intake (sources see their
// context cancelled), wait for ingestion to finish, flush the final
// batch, close the router queues and wait for every queued batch to be
// applied. ctx bounds the wait; on expiry Drain falls back to Stop
// semantics and returns the context's error. Idempotent — concurrent
// and repeated calls all observe the one shutdown.
func (d *Daemon) Drain(ctx context.Context) error {
	d.drainMu.Lock()
	defer d.drainMu.Unlock()
	d.mu.Lock()
	started := d.started
	d.mu.Unlock()
	if !started {
		return nil
	}
	if d.drained {
		return d.err()
	}
	d.drained = true

	d.cancel() // stop sources
	done := make(chan struct{})
	go func() {
		d.srcWG.Wait()
		d.finalFlush()
		d.closeQueues()
		d.sinkWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		d.stopFlushTimer()
		d.cfg.Logf("daemon: drained (%d prefixes in RIB)", d.rib.Len())
		return d.err()
	case <-ctx.Done():
		// Past the caller's deadline a graceful finish is off the table:
		// release anything still blocked (full queues, healing workers)
		// so the shutdown goroutine can unwind.
		d.hardStopNow()
		d.stopFlushTimer()
		d.recordErr(fmt.Errorf("daemon: drain: %w", ctx.Err()))
		return d.err()
	}
}

// Stop is the hard shutdown: cancel everything, drop queued work, wait
// for goroutines. Idempotent, and safe after Drain.
func (d *Daemon) Stop() {
	d.drainMu.Lock()
	defer d.drainMu.Unlock()
	d.mu.Lock()
	started := d.started
	d.mu.Unlock()
	if !started {
		return
	}
	if !d.drained {
		d.drained = true
		d.cancel()
		d.hardStopNow()
		d.srcWG.Wait()
		d.closeQueues()
		d.sinkWG.Wait()
	}
	d.stopFlushTimer()
}

// finalFlush ships whatever ingestion left pending. Called with intake
// finished, before queues close.
func (d *Daemon) finalFlush() { d.flush() }

// closeQueues marks the pipeline closed and closes every router queue
// exactly once. It holds sendMu so that no flush — a delivery goroutine
// may start one at any time — is mid-send when the queues close.
func (d *Daemon) closeQueues() {
	d.sendMu.Lock()
	defer d.sendMu.Unlock()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	queues := d.queues
	d.mu.Unlock()
	for _, q := range queues {
		close(q)
	}
}

func (d *Daemon) stopFlushTimer() {
	d.mu.Lock()
	if d.flushT != nil {
		d.flushT.Stop()
		d.flushT = nil
	}
	d.closed = true
	d.mu.Unlock()
}

func (d *Daemon) recordErr(err error) {
	d.errMu.Lock()
	d.errs = append(d.errs, err)
	d.errMu.Unlock()
}

// err joins every recorded pipeline error.
func (d *Daemon) err() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return errors.Join(d.errs...)
}

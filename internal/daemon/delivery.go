package daemon

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sync/atomic"
	"time"

	"supercharged/internal/clock"
)

// Sentinel outcomes of applyOnce that are not sink errors.
var (
	// errPushTimeout: the Apply outlived DeliveryPolicy.PushTimeout. The
	// call itself keeps running on the applier goroutine; the worker
	// waits it out before the next Apply so the sink never sees two at
	// once.
	errPushTimeout = errors.New("daemon: push timeout")
	// errHardStop: the daemon hard-stopped mid-attempt; abandon delivery.
	errHardStop = errors.New("daemon: hard stop")
)

// Breaker states, in the order the gauge reports them.
const (
	stateClosed   int32 = iota // healthy: apply with retries
	stateOpen                  // tripped: buffer and wait out the cooldown
	stateHalfOpen              // probing: one recovery attempt in flight
)

// sinkWorker is one router's delivery goroutine, the only delivery
// loop the daemon has. All fields are owned by the worker goroutine
// except state, which DeliveryStates reads.
//
// State machine: closed applies each batch with a push timeout and a
// jittered-backoff retry budget; a sequence gap (the sink applied the
// batch but reports predecessors lost) triggers an immediate resync.
// Enough consecutive failures — or an exhausted per-batch budget —
// trip the breaker open: the batch and everything after it is buffered
// (coalescing the oldest batches past the byte cap, which is loss-free
// because batches are last-writer-wins), so a broken router degrades
// alone instead of backpressuring the whole pipeline. After the
// cooldown the worker goes half-open and probes: stateful sinks get a
// snapshot resync verified by State() read-back (a transport that
// swallows writes can fake Apply success, not read-back), other sinks
// get their buffer replayed. Success re-closes the breaker; failure
// re-opens it for another cooldown.
type sinkWorker struct {
	d      *Daemon
	q      chan Batch
	sink   RouterSink
	pol    DeliveryPolicy
	series *routerSeries

	state     atomic.Int32
	fails     int // consecutive failed attempts (breaker input)
	trippedAt time.Time
	buf       []Batch
	bufBytes  int

	// Apply runs on the applier goroutine, so a router that stalls holds
	// that goroutine and not the worker: one batch in on applyReq, its
	// result out on applyRes (room for one, so the applier never waits
	// for a worker that gave up). The push timeout is one timer, re-armed
	// per attempt, signalling on timedOut.
	applyReq chan Batch
	applyRes chan error
	timer    clock.Timer
	timedOut chan struct{}
	stalled  bool // an Apply outlived its timeout and is still running
}

func newSinkWorker(d *Daemon, q chan Batch, sink RouterSink) *sinkWorker {
	w := &sinkWorker{
		d: d, q: q, sink: sink, pol: d.cfg.Delivery, series: d.metrics.router(sink),
		applyReq: make(chan Batch),
		applyRes: make(chan error, 1),
		timedOut: make(chan struct{}, 1),
	}
	d.metrics.preRegisterRouter(sink)
	go w.applier()
	return w
}

func (w *sinkWorker) is(s int32) bool { return w.state.Load() == s }

func (w *sinkWorker) stateName() string {
	switch w.state.Load() {
	case stateOpen:
		return "open"
	case stateHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// run consumes the router's queue until it closes, then heals whatever
// the faults left behind (finish). Batches arriving while the breaker
// is open are buffered; a cooldown expiry wakes the probe. Whatever it
// did, the worker ends each turn on the group-commit check — a router
// that just became ready is what a pending batch waits for.
func (w *sinkWorker) run() {
	defer w.d.sinkWG.Done()
	defer close(w.applyReq) // the applier leaves once its last Apply returns
	for {
		var wake <-chan time.Time
		if w.is(stateOpen) {
			rem := w.pol.BreakerCooldown - w.d.clk.Now().Sub(w.trippedAt)
			if rem < 0 {
				rem = 0
			}
			wake = w.d.clk.After(rem)
		}
		select {
		case b, ok := <-w.q:
			if !ok {
				w.finish()
				return
			}
			if w.is(stateOpen) {
				w.buffer(b)
			} else {
				w.deliverClosed(b)
			}
			// buffer copied what it kept; only an Apply that outlived
			// its timeout can still be reading b.
			if !w.stalled {
				w.d.recycle(b)
			}
		case <-wake:
			w.probe()
		case <-w.d.hardStop:
			return
		}
		w.d.flushIfIdle()
	}
}

// deliverClosed pushes one batch through the closed-state retry loop.
func (w *sinkWorker) deliverClosed(b Batch) {
	name := w.sink.Name()
	for attempt := 0; ; attempt++ {
		err := w.applyOnce(b)
		gap := asGap(err)
		if err == nil || gap != nil {
			w.fails = 0
			w.series.delivered(b, w.d.clk.Now())
			if gap != nil {
				// The batch landed; its predecessors did not. Heal with a
				// snapshot rather than stalling the stream.
				w.d.metrics.gap(w.sink, gap.From, gap.To)
				w.d.span("gap-detected", name)
				w.d.cfg.Logf("daemon: router %s: sequence gap %s, resyncing", name, SeqRange{gap.From, gap.To})
				if !w.resyncVerify() {
					w.trip(nil)
				}
			}
			return
		}
		if errors.Is(err, errHardStop) {
			return
		}
		w.fails++
		w.d.cfg.Logf("daemon: router %s: apply seq %d failed (attempt %d): %v", name, b.Seq, attempt+1, err)
		if w.fails >= w.pol.BreakerThreshold || attempt >= w.pol.RetryBudget {
			w.trip(&b)
			return
		}
		w.d.metrics.retry(w.sink)
		if !w.sleep(w.pol.delay(name, attempt)) {
			return
		}
	}
}

// asGap returns the *GapError err carries, nil if none. The nil check
// comes first so that a clean Apply — one per UPDATE — does not pay for
// the heap cell errors.As needs.
func asGap(err error) *GapError {
	if err == nil {
		return nil
	}
	var gap *GapError
	errors.As(err, &gap)
	return gap
}

// applier is the goroutine every Apply of this router runs on.
func (w *sinkWorker) applier() {
	for b := range w.applyReq {
		w.applyRes <- w.sink.Apply(b)
	}
}

// applyOnce runs a single Apply attempt under the push timeout,
// guaranteeing the sink never sees two concurrent Applies: a previous
// attempt that timed out keeps the applier busy, and the next attempt
// first waits for it to return (its late result is discarded — if it
// did land, the sink's stale-skip absorbs the duplicate).
func (w *sinkWorker) applyOnce(b Batch) error {
	if w.stalled {
		select {
		case <-w.applyRes:
			w.stalled = false
		case <-w.d.hardStop:
			return errHardStop
		}
	}
	w.applyReq <- b // the applier is idle: it takes the batch at once
	if w.timer == nil {
		w.timer = w.d.clk.AfterFunc(w.pol.PushTimeout, func() { w.timedOut <- struct{}{} })
	} else {
		w.timer.Reset(w.pol.PushTimeout)
	}
	select {
	case err := <-w.applyRes:
		// A timer that could not be stopped has fired or is firing: take
		// its signal now, so the next attempt does not.
		if !w.timer.Stop() {
			<-w.timedOut
		}
		return err
	case <-w.timedOut:
		w.stalled = true
		w.d.metrics.pushTimeout(w.sink)
		return errPushTimeout
	case <-w.d.hardStop:
		w.stalled = true
		return errHardStop
	}
}

// resyncVerify ships a fresh full-state snapshot with retries and, for
// stateful sinks, verifies by read-back that it actually landed: no
// missing ranges left and the sink's high-water mark at or past the
// snapshot's stamp. Reports whether the sink is verifiably current.
func (w *sinkWorker) resyncVerify() bool {
	name := w.sink.Name()
	for attempt := 0; ; attempt++ {
		b := w.d.resyncBatch()
		err := w.applyOnce(b)
		ok := err == nil
		if ok {
			if ss, stateful := w.sink.(StatefulSink); stateful {
				st := ss.State()
				ok = len(st.Missing) == 0 && st.LastSeq >= b.Seq
			}
		}
		if ok {
			w.fails = 0
			w.d.metrics.resync(w.sink, len(b.Changes))
			w.d.span("resync", name)
			w.d.cfg.Logf("daemon: router %s: resynced %d routes at seq %d", name, len(b.Changes), b.Seq)
			return true
		}
		if errors.Is(err, errHardStop) || attempt >= w.pol.RetryBudget {
			return false
		}
		w.d.metrics.retry(w.sink)
		if !w.sleep(w.pol.delay(name, attempt)) {
			return false
		}
	}
}

// probe is the half-open transition: one recovery attempt. Stateful
// sinks are healed by snapshot resync (their buffer is then subsumed by
// the snapshot and dropped); others by replaying the buffer in order.
func (w *sinkWorker) probe() {
	name := w.sink.Name()
	w.state.Store(stateHalfOpen)
	w.d.metrics.breakerState(w.sink, stateHalfOpen)
	w.d.span("breaker-half-open", name)
	var ok bool
	if _, stateful := w.sink.(StatefulSink); stateful {
		ok = w.resyncVerify()
		if ok && len(w.buf) > 0 {
			// Every buffered batch was flushed before the snapshot was
			// taken, so the snapshot already carries its effect.
			w.buf = nil
			w.bufBytes = 0
			w.d.metrics.bufferedBytes(w.sink, 0)
		}
	} else {
		ok = w.replayBuffer()
	}
	if ok {
		w.state.Store(stateClosed)
		w.fails = 0
		w.d.metrics.breakerState(w.sink, stateClosed)
		w.d.span("breaker-close", name)
		w.d.cfg.Logf("daemon: router %s: breaker re-closed", name)
	} else {
		w.trip(nil)
	}
}

// replayBuffer drains the degraded-state buffer through the sink in
// order. Any failure aborts (the breaker re-opens; what replayed stays
// replayed, the rest stays buffered).
func (w *sinkWorker) replayBuffer() bool {
	for len(w.buf) > 0 {
		b := w.buf[0]
		if err := w.applyOnce(b); err != nil && asGap(err) == nil {
			return false
		}
		w.buf = w.buf[1:]
		w.bufBytes -= batchBytes(b)
		w.d.metrics.bufferedBytes(w.sink, w.bufBytes)
		w.series.delivered(b, w.d.clk.Now())
	}
	if w.buf != nil {
		w.buf = nil
		w.bufBytes = 0
	}
	return true
}

// trip opens the breaker (buffering the undeliverable batch first, so
// nothing is lost) and starts the cooldown.
func (w *sinkWorker) trip(b *Batch) {
	if b != nil {
		w.buffer(*b)
	}
	w.state.Store(stateOpen)
	w.fails = 0
	w.trippedAt = w.d.clk.Now()
	w.d.metrics.breakerTrip(w.sink)
	w.d.metrics.breakerState(w.sink, stateOpen)
	w.d.span("breaker-open", w.sink.Name())
	w.d.cfg.Logf("daemon: router %s: breaker open (%d batches / %d bytes buffered)",
		w.sink.Name(), len(w.buf), w.bufBytes)
}

// buffer holds a batch for post-recovery replay. With ready routers
// elsewhere an open breaker receives one small batch per UPDATE, so an
// arriving batch is folded into the buffer's tail until the tail holds
// BatchSize changes; only opening a new tail runs the shed loop, which
// coalesces the oldest pair while the byte cap is exceeded. The loop
// leaves the new tail out, or a cap below the table's own footprint
// would merge every arrival into one batch too large to fold into, at
// one O(buffer) shed per UPDATE. Folding and coalescing both keep the
// later Seq and rely on the contract a batch already has (last writer
// wins), so they change footprint, never semantics. The buffer holds
// copies: an arriving batch's Changes is every other router's too, and
// the daemon's again once they have applied it.
func (w *sinkWorker) buffer(b Batch) {
	if n := len(w.buf); n > 0 && len(w.buf[n-1].Changes) < w.d.cfg.BatchSize {
		tail := &w.buf[n-1]
		tail.Changes = append(tail.Changes, b.Changes...)
		tail.Seq, tail.At = b.Seq, b.At
		w.bufBytes += len(b.Changes) * routeChangeBytes
		w.d.metrics.bufferedBytes(w.sink, w.bufBytes)
		return
	}
	b.Changes, b.buf = slices.Clone(b.Changes), nil
	w.buf = append(w.buf, b)
	w.bufBytes += batchBytes(b)
	for w.bufBytes > w.pol.BufferBytes && len(w.buf) > 2 {
		a, c := w.buf[0], w.buf[1]
		merged := coalesce(a, c)
		w.bufBytes += batchBytes(merged) - batchBytes(a) - batchBytes(c)
		w.buf[1] = merged
		w.buf = w.buf[1:]
		w.d.metrics.shed(w.sink)
	}
	w.d.metrics.bufferedBytes(w.sink, w.bufBytes)
}

// coalesce merges two adjacent batches into one carrying the later
// sequence number, deduplicated by prefix (last occurrence wins,
// surviving entries keep their relative order).
func coalesce(a, b Batch) Batch {
	changes := make([]RouteChange, 0, len(a.Changes)+len(b.Changes))
	changes = append(changes, a.Changes...)
	changes = append(changes, b.Changes...)
	last := make(map[netip.Prefix]int, len(changes))
	for i, ch := range changes {
		last[ch.Prefix] = i
	}
	out := changes[:0]
	for i, ch := range changes {
		if last[ch.Prefix] == i {
			out = append(out, ch)
		}
	}
	return Batch{Seq: b.Seq, First: a.First, At: b.At, Changes: out}
}

// routeChangeBytes approximates one RouteChange's footprint (prefix +
// two addrs); batchBytes adds per-batch overhead. The buffer cap is a
// memory bound, not an accounting exercise — close is good enough.
const routeChangeBytes = 80

func batchBytes(b Batch) int { return 96 + len(b.Changes)*routeChangeBytes }

// finish is the drain-time healer, run when the queue closes. It first
// re-closes an open breaker (cooldown, probe, repeat — bounded by the
// attempt cap, the chaos layer's per-entity fault budget, and
// hardStop), then verifies stateful sinks actually reached the final
// sequence with nothing missing: an injected drop can swallow the tail
// batch with no successor left to expose the gap, and only read-back
// catches that.
func (w *sinkWorker) finish() {
	const maxHeals = 256
	name := w.sink.Name()
	for i := 0; !w.is(stateClosed); i++ {
		if i >= maxHeals {
			w.d.recordErr(fmt.Errorf("daemon: router %s: breaker failed to re-close after %d recovery attempts (%d batches buffered)",
				name, maxHeals, len(w.buf)))
			return
		}
		rem := w.pol.BreakerCooldown - w.d.clk.Now().Sub(w.trippedAt)
		if !w.sleep(rem) {
			return
		}
		w.probe()
	}
	ss, stateful := w.sink.(StatefulSink)
	if !stateful {
		return
	}
	final := w.d.finalSeq()
	for i := 0; ; i++ {
		st := ss.State()
		if len(st.Missing) == 0 && st.LastSeq >= final {
			return
		}
		if i >= maxHeals {
			w.d.recordErr(fmt.Errorf("daemon: router %s: unhealed at drain: last seq %d of %d, missing %v",
				name, st.LastSeq, final, st.Missing))
			return
		}
		if !w.resyncVerify() {
			if !w.sleep(w.pol.BreakerCooldown) {
				return
			}
		}
	}
}

// sleep waits d on the daemon clock, abandoned by hardStop.
func (w *sinkWorker) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	select {
	case <-w.d.clk.After(d):
		return true
	case <-w.d.hardStop:
		return false
	}
}

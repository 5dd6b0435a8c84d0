package clock

import (
	"container/heap"
	"context"
	"sync"
	"time"
)

// Virtual is a discrete-event Clock (and Source). Time advances only when
// Advance, Run, RunUntilIdle or Drive is called; scheduled callbacks run
// inline with those calls, in timestamp order (FIFO among equal timestamps).
// All methods are safe for concurrent use, but the typical simulation is
// single-threaded: components schedule work with AfterFunc and one driver
// loop pumps the queue.
//
// Ordering contract — pinned by the ordering tests in clock_test.go and
// source_test.go, and relied on by every simulation result in this
// repository:
//
//  1. Events fire in deadline order.
//  2. Events sharing a deadline fire in the order they were scheduled
//     (FIFO by a per-source sequence number). This includes zero-delay
//     events scheduled from inside a firing callback: they run after
//     every event already queued at the same instant.
//  3. Reset re-enqueues the timer with a fresh sequence number, so a
//     timer Reset onto an already-occupied deadline fires after the
//     events that were there first.
//  4. A negative delay clamps to zero. The event fires at the current
//     time on the next pump — never inline with AfterFunc itself.
//
// Wall implements the same contract for events that are due in the same
// dispatch batch; see source.go.
type Virtual struct {
	mu    sync.Mutex
	now   time.Time
	queue eventQueue
	seq   uint64
	// end is the exclusive end of the running pump's window: Run's
	// target plus 1 ns, maxTime for RunUntilIdleCtx, the zero Time while
	// no pump runs. Horizon reads it.
	end time.Time
}

// NewVirtual returns a Virtual clock starting at start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// NewVirtualAtZero returns a Virtual clock starting at the Unix epoch, a
// convenient origin for simulations that only care about elapsed time.
func NewVirtualAtZero() *Virtual {
	return NewVirtual(time.Unix(0, 0).UTC())
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Pending returns the number of scheduled events that have not yet fired.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.queue)
}

// AfterFunc schedules f to run at Now()+d. A non-positive d runs f at the
// current time on the next pump of the event loop (it still requires a
// driver call; it never runs inline with AfterFunc itself).
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.scheduleLocked(d, f)
}

func (v *Virtual) scheduleLocked(d time.Duration, f func()) *virtualTimer {
	if d < 0 {
		d = 0
	}
	ev := &event{at: v.now.Add(d), fn: f, seq: v.seq, clk: v}
	v.seq++
	heap.Push(&v.queue, ev)
	return &virtualTimer{ev: ev}
}

// After returns a channel receiving the virtual time once d has elapsed.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	v.AfterFunc(d, func() { ch <- v.Now() })
	return ch
}

// Sleep blocks until virtual time has advanced by d. Another goroutine must
// drive the clock (Advance/Run/RunUntilIdle), otherwise Sleep deadlocks.
func (v *Virtual) Sleep(d time.Duration) {
	done := make(chan struct{})
	v.AfterFunc(d, func() { close(done) })
	<-done
}

// NewTicker returns a Ticker firing every d of virtual time.
func (v *Virtual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker period")
	}
	t := &virtualTicker{clk: v, period: d, ch: make(chan time.Time, 1)}
	t.arm()
	return t
}

// Advance moves virtual time forward by d, firing every event whose deadline
// falls within the window, in order. It returns the number of events fired.
func (v *Virtual) Advance(d time.Duration) int {
	v.mu.Lock()
	target := v.now.Add(d)
	v.mu.Unlock()
	return v.Run(target)
}

// Run fires events in order until the queue holds no event at or before
// target, then sets the clock to target. It returns the number fired.
func (v *Virtual) Run(target time.Time) int {
	defer v.setEnd(v.setEnd(target.Add(1)))
	fired := 0
	for {
		v.mu.Lock()
		if len(v.queue) == 0 || v.queue[0].at.After(target) {
			if target.After(v.now) {
				v.now = target
			}
			v.mu.Unlock()
			return fired
		}
		ev := heap.Pop(&v.queue).(*event)
		if ev.at.After(v.now) {
			v.now = ev.at
		}
		ev.fired = true
		v.mu.Unlock()
		ev.fn()
		fired++
	}
}

// RunUntilIdle fires events until the queue is empty and returns the final
// virtual time. Use budget-limited variants for potentially unbounded event
// chains (tickers reschedule themselves forever).
func (v *Virtual) RunUntilIdle() time.Time {
	return v.RunUntilIdleLimit(1 << 62)
}

// RunUntilIdleLimit is RunUntilIdle with an upper bound on fired events. It
// returns the virtual time when it stopped.
func (v *Virtual) RunUntilIdleLimit(maxEvents int) time.Time {
	now, _ := v.RunUntilIdleCtx(context.Background(), maxEvents)
	return now
}

// cancelCheckStride is how many events RunUntilIdleCtx fires between
// context checks: coarse enough that the atomic load stays invisible in
// the event-pump hot path, fine enough that cancellation lands within a
// fraction of a millisecond of host time.
const cancelCheckStride = 256

// RunUntilIdleCtx is RunUntilIdleLimit with cooperative cancellation: it
// stops between events once ctx is done and returns ctx's error (nil on a
// normal drain or when the event budget is exhausted). Virtual time stays
// wherever the last fired event left it, so a cancelled simulation is
// abandoned mid-flight, not fast-forwarded.
func (v *Virtual) RunUntilIdleCtx(ctx context.Context, maxEvents int) (time.Time, error) {
	defer v.setEnd(v.setEnd(maxTime))
	for fired := 0; fired < maxEvents; fired++ {
		if fired%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return v.Now(), err
			}
		}
		v.mu.Lock()
		if len(v.queue) == 0 {
			now := v.now
			v.mu.Unlock()
			return now, nil
		}
		ev := heap.Pop(&v.queue).(*event)
		if ev.at.After(v.now) {
			v.now = ev.at
		}
		ev.fired = true
		v.mu.Unlock()
		ev.fn()
	}
	return v.Now(), nil
}

// setEnd sets the end of the running pump's window (see Virtual.end) and
// returns the previous one, for the pump to restore when it returns, so
// a pump started from inside a callback leaves the outer one's intact.
func (v *Virtual) setEnd(end time.Time) time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	prev := v.end
	v.end = end
	return prev
}

// Horizon bounds how far the callback now firing may run ahead of the
// clock: an event it scheduled now for any instant before the horizon
// would be the next event to fire, ahead of every queued one, and would
// fire in the current Run window. The horizon is the earliest queued
// deadline, capped by the end of the Run window; outside a pump it is
// Now, so nothing runs ahead. A component that models a chain of evenly
// spaced events (dataplane.FlatFIB's updater) uses it to process, in one
// callback, every link of the chain that no other event could observe
// in between, and schedules a real event only for the first link that
// one could.
func (v *Virtual) Horizon() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	h := v.now
	if !v.end.IsZero() {
		h = v.end
	}
	if len(v.queue) > 0 && v.queue[0].at.Before(h) {
		h = v.queue[0].at
	}
	return h
}

// maxTime is later than any instant a simulation reaches.
var maxTime = time.Unix(1<<62, 0)

// Drive implements Source: RunUntilIdleCtx under the source-neutral
// name, so engines written against Source run byte-identically on a
// Virtual clock.
func (v *Virtual) Drive(ctx context.Context, maxEvents int) (time.Time, error) {
	return v.RunUntilIdleCtx(ctx, maxEvents)
}

// scheduler is the slice of a time source that pending timers talk to:
// Stop and Reset manipulate the owning source's event heap under its
// lock. Virtual and Wall both implement it, which lets them share the
// timer and ticker machinery below.
type scheduler interface {
	lock()
	unlock()
	// removeLocked unlinks a still-pending event from the heap. The
	// caller holds the source lock and has checked ev.index >= 0.
	removeLocked(ev *event)
	// rescheduleLocked schedules fn after d from the source's current
	// time with a fresh sequence number and returns the new event. The
	// caller holds the source lock.
	rescheduleLocked(d time.Duration, fn func()) *event
}

func (v *Virtual) lock()   { v.mu.Lock() }
func (v *Virtual) unlock() { v.mu.Unlock() }

func (v *Virtual) removeLocked(ev *event) {
	heap.Remove(&v.queue, ev.index)
	ev.index = -1
}

func (v *Virtual) rescheduleLocked(d time.Duration, fn func()) *event {
	return v.scheduleLocked(d, fn).ev
}

type event struct {
	at    time.Time
	fn    func()
	seq   uint64
	index int
	fired bool
	clk   scheduler
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

type virtualTimer struct {
	mu sync.Mutex
	ev *event
}

func (t *virtualTimer) Stop() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	ev := t.ev
	clk := ev.clk
	clk.lock()
	defer clk.unlock()
	if ev.fired || ev.index < 0 {
		return false
	}
	clk.removeLocked(ev)
	return true
}

func (t *virtualTimer) Reset(d time.Duration) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	ev := t.ev
	clk := ev.clk
	clk.lock()
	defer clk.unlock()
	active := !ev.fired && ev.index >= 0
	if active {
		clk.removeLocked(ev)
	}
	t.ev = clk.rescheduleLocked(d, ev.fn)
	return active
}

type virtualTicker struct {
	clk    Clock
	period time.Duration
	ch     chan time.Time
	mu     sync.Mutex
	stop   bool
	timer  Timer
}

func (t *virtualTicker) arm() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stop {
		return
	}
	t.timer = t.clk.AfterFunc(t.period, func() {
		select {
		case t.ch <- t.clk.Now():
		default: // drop tick if the consumer lags, like time.Ticker
		}
		t.arm()
	})
}

func (t *virtualTicker) C() <-chan time.Time { return t.ch }

func (t *virtualTicker) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stop = true
	if t.timer != nil {
		t.timer.Stop()
	}
}

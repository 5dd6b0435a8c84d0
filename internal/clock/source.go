package clock

import (
	"container/heap"
	"context"
	"sync"
	"time"
)

// Source is a Clock whose scheduled work some goroutine drives: the
// execution half of the time abstraction. The lab, the controller and
// the daemon are written against Source, so the same engine runs under
// the discrete-event Virtual clock (deterministic, milliseconds of CPU
// per simulated convergence) and under real time (Wall, the serialized
// dispatcher) without touching engine code.
type Source interface {
	Clock

	// Drive executes scheduled callbacks until the source is idle, the
	// event budget maxEvents is exhausted, or ctx is done (returning
	// ctx's error; nil otherwise). It returns the source's time when it
	// stopped. On Virtual this pumps the event queue instantly; on Wall
	// it paces the queue against the system clock.
	Drive(ctx context.Context, maxEvents int) (time.Time, error)

	// Pending reports the number of scheduled callbacks that have not
	// yet fired.
	Pending() int
}

var (
	_ Source = (*Virtual)(nil)
	_ Source = (*Wall)(nil)
)

// Wall is a real-time Source with the Virtual clock's execution model:
// deadlines are wall-clock instants, Drive paces the event heap against
// the system clock, and callbacks run serially on the driving
// goroutine. Because execution is serialized exactly as under Virtual,
// an engine whose state is unsynchronized (the lab) runs race-free on a
// Wall source, and the virtual-vs-real equivalence tests can compare
// the two directly. Events that are due in the same dispatch batch obey
// the Virtual ordering contract: deadline order, FIFO among equal
// deadlines.
type Wall struct {
	mu    sync.Mutex
	queue eventQueue
	seq   uint64
	wake  chan struct{}
}

// NewWall returns a Wall source with an empty queue.
func NewWall() *Wall { return &Wall{wake: make(chan struct{}, 1)} }

// Now returns the system time.
func (w *Wall) Now() time.Time { return time.Now() }

// Sleep blocks the calling goroutine for d of real time.
func (w *Wall) Sleep(d time.Duration) { time.Sleep(d) }

// After returns a channel receiving the time once d has elapsed; the
// send happens on the driving goroutine.
func (w *Wall) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	w.AfterFunc(d, func() { ch <- time.Now() })
	return ch
}

// AfterFunc schedules f to run once d has elapsed. f runs on the
// goroutine driving the source, never inline with AfterFunc.
func (w *Wall) AfterFunc(d time.Duration, f func()) Timer {
	w.mu.Lock()
	defer w.mu.Unlock()
	return &virtualTimer{ev: w.rescheduleLocked(d, f)}
}

// NewTicker returns a Ticker firing every d on the driving goroutine.
func (w *Wall) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker period")
	}
	t := &virtualTicker{clk: w, period: d, ch: make(chan time.Time, 1)}
	t.arm()
	return t
}

// Pending returns the number of scheduled events that have not yet
// fired.
func (w *Wall) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.queue)
}

func (w *Wall) lock()   { w.mu.Lock() }
func (w *Wall) unlock() { w.mu.Unlock() }

func (w *Wall) removeLocked(ev *event) {
	heap.Remove(&w.queue, ev.index)
	ev.index = -1
}

func (w *Wall) rescheduleLocked(d time.Duration, fn func()) *event {
	if d < 0 {
		d = 0
	}
	ev := &event{at: time.Now().Add(d), fn: fn, seq: w.seq, clk: w}
	w.seq++
	heap.Push(&w.queue, ev)
	// Nudge a Drive blocked on a later deadline; cap-1 channel, dropped
	// when a nudge is already queued.
	select {
	case w.wake <- struct{}{}:
	default:
	}
	return ev
}

// Drive executes due callbacks serially, sleeping on a real timer until
// the next deadline, until the queue drains, maxEvents callbacks have
// fired, or ctx is done. New events scheduled while Drive sleeps (from
// callbacks or other goroutines) wake it immediately.
func (w *Wall) Drive(ctx context.Context, maxEvents int) (time.Time, error) {
	for fired := 0; fired < maxEvents; {
		if err := ctx.Err(); err != nil {
			return time.Now(), err
		}
		w.mu.Lock()
		if len(w.queue) == 0 {
			w.mu.Unlock()
			return time.Now(), nil
		}
		if wait := time.Until(w.queue[0].at); wait > 0 {
			w.mu.Unlock()
			tm := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				tm.Stop()
				return time.Now(), ctx.Err()
			case <-tm.C:
			case <-w.wake:
				tm.Stop()
			}
			continue
		}
		ev := heap.Pop(&w.queue).(*event)
		ev.fired = true
		w.mu.Unlock()
		ev.fn()
		fired++
	}
	return time.Now(), nil
}

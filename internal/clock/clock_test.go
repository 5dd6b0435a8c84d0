package clock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestVirtualNowStartsAtOrigin(t *testing.T) {
	start := time.Date(2015, 5, 25, 0, 0, 0, 0, time.UTC)
	v := NewVirtual(start)
	if !v.Now().Equal(start) {
		t.Fatalf("Now() = %v, want %v", v.Now(), start)
	}
}

func TestVirtualAfterFuncOrdering(t *testing.T) {
	v := NewVirtualAtZero()
	var got []int
	v.AfterFunc(30*time.Millisecond, func() { got = append(got, 3) })
	v.AfterFunc(10*time.Millisecond, func() { got = append(got, 1) })
	v.AfterFunc(20*time.Millisecond, func() { got = append(got, 2) })
	v.Advance(25 * time.Millisecond)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("after 25ms got %v, want [1 2]", got)
	}
	v.Advance(10 * time.Millisecond)
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("after 35ms got %v, want [1 2 3]", got)
	}
}

func TestVirtualFIFOAmongEqualDeadlines(t *testing.T) {
	v := NewVirtualAtZero()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		v.AfterFunc(time.Millisecond, func() { got = append(got, i) })
	}
	v.Advance(time.Millisecond)
	for i, x := range got {
		if x != i {
			t.Fatalf("event order %v not FIFO", got)
		}
	}
}

func TestVirtualTimeObservedInsideCallback(t *testing.T) {
	v := NewVirtualAtZero()
	var at time.Time
	v.AfterFunc(42*time.Millisecond, func() { at = v.Now() })
	v.Advance(time.Second)
	if want := v.Now().Add(-time.Second + 42*time.Millisecond); !at.Equal(want) {
		t.Fatalf("callback saw %v, want %v", at, want)
	}
	// After Advance the clock must sit at exactly origin+1s.
	if got := v.Now().Sub(time.Unix(0, 0).UTC()); got != time.Second {
		t.Fatalf("clock advanced %v, want 1s", got)
	}
}

func TestVirtualTimerStop(t *testing.T) {
	v := NewVirtualAtZero()
	fired := false
	tm := v.AfterFunc(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true")
	}
	v.Advance(time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestVirtualTimerReset(t *testing.T) {
	v := NewVirtualAtZero()
	n := 0
	tm := v.AfterFunc(10*time.Millisecond, func() { n++ })
	if !tm.Reset(50 * time.Millisecond) {
		t.Fatal("Reset on active timer returned false")
	}
	v.Advance(20 * time.Millisecond)
	if n != 0 {
		t.Fatal("timer fired at original deadline after Reset")
	}
	v.Advance(40 * time.Millisecond)
	if n != 1 {
		t.Fatalf("timer fired %d times, want 1", n)
	}
	// Reset after firing re-arms.
	if tm.Reset(5 * time.Millisecond) {
		t.Fatal("Reset on fired timer returned true")
	}
	v.Advance(5 * time.Millisecond)
	if n != 2 {
		t.Fatalf("re-armed timer fired %d times, want 2", n)
	}
}

func TestVirtualChainedEventsWithinOneAdvance(t *testing.T) {
	v := NewVirtualAtZero()
	depth := 0
	var chain func()
	chain = func() {
		depth++
		if depth < 5 {
			v.AfterFunc(10*time.Millisecond, chain)
		}
	}
	v.AfterFunc(10*time.Millisecond, chain)
	v.Advance(time.Second)
	if depth != 5 {
		t.Fatalf("chain depth %d, want 5", depth)
	}
}

// TestVirtualHorizon pins what a firing callback may run ahead to: the
// next queued deadline, capped by the end of Run's window (inclusive of
// its target), unbounded in a drain once the queue is empty, and Now
// outside a pump; a nested pump restores the outer window.
func TestVirtualHorizon(t *testing.T) {
	v := NewVirtualAtZero()
	at := func(d time.Duration) time.Time { return time.Unix(0, 0).UTC().Add(d) }
	if h := v.Horizon(); !h.Equal(at(0)) {
		t.Fatalf("outside a pump: horizon %v, want Now", h)
	}
	var got []time.Time
	record := func() { got = append(got, v.Horizon()) }
	v.AfterFunc(time.Millisecond, record)
	v.AfterFunc(3*time.Millisecond, record)
	v.Run(at(5 * time.Millisecond))
	v.AfterFunc(time.Millisecond, func() {
		record()
		v.Run(at(7 * time.Millisecond)) // nested: window ends at 7 ms
		record()
	})
	v.AfterFunc(2*time.Millisecond, record)
	v.RunUntilIdle()
	want := []time.Time{
		at(3 * time.Millisecond),   // the queued 3 ms event
		at(5*time.Millisecond + 1), // Run's window: target included
		at(7 * time.Millisecond),   // the queued 7 ms event
		at(7*time.Millisecond + 1), // fired inside the nested Run
		time.Unix(1<<62, 0),        // the outer drain, queue empty
	}
	if len(got) != len(want) {
		t.Fatalf("horizons %v, want %v", got, want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("horizon %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestVirtualSleepWakesWhenDriven(t *testing.T) {
	v := NewVirtualAtZero()
	done := make(chan struct{})
	go func() {
		v.Sleep(100 * time.Millisecond)
		close(done)
	}()
	// Wait for the sleeper to register its event.
	for v.Pending() == 0 {
		time.Sleep(time.Millisecond)
	}
	v.Advance(100 * time.Millisecond)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Sleep did not wake after Advance")
	}
}

func TestVirtualAfterChannel(t *testing.T) {
	v := NewVirtualAtZero()
	ch := v.After(time.Minute)
	v.Advance(time.Minute)
	select {
	case at := <-ch:
		if got := at.Sub(time.Unix(0, 0).UTC()); got != time.Minute {
			t.Fatalf("After delivered %v, want 1m", got)
		}
	default:
		t.Fatal("After channel empty after Advance")
	}
}

func TestVirtualTickerFiresRepeatedly(t *testing.T) {
	v := NewVirtualAtZero()
	tk := v.NewTicker(10 * time.Millisecond)
	defer tk.Stop()
	count := 0
	for i := 0; i < 5; i++ {
		v.Advance(10 * time.Millisecond)
		select {
		case <-tk.C():
			count++
		default:
		}
	}
	if count != 5 {
		t.Fatalf("ticker fired %d times over 50ms, want 5", count)
	}
	tk.Stop()
	v.Advance(100 * time.Millisecond)
	select {
	case <-tk.C():
		t.Fatal("ticker fired after Stop")
	default:
	}
}

func TestVirtualRunUntilIdle(t *testing.T) {
	v := NewVirtualAtZero()
	total := 0
	for i := 1; i <= 4; i++ {
		d := time.Duration(i) * time.Second
		v.AfterFunc(d, func() { total++ })
	}
	end := v.RunUntilIdle()
	if total != 4 {
		t.Fatalf("fired %d, want 4", total)
	}
	if got := end.Sub(time.Unix(0, 0).UTC()); got != 4*time.Second {
		t.Fatalf("idle at %v, want 4s", got)
	}
	if v.Pending() != 0 {
		t.Fatalf("%d events still pending", v.Pending())
	}
}

func TestVirtualRunUntilIdleLimitBoundsTickers(t *testing.T) {
	v := NewVirtualAtZero()
	tk := v.NewTicker(time.Millisecond) // reschedules forever
	defer tk.Stop()
	v.RunUntilIdleLimit(100)
	if p := v.Pending(); p != 1 {
		t.Fatalf("pending = %d, want exactly the next tick", p)
	}
}

func TestVirtualConcurrentSchedulers(t *testing.T) {
	v := NewVirtualAtZero()
	var fired atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				v.AfterFunc(time.Duration(i)*time.Microsecond, func() { fired.Add(1) })
			}
		}()
	}
	wg.Wait()
	v.Advance(time.Second)
	if fired.Load() != 800 {
		t.Fatalf("fired %d, want 800", fired.Load())
	}
}

func TestRealClockBasics(t *testing.T) {
	c := Real{}
	t0 := c.Now()
	c.Sleep(time.Millisecond)
	if c.Now().Sub(t0) <= 0 {
		t.Fatal("real clock did not advance")
	}
	done := make(chan struct{})
	tm := c.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("real AfterFunc never fired")
	}
	tm.Stop()
	tk := c.NewTicker(time.Millisecond)
	select {
	case <-tk.C():
	case <-time.After(2 * time.Second):
		t.Fatal("real ticker never fired")
	}
	tk.Stop()
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(2 * time.Second):
		t.Fatal("real After never fired")
	}
}

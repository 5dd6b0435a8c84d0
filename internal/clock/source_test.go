package clock

import (
	"context"
	"testing"
	"time"
)

// --- Ordering contract, pinned for the virtual Source -----------------
//
// These tests freeze the same-timestamp semantics the simulation results
// depend on; the real-time Wall source inherits the contract (see below), so
// any change here is a model change and must be deliberate.

func TestOrderingEqualDeadlinesAreFIFO(t *testing.T) {
	v := NewVirtualAtZero()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		v.AfterFunc(time.Millisecond, func() { got = append(got, i) })
	}
	v.Drive(context.Background(), 1<<30)
	for i, x := range got {
		if x != i {
			t.Fatalf("equal-deadline events not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestOrderingZeroDelayFromCallbackRunsAfterQueuedPeers(t *testing.T) {
	v := NewVirtualAtZero()
	var got []string
	v.AfterFunc(time.Millisecond, func() {
		got = append(got, "a")
		// Scheduled at the current instant: must run after "b" and "c",
		// which were queued for this instant first.
		v.AfterFunc(0, func() { got = append(got, "a-child") })
	})
	v.AfterFunc(time.Millisecond, func() { got = append(got, "b") })
	v.AfterFunc(time.Millisecond, func() { got = append(got, "c") })
	v.Drive(context.Background(), 1<<30)
	want := []string{"a", "b", "c", "a-child"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestOrderingNegativeDelayClampsToZero(t *testing.T) {
	v := NewVirtualAtZero()
	ran := false
	v.AfterFunc(-time.Hour, func() { ran = true })
	if ran {
		t.Fatal("negative-delay callback ran inline with AfterFunc")
	}
	v.Drive(context.Background(), 1<<30)
	if !ran {
		t.Fatal("negative-delay callback never ran")
	}
	if got := v.Now().Sub(time.Unix(0, 0).UTC()); got != 0 {
		t.Fatalf("clock moved to +%v for a clamped event, want +0", got)
	}
}

func TestOrderingResetGetsFreshSequenceNumber(t *testing.T) {
	v := NewVirtualAtZero()
	var got []string
	tm := v.AfterFunc(time.Millisecond, func() { got = append(got, "reset") })
	v.AfterFunc(2*time.Millisecond, func() { got = append(got, "first") })
	// Reset the timer onto the already-occupied 2ms deadline: contract
	// says it fires after the event that was there first.
	tm.Reset(2 * time.Millisecond)
	v.Drive(context.Background(), 1<<30)
	if len(got) != 2 || got[0] != "first" || got[1] != "reset" {
		t.Fatalf("got %v, want [first reset]", got)
	}
}

// --- Source interface on Virtual --------------------------------------

func TestVirtualDriveMatchesRunUntilIdle(t *testing.T) {
	run := func(drive bool) (total int, end time.Time) {
		v := NewVirtualAtZero()
		for i := 1; i <= 4; i++ {
			d := time.Duration(i) * time.Second
			v.AfterFunc(d, func() { total++ })
		}
		if drive {
			end, _ = v.Drive(context.Background(), 1<<30)
		} else {
			end = v.RunUntilIdle()
		}
		return total, end
	}
	n1, e1 := run(true)
	n2, e2 := run(false)
	if n1 != n2 || !e1.Equal(e2) {
		t.Fatalf("Drive (%d, %v) != RunUntilIdle (%d, %v)", n1, e1, n2, e2)
	}
}

func TestVirtualDriveHonoursCancel(t *testing.T) {
	v := NewVirtualAtZero()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v.AfterFunc(time.Second, func() { t.Error("fired under a cancelled context") })
	if _, err := v.Drive(ctx, 1<<30); err == nil {
		t.Fatal("Drive returned nil error under a cancelled context")
	}
}

// --- Wall source -------------------------------------------------------

func TestWallDriveRunsCallbacksSerially(t *testing.T) {
	w := NewWall()
	var got []int
	// Same-deadline FIFO: all due immediately, must fire in scheduling
	// order on the driving goroutine.
	for i := 0; i < 50; i++ {
		i := i
		w.AfterFunc(0, func() { got = append(got, i) })
	}
	if _, err := w.Drive(context.Background(), 1<<30); err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("fired %d, want 50", len(got))
	}
	for i, x := range got {
		if x != i {
			t.Fatalf("wall equal-deadline events not FIFO: %v", got)
		}
	}
	if w.Pending() != 0 {
		t.Fatalf("%d events still pending", w.Pending())
	}
}

func TestWallDrivePacesAgainstRealTime(t *testing.T) {
	w := NewWall()
	var fired time.Time
	w.AfterFunc(30*time.Millisecond, func() { fired = time.Now() })
	start := time.Now()
	if _, err := w.Drive(context.Background(), 1<<30); err != nil {
		t.Fatal(err)
	}
	if el := fired.Sub(start); el < 25*time.Millisecond {
		t.Fatalf("callback fired after %v, want >= ~30ms", el)
	}
}

func TestWallChainedCallbacks(t *testing.T) {
	w := NewWall()
	depth := 0
	var chain func()
	chain = func() {
		depth++
		if depth < 5 {
			w.AfterFunc(time.Millisecond, chain)
		}
	}
	w.AfterFunc(time.Millisecond, chain)
	if _, err := w.Drive(context.Background(), 1<<30); err != nil {
		t.Fatal(err)
	}
	if depth != 5 {
		t.Fatalf("chain depth %d, want 5", depth)
	}
}

func TestWallWakesOnCrossGoroutineSchedule(t *testing.T) {
	w := NewWall()
	// Park Drive on a far deadline, then schedule a near one from
	// another goroutine: Drive must wake and fire it promptly.
	w.AfterFunc(10*time.Second, func() {})
	done := make(chan struct{})
	go func() {
		time.Sleep(10 * time.Millisecond)
		w.AfterFunc(0, func() { close(done) })
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go w.Drive(ctx, 1<<30)
	select {
	case <-done:
	case <-ctx.Done():
		t.Fatal("cross-goroutine schedule never woke Drive")
	}
}

func TestWallTimerStopAndTicker(t *testing.T) {
	w := NewWall()
	fired := false
	tm := w.AfterFunc(50*time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending wall timer")
	}
	ticks := 0
	tk := w.NewTicker(5 * time.Millisecond)
	stop := w.AfterFunc(26*time.Millisecond, func() { tk.Stop() })
	defer stop.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		w.Drive(context.Background(), 1)
		select {
		case <-tk.C():
			ticks++
		default:
		}
		if w.Pending() == 0 {
			break
		}
	}
	if fired {
		t.Fatal("stopped wall timer fired")
	}
	if ticks < 2 {
		t.Fatalf("wall ticker fired %d times over ~26ms at 5ms, want >= 2", ticks)
	}
}

func TestWallDriveCancel(t *testing.T) {
	w := NewWall()
	w.AfterFunc(time.Hour, func() { t.Error("fired") })
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := w.Drive(ctx, 1<<30); err != context.Canceled {
		t.Fatalf("Drive error = %v, want context.Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancel did not interrupt the deadline wait")
	}
}

package daemon

import (
	"context"
	"errors"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"supercharged/internal/bgp"
	"supercharged/internal/telemetry"
	"supercharged/internal/testutil"
)

// fastPolicy keeps resilience tests quick: millisecond backoffs and
// cooldowns, generous budgets.
func fastPolicy() DeliveryPolicy {
	return DeliveryPolicy{
		PushTimeout:      500 * time.Millisecond,
		RetryBudget:      6,
		BackoffBase:      time.Millisecond,
		BackoffMax:       5 * time.Millisecond,
		JitterFrac:       0.2,
		BreakerThreshold: 3,
		BreakerCooldown:  5 * time.Millisecond,
		BufferBytes:      1 << 20,
		Seed:             1,
	}
}

// dropSeqs loses chosen sequence numbers once — nothing lands — while
// passing delivery state through (StatefulSink). With err nil Apply
// still reports success, like a transport that loses a write; with err
// set it reports that, a transient push failure.
type dropSeqs struct {
	*FIBSink
	mu   sync.Mutex
	drop map[uint64]bool
	err  error
}

func (d *dropSeqs) Apply(b Batch) error {
	d.mu.Lock()
	doomed := !b.Resync && d.drop[b.Seq]
	if doomed {
		delete(d.drop, b.Seq)
	}
	d.mu.Unlock()
	if doomed {
		return d.err
	}
	return d.FIBSink.Apply(b)
}

// The daemon `serve` runs by default — a Config that says nothing about
// delivery — must not lose a batch: a failed push is retried, a
// swallowed one is found by the gap it leaves and healed by resync, and
// Drain has nothing to report.
func TestDefaultConfigSurvivesTransientSinkFaults(t *testing.T) {
	failing := &dropSeqs{FIBSink: NewFIBSink("failing"), drop: map[uint64]bool{2: true}, err: ErrSessionFailed}
	lossy := &dropSeqs{FIBSink: NewFIBSink("lossy"), drop: map[uint64]bool{3: true}}
	reg := telemetry.NewRegistry()
	d := New(Config{
		Sources:   []PeerSource{NewSynthetic("", peerMeta(0), 2000, 1, 0)},
		Routers:   []RouterSink{failing, lossy},
		Telemetry: reg,
	})
	d.Start(context.Background())
	drain(t, d) // fails the test if Drain returns an error

	for _, s := range []*dropSeqs{failing, lossy} {
		if s.Hash() != ribHash(d.RIB()) {
			t.Errorf("%s FIB (%d entries) differs from the RIB (%d prefixes)", s.Name(), s.Len(), d.RIB().Len())
		}
		if st := s.State(); len(st.Missing) != 0 {
			t.Errorf("%s left ranges %v unhealed", s.Name(), st.Missing)
		}
	}
	for series, router := range map[string]string{
		"supercharged_daemon_push_retries_total": "failing",
		"supercharged_daemon_resyncs_total":      "lossy",
	} {
		if reg.Counter(telemetry.Series(series, "router", router), "").Value() == 0 {
			t.Errorf("%s{router=%q} is 0, want at least 1", series, router)
		}
	}
}

func TestGapTriggersResync(t *testing.T) {
	fib := NewFIBSink("edge0")
	sink := &dropSeqs{FIBSink: fib, drop: map[uint64]bool{3: true}}
	reg := telemetry.NewRegistry()
	d := New(Config{
		Sources:   []PeerSource{NewSynthetic("", peerMeta(0), 2000, 1, 0)},
		Routers:   []RouterSink{sink},
		BatchSize: 64, BatchInterval: 2 * time.Millisecond,
		Telemetry: reg,
		Delivery:  fastPolicy(),
	})
	d.Start(context.Background())
	drain(t, d)

	st := fib.State()
	if st.Gaps != 1 || st.Healed != 1 || len(st.Missing) != 0 {
		t.Fatalf("gap accounting after drain: %+v", st)
	}
	if got, want := fib.Len(), d.RIB().Len(); got != want {
		t.Fatalf("FIB has %d entries, RIB %d", got, want)
	}
	if states := d.DeliveryStates(); states["edge0"] != "closed" {
		t.Fatalf("breaker state = %q, want closed", states["edge0"])
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exp := b.String()
	for _, want := range []string{
		`supercharged_daemon_sink_gaps_total{router="edge0"} 1`,
		`supercharged_daemon_sink_gap_last_seq{router="edge0"} 3`,
		`supercharged_daemon_resyncs_total{router="edge0"} 1`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	if !strings.Contains(exp, `supercharged_daemon_resync_routes_total{router="edge0"}`) {
		t.Errorf("metrics exposition missing resync route counter")
	}
}

// faultySink fails its first failN Apply calls outright, then works,
// recording everything that lands. It is deliberately NOT stateful, so
// recovery must come from the worker's buffered replay.
type faultySink struct {
	mu    sync.Mutex
	failN int
	calls int
	fib   map[netip.Prefix]netip.Addr
}

func (s *faultySink) Name() string { return "flaky" }

func (s *faultySink) Apply(b Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.calls <= s.failN {
		return ErrSessionFailed // any non-gap error
	}
	if s.fib == nil {
		s.fib = make(map[netip.Prefix]netip.Addr)
	}
	for _, ch := range b.Changes {
		if ch.NextHop.IsValid() {
			s.fib[ch.Prefix] = ch.NextHop
		} else {
			delete(s.fib, ch.Prefix)
		}
	}
	return nil
}

func (s *faultySink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.fib)
}

func TestBreakerTripsBuffersAndReplays(t *testing.T) {
	// 12 consecutive failures: enough to burn the first batch's retry
	// budget, trip the breaker (threshold 3), and fail at least one
	// half-open replay before recovering.
	sink := &faultySink{failN: 12}
	reg := telemetry.NewRegistry()
	d := New(Config{
		Sources:   []PeerSource{NewSynthetic("", peerMeta(0), 1500, 1, 0)},
		Routers:   []RouterSink{sink},
		BatchSize: 64, BatchInterval: 2 * time.Millisecond,
		Telemetry: reg,
		Delivery:  fastPolicy(),
	})
	d.Start(context.Background())
	drain(t, d)

	if got, want := sink.len(), d.RIB().Len(); got != want {
		t.Fatalf("sink holds %d entries after recovery, RIB %d — buffered replay lost updates", got, want)
	}
	if states := d.DeliveryStates(); states["flaky"] != "closed" {
		t.Fatalf("breaker state = %q, want closed", states["flaky"])
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exp := b.String()
	for _, want := range []string{
		`supercharged_daemon_breaker_trips_total{router="flaky"}`,
		`supercharged_daemon_push_retries_total{router="flaky"}`,
		`supercharged_daemon_breaker_state{router="flaky"} 0`,
		`supercharged_daemon_buffered_bytes{router="flaky"} 0`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// stallOnce blocks one Apply long enough to blow the push timeout; the
// late apply still lands afterwards, exercising the stale-skip path.
type stallOnce struct {
	*FIBSink
	mu      sync.Mutex
	stall   time.Duration
	stalled bool
	// rewritten: the stalled batch's Changes were not, after the stall,
	// what they were before it.
	rewritten atomic.Bool
}

func (s *stallOnce) Apply(b Batch) error {
	s.mu.Lock()
	first := !s.stalled && !b.Resync
	s.stalled = s.stalled || first
	s.mu.Unlock()
	if first {
		before := slices.Clone(b.Changes)
		time.Sleep(s.stall)
		if !slices.Equal(before, b.Changes) {
			s.rewritten.Store(true)
		}
	}
	return s.FIBSink.Apply(b)
}

func TestPushTimeoutRecoversWithoutDoubleApply(t *testing.T) {
	pol := fastPolicy()
	pol.PushTimeout = 20 * time.Millisecond
	fib := NewFIBSink("edge0")
	sink := &stallOnce{FIBSink: fib, stall: 120 * time.Millisecond}
	reg := telemetry.NewRegistry()
	d := New(Config{
		Sources:   []PeerSource{NewSynthetic("", peerMeta(0), 1000, 1, 0)},
		Routers:   []RouterSink{sink},
		BatchSize: 64, BatchInterval: 2 * time.Millisecond,
		Telemetry: reg,
		Delivery:  pol,
	})
	d.Start(context.Background())
	drain(t, d)

	if got, want := fib.Len(), d.RIB().Len(); got != want {
		t.Fatalf("FIB has %d entries, RIB %d", got, want)
	}
	if got := fib.State(); len(got.Missing) != 0 {
		t.Fatalf("unhealed ranges after timeout recovery: %v", got.Missing)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `supercharged_daemon_push_timeouts_total{router="edge0"} 1`) {
		t.Errorf("metrics exposition missing the push timeout counter:\n%s", b.String())
	}
}

// An Apply that outlived its push timeout is still reading its batch
// after the worker has given up on it and the other router has long
// applied it: the batch's storage must not go back to the daemon. One
// timeout trips the breaker here, so the worker moves on at once, and
// the UPDATEs sent after that would be built in the stalled batch's
// array if it had been handed back.
func TestStalledApplyKeepsItsBatch(t *testing.T) {
	pol := fastPolicy()
	pol.PushTimeout = 20 * time.Millisecond
	pol.BreakerThreshold = 1
	pol.BreakerCooldown = 300 * time.Millisecond // stay open past the stall
	src := newStepSource(peerMeta(0))
	slow := &stallOnce{FIBSink: NewFIBSink("slow"), stall: 200 * time.Millisecond}
	fast := NewFIBSink("fast")
	d := New(Config{
		Sources:  []PeerSource{src},
		Routers:  []RouterSink{slow, fast},
		Shards:   1,
		Delivery: pol,
	})
	d.Start(context.Background())
	defer d.Stop()

	ups := stepUpdates(21*10, 10, src.meta.Addr)
	src.send(ups[0])
	deadline := time.Now().Add(testutil.Budget(t, 10*time.Second))
	for d.DeliveryStates()["slow"] != "open" {
		if time.Now().After(deadline) {
			t.Fatal("the push timeout never tripped the breaker")
		}
		time.Sleep(time.Millisecond)
	}
	for _, u := range ups[1:] {
		src.send(u)
	}
	ctx, cancel := testutil.Context(t, 30*time.Second)
	defer cancel()
	if err := d.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	if slow.rewritten.Load() {
		t.Error("the stalled batch was rewritten while its Apply was still reading it")
	}
	for _, s := range []*FIBSink{slow.FIBSink, fast} {
		if s.Hash() != ribHash(d.RIB()) {
			t.Errorf("%s FIB differs from the RIB", s.Name())
		}
	}
}

// corruptThenClean fails its first session with a corrupt update (an
// invalid NLRI prefix) and replays cleanly on reconnect.
type corruptThenClean struct {
	*TableReplay
	mu       sync.Mutex
	sessions int
}

func (c *corruptThenClean) Run(ctx context.Context, emit func(*bgp.Update) error) error {
	c.mu.Lock()
	s := c.sessions
	c.sessions++
	c.mu.Unlock()
	if s == 0 {
		return emit(&bgp.Update{Attrs: &bgp.Attrs{}, NLRI: []netip.Prefix{{}}})
	}
	return c.TableReplay.Run(ctx, emit)
}

func TestCorruptUpdateFailsSessionAndReconnects(t *testing.T) {
	src := &corruptThenClean{TableReplay: NewSynthetic("feed", peerMeta(0), 700, 1, 0)}
	sink := NewFIBSink("edge0")
	reg := telemetry.NewRegistry()
	d := New(Config{
		Sources:   []PeerSource{src},
		Routers:   []RouterSink{sink},
		Telemetry: reg,
		Reconnect: ReconnectPolicy{
			MaxAttempts: 3,
			Backoff:     time.Millisecond,
			BackoffMax:  5 * time.Millisecond,
			Seed:        1,
		},
	})
	d.Start(context.Background())
	drain(t, d)

	if got := d.RIB().Len(); got != 700 {
		t.Fatalf("RIB has %d prefixes after reconnect, want 700", got)
	}
	if got := sink.Len(); got != 700 {
		t.Fatalf("sink has %d entries after reconnect, want 700", got)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exp := b.String()
	for _, want := range []string{
		`supercharged_daemon_corrupt_updates_total{peer="feed"} 1`,
		`supercharged_daemon_reconnects_total{peer="feed"} 1`,
		`supercharged_daemon_failovers_total 1`,
		`supercharged_daemon_session_up{peer="feed"} 1`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func TestCoalescePreservesSemantics(t *testing.T) {
	pol := fastPolicy()
	pol.BufferBytes = 4 * routeChangeBytes // force shedding almost immediately
	d := New(Config{Delivery: pol})
	w := newSinkWorker(d, nil, NewFIBSink("buf"))

	batches := []Batch{
		{Seq: 1, Changes: []RouteChange{rc("1.0.0.0/24", "10.0.0.1"), rc("2.0.0.0/24", "10.0.0.1")}},
		{Seq: 2, Changes: []RouteChange{rc("1.0.0.0/24", "10.0.0.2"), rc("3.0.0.0/24", "10.0.0.3")}},
		{Seq: 3, Changes: []RouteChange{rc("2.0.0.0/24", ""), rc("4.0.0.0/24", "10.0.0.4")}},
		{Seq: 4, Changes: []RouteChange{rc("1.0.0.0/24", "10.0.0.5")}},
	}
	want := NewFIBSink("want")
	for _, b := range batches {
		if err := want.Apply(b); err != nil {
			t.Fatal(err)
		}
		w.buffer(b)
	}
	if len(w.buf) >= len(batches) {
		t.Fatalf("no coalescing happened: %d batches buffered", len(w.buf))
	}
	got := NewFIBSink("got")
	seq := uint64(0)
	for _, b := range w.buf {
		if b.Seq <= seq {
			t.Fatalf("coalesced buffer out of order: seq %d after %d", b.Seq, seq)
		}
		seq = b.Seq
		// Coalescing removes sequence numbers by design; only the gap
		// report is expected, the content must still land.
		var gap *GapError
		if err := got.Apply(b); err != nil && !errors.As(err, &gap) {
			t.Fatal(err)
		}
	}
	if gotH, wantH := got.Hash(), want.Hash(); gotH != wantH {
		t.Fatalf("coalesced replay diverged: %v, want %v", got.Entries(), want.Entries())
	}
}

package daemon

import (
	"context"
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"supercharged/internal/bgp"
	"supercharged/internal/clock"
	"supercharged/internal/feed"
	"supercharged/internal/telemetry"
	"supercharged/internal/testutil"
)

// zeroAndExplicitPolicy runs a group-commit test the two ways callers
// configure the one delivery loop: "plain" leaves Config.Delivery zero,
// as serve and the benchmark do, and gets DefaultDeliveryPolicy's pace;
// "policy" passes an explicit one, as the chaos soak does.
func zeroAndExplicitPolicy(t *testing.T, test func(t *testing.T, pol DeliveryPolicy)) {
	t.Run("plain", func(t *testing.T) { test(t, DeliveryPolicy{}) })
	t.Run("policy", func(t *testing.T) { test(t, fastPolicy()) })
}

// stepSource is a hand-cranked peer: each update sent on ups is emitted
// on the ingestion goroutine and acknowledged on acked once emit has
// returned, so the test knows the daemon has fully ingested it.
type stepSource struct {
	meta  bgp.PeerMeta
	ups   chan *bgp.Update
	acked chan struct{}
}

func newStepSource(meta bgp.PeerMeta) *stepSource {
	return &stepSource{meta: meta, ups: make(chan *bgp.Update), acked: make(chan struct{})}
}

func (s *stepSource) Peer() bgp.PeerMeta { return s.meta }
func (s *stepSource) Name() string       { return s.meta.Addr.String() }

func (s *stepSource) Run(ctx context.Context, emit func(*bgp.Update) error) error {
	for {
		select {
		case u, ok := <-s.ups:
			if !ok {
				return nil
			}
			if err := emit(u); err != nil {
				return err
			}
			s.acked <- struct{}{}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// send ingests one update and returns once emit has returned.
func (s *stepSource) send(u *bgp.Update) {
	s.ups <- u
	<-s.acked
}

// watchSink is a FIBSink that reports each Apply: entered before the
// inner Apply (and before the optional gate, which holds the router
// busy inside Apply until the test releases it), applied after. It also
// holds the daemon to the lending rule for batch storage: rewritten
// counts the batches whose Changes differed on the way out of Apply
// from what they were on the way in.
type watchSink struct {
	*FIBSink
	gate      chan struct{} // nil = never blocks
	open      sync.Once
	entered   chan uint64
	applied   chan Batch
	rewritten atomic.Int32
}

// release opens the gate for good.
func (s *watchSink) release() { s.open.Do(func() { close(s.gate) }) }

func newWatchSink(name string, gated bool) *watchSink {
	s := &watchSink{
		FIBSink: NewFIBSink(name),
		entered: make(chan uint64, 1024), // never blocks Apply: the tests ship far fewer batches
		applied: make(chan Batch, 1024),
	}
	if gated {
		s.gate = make(chan struct{})
	}
	return s
}

func (s *watchSink) Apply(b Batch) error {
	s.entered <- b.Seq
	before := slices.Clone(b.Changes)
	if s.gate != nil {
		<-s.gate
	}
	err := s.FIBSink.Apply(b)
	if !slices.Equal(before, b.Changes) {
		s.rewritten.Add(1)
	}
	s.applied <- b
	return err
}

// await receives from ch within the test budget.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(testutil.Budget(t, 10*time.Second)):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// ribHash digests the RIB's best paths the way FIBSink.Hash digests a
// FIB, so "FIB == RIB" is one compare.
func ribHash(rib *ShardedRIB) uint64 {
	var want []FIBEntry
	for _, ch := range rib.Snapshot(nil) {
		want = append(want, FIBEntry{Prefix: ch.Prefix, NextHop: ch.NextHop})
	}
	SortFIBEntries(want)
	return HashEntries(want)
}

// stepUpdates cuts a generated table into UPDATEs of per prefixes.
func stepUpdates(n, per int, nh netip.Addr) []*bgp.Update {
	pfx := feed.Generate(feed.Config{N: n, Seed: 1}).Prefixes()
	var out []*bgp.Update
	for i := 0; i < len(pfx); i += per {
		out = append(out, &bgp.Update{
			Attrs: &bgp.Attrs{NextHop: nh, ASPath: bgp.ASPath{}},
			NLRI:  pfx[i:min(i+per, len(pfx))],
		})
	}
	return out
}

// (a) With every router idle an UPDATE is programmed at once: no timer
// is involved, so a virtual clock that never advances is enough.
func TestIdleDaemonShipsWithoutTimer(t *testing.T) {
	zeroAndExplicitPolicy(t, func(t *testing.T, pol DeliveryPolicy) {
		clk := clock.NewVirtualAtZero()
		src := newStepSource(peerMeta(0))
		sinks := []*watchSink{newWatchSink("edge0", false), newWatchSink("edge1", false)}
		d := New(Config{
			Sources: []PeerSource{src}, Routers: []RouterSink{sinks[0], sinks[1]},
			Clock: clk, Delivery: pol,
		})
		d.Start(context.Background())
		defer d.Stop()

		// An UPDATE usually travels as one batch; a router's own check,
		// made as it finishes the previous batch, may split it.
		seq := make([]uint64, len(sinks))
		for _, u := range stepUpdates(60, 20, src.meta.Addr) {
			src.send(u)
			for i, s := range sinks {
				for got := 0; got < len(u.NLRI); {
					b := await(t, s.applied, "the UPDATE's changes on "+s.Name())
					if b.Seq != seq[i]+1 {
						t.Fatalf("%s applied seq %d after %d", s.Name(), b.Seq, seq[i])
					}
					seq[i], got = b.Seq, got+len(b.Changes)
				}
			}
		}
		if !clk.Now().Equal(time.Unix(0, 0)) {
			t.Fatalf("virtual clock moved to %v", clk.Now())
		}
		for _, s := range sinks {
			if s.Hash() != ribHash(d.RIB()) {
				t.Fatalf("%s FIB differs from the RIB", s.Name())
			}
		}
	})
}

// (b) While a router is busy the pending batch accumulates: however
// many UPDATEs arrive, the daemon ships the batch the router is inside,
// one more into its queue, and then only BatchSize-bounded batches.
// When the router comes back the delivery loop itself ships the rest.
func TestBusyRouterGrowsTheBatch(t *testing.T) {
	zeroAndExplicitPolicy(t, func(t *testing.T, pol DeliveryPolicy) {
		// 100 UPDATEs of 7 routes: the size bound fires at 70 pending
		// changes, every tenth UPDATE, and 98 of them arrive behind the
		// queued batch, so a remainder stays pending.
		const per, batchSize = 7, 64
		src := newStepSource(peerMeta(0))
		busy, idle := newWatchSink("busy", true), newWatchSink("idle", false)
		d := New(Config{
			Sources: []PeerSource{src}, Routers: []RouterSink{busy, idle},
			Shards: 1, BatchSize: batchSize,
			Clock: clock.NewVirtualAtZero(), Delivery: pol,
		})
		d.Start(context.Background())
		defer d.Stop()
		defer busy.release()

		ups := stepUpdates(700, per, src.meta.Addr)
		src.send(ups[0])
		// Both routers take batch 1 before the rest arrives. An idle
		// router that took it late would ship whatever is pending at that
		// moment, and where the size flushes then fall would decide
		// whether anything is left pending.
		await(t, busy.entered, "the busy router to enter Apply")
		await(t, idle.entered, "the idle router to enter Apply")
		for _, u := range ups[1:] {
			src.send(u)
		}
		changes := per * len(ups)
		limit := 2 + (changes+batchSize-1)/batchSize
		if got := int(d.finalSeq()); got < 3 || got > limit {
			t.Fatalf("%d batches flushed against a busy router, want 3 (the size bound fired) to %d", got, limit)
		}
		d.mu.Lock()
		pending := len(d.batch)
		d.mu.Unlock()
		if pending == 0 || pending >= batchSize {
			t.Fatalf("%d changes pending, want a partial batch held back by the busy router", pending)
		}

		// Release the router. Nothing else will poke the daemon — the
		// source is silent and the clock frozen — so the remainder can
		// only ship from the delivery loop's own check.
		busy.release()
		for _, s := range []*watchSink{busy, idle} {
			seq, got := uint64(0), 0
			for got < changes {
				b := await(t, s.applied, "the backlog on "+s.Name())
				if b.Seq != seq+1 {
					t.Fatalf("%s applied seq %d after %d", s.Name(), b.Seq, seq)
				}
				if len(b.Changes) > batchSize+per {
					t.Fatalf("%s applied a %d-change batch, BatchSize is %d", s.Name(), len(b.Changes), batchSize)
				}
				seq, got = b.Seq, got+len(b.Changes)
			}
			if s.Gaps() != 0 {
				t.Fatalf("%s observed %d gaps", s.Name(), s.Gaps())
			}
			if s.Hash() != ribHash(d.RIB()) {
				t.Fatalf("%s FIB differs from the RIB", s.Name())
			}
		}
	})
}

// Batch storage goes round: with one batch per UPDATE a fresh slice per
// batch would be most of what the daemon allocates. Two hundred
// single-UPDATE batches through an idle daemon are built in a handful
// of arrays, and no router ever sees one change under it.
func TestBatchStorageIsRecycled(t *testing.T) {
	zeroAndExplicitPolicy(t, func(t *testing.T, pol DeliveryPolicy) {
		src := newStepSource(peerMeta(0))
		sinks := []*watchSink{newWatchSink("edge0", false), newWatchSink("edge1", false)}
		d := New(Config{
			Sources: []PeerSource{src}, Routers: []RouterSink{sinks[0], sinks[1]},
			Shards: 1, Clock: clock.NewVirtualAtZero(), Delivery: pol,
		})
		d.Start(context.Background())
		defer d.Stop()

		const per = 20
		arrays := make(map[*RouteChange]bool)
		ups := stepUpdates(200*per, per, src.meta.Addr)
		for _, u := range ups {
			src.send(u)
			for _, s := range sinks {
				for got := 0; got < per; {
					b := await(t, s.applied, "the UPDATE's changes on "+s.Name())
					arrays[&b.Changes[0]] = true
					got += len(b.Changes)
				}
			}
		}
		if len(arrays) > 10 {
			t.Errorf("%d batches were built in %d arrays, want a handful", len(ups), len(arrays))
		}
		for _, s := range sinks {
			if n := s.rewritten.Load(); n != 0 {
				t.Errorf("%s: %d batches changed while Apply was reading them", s.Name(), n)
			}
			if s.Hash() != ribHash(d.RIB()) {
				t.Errorf("%s FIB differs from the RIB", s.Name())
			}
		}
	})
}

// ... but only once every router has applied it: while one router sits
// inside Apply, the batches the other has long finished with are not
// the daemon's to rewrite, however many more it builds meanwhile.
func TestBatchStorageWaitsForTheSlowestRouter(t *testing.T) {
	zeroAndExplicitPolicy(t, func(t *testing.T, pol DeliveryPolicy) {
		const per, batchSize = 4, 8
		src := newStepSource(peerMeta(0))
		busy, idle := newWatchSink("busy", true), newWatchSink("idle", false)
		d := New(Config{
			Sources: []PeerSource{src}, Routers: []RouterSink{busy, idle},
			Shards: 1, BatchSize: batchSize,
			Clock: clock.NewVirtualAtZero(), Delivery: pol,
		})
		d.Start(context.Background())
		defer d.Stop()
		defer busy.release()

		ups := stepUpdates(31*per, per, src.meta.Addr)
		src.send(ups[0])
		await(t, busy.entered, "the busy router to enter Apply")
		for _, u := range ups[1:] {
			src.send(u)
		}
		d.flush() // the partial batch the busy router holds back
		changes := per * len(ups)
		for got := 0; got < changes; {
			got += len(await(t, idle.applied, "the idle router to apply everything").Changes)
		}
		d.mu.Lock()
		free := len(d.free)
		d.mu.Unlock()
		if free != 0 {
			t.Fatalf("%d arrays handed back while the busy router still holds every batch", free)
		}

		busy.release()
		ctx, cancel := testutil.Context(t, 10*time.Second)
		defer cancel()
		if err := d.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		d.mu.Lock()
		free = len(d.free)
		d.mu.Unlock()
		if free == 0 {
			t.Error("no array came back once every router had applied every batch")
		}
		for _, s := range []*watchSink{busy, idle} {
			if n := s.rewritten.Load(); n != 0 {
				t.Errorf("%s: %d batches changed while Apply was reading them", s.Name(), n)
			}
			if s.Hash() != ribHash(d.RIB()) {
				t.Errorf("%s FIB differs from the RIB", s.Name())
			}
		}
	})
}

// (c) The smallest queue, small batches and unpaced writers: every
// flusher — two ingestion goroutines, the delivery goroutines and the
// timer — contends for the same two one-slot queues. Run under -race
// -count=10 with a short -timeout: a delivery goroutine that ever
// blocked in its own flush would hang the drain.
func TestGroupCommitUnderContention(t *testing.T) {
	zeroAndExplicitPolicy(t, func(t *testing.T, pol DeliveryPolicy) {
		a, b := NewFIBSink("a"), NewFIBSink("b")
		d := New(Config{
			Sources: []PeerSource{
				NewSynthetic("", peerMeta(0), 3000, 1, 0),
				NewSynthetic("", peerMeta(1), 3000, 2, 0),
			},
			Routers:    []RouterSink{a, b},
			QueueDepth: 1, BatchSize: 16, BatchInterval: time.Millisecond,
			Delivery: pol,
		})
		d.Start(context.Background())
		drain(t, d)

		want := ribHash(d.RIB())
		for _, s := range []*FIBSink{a, b} {
			st := s.State()
			if st.Gaps != 0 || st.LastSeq != d.finalSeq() {
				t.Fatalf("%s: %d gaps, last seq %d of %d", s.Name(), st.Gaps, st.LastSeq, d.finalSeq())
			}
			if s.Hash() != want {
				t.Fatalf("%s FIB differs from the RIB", s.Name())
			}
		}
		if a.Batches() != b.Batches() {
			t.Fatalf("a applied %d batches, b %d", a.Batches(), b.Batches())
		}
	})
}

func TestDrainBeforeStartIsNotLatched(t *testing.T) {
	sink := NewFIBSink("edge0")
	d := New(Config{
		Sources: []PeerSource{NewSynthetic("", peerMeta(0), 300, 1, 0)},
		Routers: []RouterSink{sink},
	})
	if err := d.Drain(context.Background()); err != nil {
		t.Fatalf("drain before start: %v", err)
	}
	d.Start(context.Background())
	drain(t, d)
	// The real shutdown ran: the queues are closed and the delivery
	// goroutine has applied everything and exited.
	exited := make(chan struct{})
	go func() { d.sinkWG.Wait(); close(exited) }()
	await(t, exited, "the delivery goroutine to exit")
	if got := sink.Len(); got != 300 {
		t.Fatalf("sink holds %d entries after Drain, want 300", got)
	}
}

// Propagation is measured from the moment a change started waiting, and
// the wait for ready routers is its own series: a batch held back for
// 30 ms by a busy router must show those 30 ms in both.
func TestPropagationIncludesBatchWait(t *testing.T) {
	clk := clock.NewVirtualAtZero()
	reg := telemetry.NewRegistry()
	src := newStepSource(peerMeta(0))
	sink := newWatchSink("edge0", true)
	d := New(Config{
		Sources: []PeerSource{src}, Routers: []RouterSink{sink},
		Clock: clk, Telemetry: reg,
	})
	d.Start(context.Background())
	defer d.Stop()
	defer sink.release()

	ups := stepUpdates(30, 10, src.meta.Addr)
	src.send(ups[0]) // in flight
	await(t, sink.entered, "the router to enter Apply")
	src.send(ups[1]) // queued
	src.send(ups[2]) // pending
	clk.Advance(30 * time.Millisecond)
	sink.release()
	for range ups {
		await(t, sink.applied, "the held-back batches")
	}
	// Apply's return races the delivery loop's accounting by design;
	// Stop waits for the loop.
	d.Stop()

	wait := reg.Histogram("supercharged_daemon_batch_wait_seconds", "", nil)
	prop := reg.Histogram("supercharged_daemon_propagation_seconds", "", nil)
	if wait.Count() != 3 || wait.Sum() != 0.03 {
		t.Fatalf("batch wait: %d observations summing to %v s, want 3 and 0.03", wait.Count(), wait.Sum())
	}
	// All three batches were applied 30 ms after their first change.
	if got := prop.Sum(); prop.Count() != 3 || got < 0.0899 || got > 0.0901 {
		t.Fatalf("propagation: %d observations summing to %v s, want 3 and 0.09", prop.Count(), got)
	}
}

func TestDeliveryAccountingDoesNotAllocate(t *testing.T) {
	b := Batch{Seq: 1, Changes: make([]RouteChange, 50)}
	now := time.Now()
	var off *metrics
	on := newMetrics(telemetry.NewRegistry(), New(Config{}))
	for name, m := range map[string]*metrics{"nil registry": off, "registry": on} {
		series := m.router(NewFIBSink("edge0"))
		if n := testing.AllocsPerRun(100, func() {
			m.flush(b)
			series.delivered(b, now)
		}); n != 0 {
			t.Errorf("%s: %v allocations per flushed and applied batch, want 0", name, n)
		}
	}
}

// One batch per UPDATE makes delivering a batch a per-UPDATE cost: on
// the clean path — hand the batch to the applier, arm the push timeout,
// look at the result — the worker must not allocate (a goroutine,
// channel and timer per attempt did, and so did asking a nil error
// whether it was a gap).
func TestCleanDeliveryDoesNotAllocate(t *testing.T) {
	sink := NewFIBSink("edge0")
	w := newSinkWorker(New(Config{}), nil, sink)
	b := Batch{Changes: make([]RouteChange, 50)}
	if n := testing.AllocsPerRun(100, func() {
		b.Seq++
		w.deliverClosed(b)
	}); n != 0 {
		t.Errorf("%v allocations per delivered batch, want 0", n)
	}
	if got := sink.State().LastSeq; got != b.Seq || !w.is(stateClosed) {
		t.Fatalf("sink at seq %d of %d, breaker %s", got, b.Seq, w.stateName())
	}
}

// A peer removal hands flatten a table-sized change list in one go; the
// shard's buffer, sized by the load's small UPDATEs, must be resized for
// it once, not grown by doubling (O(log n) ever-larger allocations in
// every shard at once, on the failover path).
func TestRemovePeerEmitSizesItsBufferOnce(t *testing.T) {
	const n = 25000
	peer := peerMeta(0)
	rib := NewShardedRIB(1, n)
	for _, u := range stepUpdates(n, 50, peer.Addr) {
		rib.UpdateEmit(peer, u, nil)
	}
	emitted := 0
	emit := func(ch []RouteChange) { emitted += len(ch) }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rib.RemovePeerEmit(peer.Addr, emit)
	runtime.ReadMemStats(&after)
	if emitted != n {
		t.Fatalf("emitted %d changes, want %d", emitted, n)
	}
	// Two are inherent: the bgp.Change list and the RouteChange list.
	if got := after.Mallocs - before.Mallocs; got > 6 {
		t.Errorf("RemovePeerEmit of a %d-prefix shard made %d allocations, want a constant few", n, got)
	}
}

// Degraded buffering under group commit: an open breaker receives one
// small batch per UPDATE. Folding them into the tail must keep the
// buffer's length and the number of sheds what whole-BatchSize batches
// would have cost, never touch the arriving batches' shared slices, and
// replay to exactly the RIB's state.
func TestBufferFoldsSmallBatches(t *testing.T) {
	const updates, batchSize = 20000, 256
	pol := fastPolicy()
	pol.BufferBytes = 64 << 10
	reg := telemetry.NewRegistry()
	sink := &faultySink{}
	d := New(Config{Delivery: pol, BatchSize: batchSize, Telemetry: reg})
	w := newSinkWorker(d, nil, sink)
	w.state.Store(stateOpen)

	// Two peers churning 2000 prefixes through a real RIB, one batch per
	// UPDATE; each batch's slice carries a canary past its length.
	rib := NewShardedRIB(4, 0)
	pfx := feed.Generate(feed.Config{N: 2000, Seed: 3}).Prefixes()
	rng := rand.New(rand.NewSource(1))
	canary := RouteChange{Prefix: netip.MustParsePrefix("192.0.2.0/24")}
	var batches []Batch
	changes := 0
	for i := 0; i < updates; i++ {
		peer := peerMeta(rng.Intn(2))
		at := rng.Intn(len(pfx) - 4)
		u := &bgp.Update{Withdrawn: pfx[at : at+1+rng.Intn(3)]}
		if rng.Intn(3) > 0 {
			u = &bgp.Update{Attrs: &bgp.Attrs{NextHop: peer.Addr, ASPath: bgp.ASPath{}}, NLRI: u.Withdrawn}
		}
		var ch []RouteChange
		rib.UpdateEmit(peer, u, func(c []RouteChange) { ch = append(ch, c...) })
		if len(ch) == 0 {
			continue
		}
		ch = append(ch, canary)[:len(ch)]
		b := Batch{Seq: uint64(len(batches) + 1), Changes: ch}
		batches = append(batches, b)
		changes += len(ch)
		w.buffer(b)
	}

	bound := changes/batchSize + 1
	if len(w.buf) > bound {
		t.Errorf("%d batches buffered for %d changes, want at most %d", len(w.buf), changes, bound)
	}
	shed := reg.Counter(telemetry.Series("supercharged_daemon_shed_coalesced_total", "router", sink.Name()), "").Value()
	if shed == 0 || int(shed) > bound {
		t.Errorf("%d sheds for %d changes past a %d-byte cap, want 1..%d", shed, changes, pol.BufferBytes, bound)
	}
	for _, b := range batches {
		if got := b.Changes[:len(b.Changes)+1][len(b.Changes)]; got != canary {
			t.Fatalf("seq %d: buffering wrote past the arriving batch's slice", b.Seq)
		}
	}
	if got := w.buf[len(w.buf)-1].Seq; got != uint64(len(batches)) {
		t.Errorf("buffer tail carries seq %d, want the newest (%d)", got, len(batches))
	}

	if !w.replayBuffer() {
		t.Fatal("replay failed")
	}
	got := make([]FIBEntry, 0, len(sink.fib))
	for p, nh := range sink.fib {
		got = append(got, FIBEntry{Prefix: p, NextHop: nh})
	}
	SortFIBEntries(got)
	if HashEntries(got) != ribHash(rib) {
		t.Fatalf("replayed FIB (%d entries) differs from the RIB (%d prefixes)", len(got), rib.Len())
	}
}

package daemon

import (
	"context"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"supercharged/internal/bgp"
	"supercharged/internal/feed"
	"supercharged/internal/telemetry"
	"supercharged/internal/testutil"
)

// peerMeta builds a distinct session identity per index.
func peerMeta(i int) bgp.PeerMeta {
	return bgp.PeerMeta{
		Addr: netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)}),
		AS:   uint32(65001 + i),
		ID:   netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)}),
	}
}

// drain waits for every finite feed to complete, then drains. The
// budget scales with the race detector and clamps under `go test
// -timeout`, so a loaded -race runner fails the test with diagnostics
// instead of the runtime killing the whole binary.
func drain(t *testing.T, d *Daemon) {
	t.Helper()
	ctx, cancel := testutil.Context(t, 30*time.Second)
	defer cancel()
	if err := d.Wait(ctx); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if err := d.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestConcurrentIngestionSharded(t *testing.T) {
	const peers, prefixes = 6, 2000
	var sources []PeerSource
	for i := 0; i < peers; i++ {
		sources = append(sources, NewSynthetic("", peerMeta(i), prefixes, 1, 0))
	}
	sink := NewFIBSink("edge0")
	d := New(Config{Sources: sources, Routers: []RouterSink{sink}, Shards: 4})
	d.Start(context.Background())
	drain(t, d)

	// Every peer announced the same seed-1 table: same prefix set, one
	// best path each — the RIB must hold exactly `prefixes` prefixes
	// with all peers' paths behind them.
	if got := d.RIB().Len(); got != prefixes {
		t.Fatalf("RIB has %d prefixes, want %d", got, prefixes)
	}
	for i := 0; i < peers; i++ {
		if got := d.RIB().PeerLen(peerMeta(i).Addr); got != prefixes {
			t.Fatalf("peer %d holds %d paths, want %d", i, got, prefixes)
		}
	}
	// The sink converges to the RIB's best next-hops, gap-free.
	if sink.Gaps() != 0 {
		t.Fatalf("sink observed %d sequence gaps", sink.Gaps())
	}
	if got := sink.Len(); got != prefixes {
		t.Fatalf("sink programmed %d entries, want %d", got, prefixes)
	}
	table := feed.Generate(feed.Config{N: prefixes, Seed: 1})
	for _, p := range table.Prefixes()[:50] {
		best, ok := d.RIB().Best(p)
		if !ok {
			t.Fatalf("no best path for %s", p)
		}
		nh, ok := sink.NextHop(p)
		if !ok || nh != best.NextHop() {
			t.Fatalf("sink next-hop for %s = %v (ok=%v), RIB best %v", p, nh, ok, best.NextHop())
		}
	}
}

func TestBackpressureDeliversEverything(t *testing.T) {
	var sources []PeerSource
	for i := 0; i < 3; i++ {
		sources = append(sources, NewSynthetic("", peerMeta(i), 800, int64(i+1), 0))
	}
	slow := NewFIBSink("slow")
	slow.Delay = 2 * time.Millisecond
	fast := NewFIBSink("fast")
	d := New(Config{
		Sources: sources, Routers: []RouterSink{slow, fast},
		QueueDepth: 1, BatchSize: 64, BatchInterval: 5 * time.Millisecond,
	})
	d.Start(context.Background())
	drain(t, d)

	if slow.Gaps() != 0 || fast.Gaps() != 0 {
		t.Fatalf("sequence gaps: slow %d, fast %d", slow.Gaps(), fast.Gaps())
	}
	if slow.Batches() != fast.Batches() {
		t.Fatalf("slow applied %d batches, fast %d — bounded queues must not drop", slow.Batches(), fast.Batches())
	}
	if slow.Len() != fast.Len() {
		t.Fatalf("slow FIB %d entries, fast %d", slow.Len(), fast.Len())
	}
}

func TestDrainIsIdempotentAndConcurrent(t *testing.T) {
	d := New(Config{Sources: []PeerSource{NewSynthetic("", peerMeta(0), 500, 1, 0)}})
	d.Start(context.Background())
	if err := d.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := testutil.Context(t, 30*time.Second)
			defer cancel()
			if err := d.Drain(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
		}()
	}
	wg.Wait()
	d.Stop() // Stop after Drain is a no-op, not a panic
	if got := d.RIB().Len(); got != 500 {
		t.Fatalf("RIB has %d prefixes, want 500", got)
	}
}

func TestStopWithoutStart(t *testing.T) {
	d := New(Config{})
	d.Stop()
	if err := d.Drain(context.Background()); err != nil {
		t.Fatalf("drain on never-started daemon: %v", err)
	}
}

func TestPeerFailureWithdrawsRoutes(t *testing.T) {
	// Two peers over the same table; the primary (higher weight) fails
	// mid-stream. After drain the sink must resolve everything through
	// the survivor.
	primary := peerMeta(0)
	primary.Weight = 100
	backup := peerMeta(1)
	fail := NewSynthetic("primary", primary, 600, 1, 0)
	fail.FailAfter = 600 // complete the feed, then die
	survivor := NewSynthetic("backup", backup, 600, 1, 0)

	sink := NewFIBSink("edge0")
	reg := telemetry.NewRegistry()
	d := New(Config{
		Sources: []PeerSource{fail, survivor}, Routers: []RouterSink{sink},
		Telemetry: reg,
	})
	d.Start(context.Background())
	drain(t, d)

	if got := d.RIB().PeerLen(primary.Addr); got != 0 {
		t.Fatalf("failed peer still holds %d paths", got)
	}
	if got := d.RIB().Len(); got != 600 {
		t.Fatalf("RIB has %d prefixes after failover, want 600", got)
	}
	if got := sink.Len(); got != 600 {
		t.Fatalf("sink has %d entries after failover, want 600", got)
	}
	table := feed.Generate(feed.Config{N: 600, Seed: 1})
	backupNH := backup.Addr
	for _, p := range table.Prefixes()[:50] {
		if nh, ok := sink.NextHop(p); !ok || nh != backupNH {
			t.Fatalf("prefix %s resolves via %v (ok=%v), want survivor %v", p, nh, ok, backupNH)
		}
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exp := b.String()
	for _, want := range []string{
		`supercharged_daemon_session_up{peer="primary"} 0`,
		`supercharged_daemon_session_up{peer="backup"} 1`,
		`supercharged_daemon_failovers_total 1`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	if !strings.Contains(exp, `supercharged_daemon_updates_total{peer="primary"}`) {
		t.Errorf("metrics exposition missing per-peer update counter")
	}
}

// countSink is a FIBSink that counts the RouteChanges it is handed per
// prefix.
type countSink struct {
	*FIBSink
	mu      sync.Mutex
	shipped map[netip.Prefix]int
}

func (s *countSink) Apply(b Batch) error {
	s.mu.Lock()
	for _, rc := range b.Changes {
		s.shipped[rc.Prefix]++
	}
	s.mu.Unlock()
	return s.FIBSink.Apply(b)
}

// An UPDATE that withdraws and announces the same prefix is read as the
// announcement alone (RFC 4271 §4.3): the routers get one RouteChange for
// the prefix, not a withdraw followed by an announce, and end up holding
// what the RIB holds.
func TestMixedUpdateShipsOneChangePerPrefix(t *testing.T) {
	src := newStepSource(peerMeta(0))
	sink := &countSink{FIBSink: NewFIBSink("edge0"), shipped: map[netip.Prefix]int{}}
	d := New(Config{Sources: []PeerSource{src}, Routers: []RouterSink{sink}})
	d.Start(context.Background())

	via := func(nh string, ps ...netip.Prefix) *bgp.Update {
		return &bgp.Update{Attrs: &bgp.Attrs{NextHop: netip.MustParseAddr(nh), ASPath: bgp.ASPath{}}, NLRI: ps}
	}
	moved, dropped := netip.MustParsePrefix("10.0.0.0/24"), netip.MustParsePrefix("10.0.1.0/24")
	src.send(via("192.0.2.1", moved, dropped))
	mixed := via("192.0.2.2", moved)
	mixed.Withdrawn = []netip.Prefix{moved, dropped}
	src.send(mixed)
	close(src.ups)
	drain(t, d)

	if sink.shipped[moved] != 2 || sink.shipped[dropped] != 2 {
		t.Fatalf("routers got %d changes for the re-announced prefix and %d for the withdrawn one, want 2 each: the first UPDATE's, then the mixed UPDATE's", sink.shipped[moved], sink.shipped[dropped])
	}
	if nh, _ := sink.NextHop(moved); nh != netip.MustParseAddr("192.0.2.2") {
		t.Fatalf("re-announced prefix resolves via %v", nh)
	}
	if _, ok := sink.NextHop(dropped); ok {
		t.Fatal("withdrawn prefix is still programmed")
	}
	if sink.Hash() != ribHash(d.RIB()) {
		t.Fatal("FIB differs from the RIB")
	}
}

func TestRatePacingSlowsReplay(t *testing.T) {
	// 200 routes at 1000 routes/s should take about 200 ms; unpaced the
	// same replay is near-instant. Generous bounds keep CI stable.
	src := NewSynthetic("paced", peerMeta(0), 200, 1, 1000)
	d := New(Config{Sources: []PeerSource{src}})
	t0 := time.Now()
	d.Start(context.Background())
	drain(t, d)
	if el := time.Since(t0); el < 100*time.Millisecond {
		t.Fatalf("paced replay finished in %v, want >= ~200ms", el)
	}
}

func TestHardStopInterruptsBlockedPipeline(t *testing.T) {
	// A sink that never returns would block the flusher forever; Stop
	// must still complete.
	stuck := make(chan struct{})
	sink := applyFunc(func(Batch) error { <-stuck; return nil })
	d := New(Config{
		Sources:   []PeerSource{NewSynthetic("", peerMeta(0), 2000, 1, 0)},
		Routers:   []RouterSink{sink},
		BatchSize: 16, QueueDepth: 1,
	})
	d.Start(context.Background())
	time.Sleep(20 * time.Millisecond) // let the pipeline jam
	done := make(chan struct{})
	go func() { d.Stop(); close(done) }()
	// Stop cancels sources and aborts the blocked flush; unblock the
	// sink's in-flight Apply so its goroutine can exit.
	time.Sleep(20 * time.Millisecond)
	close(stuck)
	select {
	case <-done:
	case <-time.After(testutil.Budget(t, 10*time.Second)):
		t.Fatal("Stop never returned on a jammed pipeline")
	}
}

// applyFunc adapts a function to RouterSink.
type applyFunc func(Batch) error

func (f applyFunc) Name() string        { return "func" }
func (f applyFunc) Apply(b Batch) error { return f(b) }

func TestMRTTableReplay(t *testing.T) {
	// Round-trip through the MRT bridge: generate → WriteMRT → FromMRT →
	// replay into the daemon, proving the feed backends are
	// interchangeable load generators.
	table := feed.Generate(feed.Config{N: 300, Seed: 7})
	var buf strings.Builder
	meta := peerMeta(0)
	if err := table.WriteMRT(&buf, []feed.MRTPeer{{Addr: meta.Addr, AS: meta.AS}}); err != nil {
		t.Fatal(err)
	}
	dump, err := feed.FromMRT(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	src := &TableReplay{PeerName: "ris", Meta: meta, Table: dump.Table}
	d := New(Config{Sources: []PeerSource{src}})
	d.Start(context.Background())
	drain(t, d)
	if got := d.RIB().Len(); got != 300 {
		t.Fatalf("RIB has %d prefixes from MRT replay, want 300", got)
	}
}

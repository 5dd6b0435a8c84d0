package dataplane

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"supercharged/internal/clock"
	"supercharged/internal/testutil"
)

// perEntryFIB is the updater FlatFIB's arithmetic walk replaced, kept as
// the walk's differential reference: one AfterFunc per op, each armed as
// the previous op installs, and OnApplied after every op. Its table is a
// refFIB and its walk order a stable sort by position.
type perEntryFIB struct {
	clk       clock.Clock
	perEntry  time.Duration
	tab       refFIB
	queue     []FIBOp
	busy      bool
	applied   uint64
	onApplied func(op FIBOp, at time.Time)
}

func newPerEntryFIB(clk clock.Clock, perEntry time.Duration) *perEntryFIB {
	return &perEntryFIB{clk: clk, perEntry: perEntry, tab: refFIB{pos: map[netip.Prefix]int{}}}
}

func (r *perEntryFIB) loadSync(ops []FIBOp) {
	for _, op := range ops {
		r.tab.apply(op)
		r.applied++
	}
}

func (r *perEntryFIB) enqueueWalkOrder(ops []FIBOp) {
	sorted := slices.Clone(ops)
	slices.SortStableFunc(sorted, func(a, b FIBOp) int {
		pa, _ := r.tab.position(a.Prefix)
		pb, _ := r.tab.position(b.Prefix)
		return pa - pb
	})
	r.queue = append(r.queue, sorted...)
	if !r.busy && len(r.queue) > 0 {
		r.busy = true
		r.clk.AfterFunc(r.perEntry, r.applyNext)
	}
}

func (r *perEntryFIB) applyNext() {
	op := r.queue[0]
	r.queue = r.queue[1:]
	r.tab.apply(op)
	r.applied++
	more := len(r.queue) > 0
	if !more {
		r.busy = false
	}
	if r.onApplied != nil {
		r.onApplied(op, r.clk.Now())
	}
	if more {
		r.clk.AfterFunc(r.perEntry, r.applyNext)
	}
}

func (r *perEntryFIB) get(p netip.Prefix) (L2NH, bool) {
	if i, ok := r.tab.position(p); ok {
		return r.tab.order[i].nh, true
	}
	return L2NH{}, false
}

// walker is the surface the differential test drives on both updaters.
type walker interface {
	loadSync(ops []FIBOp)
	enqueueWalkOrder(ops []FIBOp)
	get(p netip.Prefix) (L2NH, bool)
	position(p netip.Prefix) (int, bool)
	queueLen() int
	appliedCount() uint64
}

func (r *perEntryFIB) position(p netip.Prefix) (int, bool) { return r.tab.position(p) }
func (r *perEntryFIB) queueLen() int                       { return len(r.queue) }
func (r *perEntryFIB) appliedCount() uint64                { return r.applied }

type flatWalker struct{ *FlatFIB }

func (f flatWalker) loadSync(ops []FIBOp)                { f.LoadSync(ops) }
func (f flatWalker) enqueueWalkOrder(ops []FIBOp)        { f.EnqueueWalkOrder(ops) }
func (f flatWalker) get(p netip.Prefix) (L2NH, bool)     { return f.Get(p) }
func (f flatWalker) position(p netip.Prefix) (int, bool) { return f.Position(p) }
func (f flatWalker) queueLen() int                       { return f.QueueLen() }
func (f flatWalker) appliedCount() uint64                { return f.Applied() }

// walkWorld is one side of the differential run: a virtual clock, two
// FIBs on it (as in a lab with two routers), the script's random stream
// and the log of everything observed, in order.
type walkWorld struct {
	clk  *clock.Virtual
	fibs [2]walker
	rng  *rand.Rand
	log  []string
	seq  int
	// batches is how many more batches the script may enqueue, so the
	// callbacks' enqueues, which are themselves watched, die out.
	batches int
}

func (w *walkWorld) logf(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%v ", w.clk.Now().Sub(time.Unix(0, 0).UTC()))+fmt.Sprintf(format, args...))
}

// observe logs what every read of one FIB returns: three prefixes' Get
// and Position, QueueLen and Applied.
func (w *walkWorld) observe(who string) {
	i := w.rng.Intn(2)
	f := w.fibs[i]
	for k := 0; k < 3; k++ {
		p := randomFIBPrefix(w.rng)
		nh, ok := f.get(p)
		pos, pok := f.position(p)
		w.logf("%s fib%d %v: get %v,%v pos %d,%v", who, i, p, nh, ok, pos, pok)
	}
	w.logf("%s fib%d: queue %d applied %d", who, i, f.queueLen(), f.appliedCount())
}

// act is one scripted step: observe a FIB, maybe enqueue a batch, maybe
// schedule a follow-up event whose delay is often a whole number of
// PerEntry periods, so it lands exactly on a due instant of a walk armed
// at the current instant.
func (w *walkWorld) act(who string, perEntry time.Duration, depth int) {
	w.observe(who)
	if w.rng.Intn(3) == 0 && w.batches > 0 {
		w.batches--
		i := w.rng.Intn(2)
		ops := randomFIBOps(w.rng, 1+w.rng.Intn(8))
		w.logf("%s enqueue %d ops on fib%d", who, len(ops), i)
		w.fibs[i].enqueueWalkOrder(ops)
		w.observe(who)
	}
	if depth < 4 && w.rng.Intn(2) == 0 {
		var d time.Duration
		switch w.rng.Intn(4) {
		case 0:
			d = 0
		case 1:
			d = perEntry * time.Duration(1+w.rng.Intn(3))
		case 2:
			d = time.Millisecond * time.Duration(w.rng.Intn(8)) / 2
		default:
			d = time.Duration(w.rng.Intn(4_000_000))
		}
		w.seq++
		id := w.seq
		w.clk.AfterFunc(d, func() { w.act(fmt.Sprintf("ev%d", id), perEntry, depth+1) })
	}
}

// runWalkScript drives one world through a seeded script and returns its
// log: a base table loaded into both FIBs, a random watched subset, root
// events on a half-millisecond grid, and between them the driver's own
// reads and enqueues from outside the event loop, after Advance or Run
// to a grid instant.
func runWalkScript(seed int64, perEntry time.Duration, newFIB newWalker) []string {
	w := &walkWorld{clk: clock.NewVirtualAtZero(), rng: rand.New(rand.NewSource(seed)), batches: 80}
	watched := map[netip.Prefix]bool{}
	for k := 0; k < 8; k++ {
		watched[refCanon(randomFIBPrefix(w.rng))] = true
	}
	for i := range w.fibs {
		w.fibs[i] = newFIB(w.clk, perEntry, i, w, watched)
	}
	base := randomFIBOps(w.rng, 30)
	for i := range base {
		base[i].Delete = false
	}
	for _, f := range w.fibs {
		f.loadSync(base)
	}
	for k := 0; k < 40; k++ {
		w.seq++
		id := w.seq
		at := time.Duration(w.rng.Intn(120)) * time.Millisecond / 2
		w.clk.AfterFunc(at, func() { w.act(fmt.Sprintf("root%d", id), perEntry, 0) })
	}
	for step := 0; step < 60; step++ {
		d := time.Duration(w.rng.Intn(5)) * time.Millisecond / 2
		if w.rng.Intn(2) == 0 {
			w.clk.Advance(d)
		} else {
			w.clk.Run(w.clk.Now().Add(d))
		}
		w.act("driver", perEntry, 3)
	}
	w.clk.RunUntilIdle()
	for i, f := range w.fibs {
		w.logf("final fib%d: queue %d applied %d", i, f.queueLen(), f.appliedCount())
		for k := 0; k < 40; k++ {
			p := randomFIBPrefix(w.rng)
			nh, ok := f.get(p)
			pos, pok := f.position(p)
			w.logf("final fib%d %v: get %v,%v pos %d,%v", i, p, nh, ok, pos, pok)
		}
	}
	return w.log
}

// newWalker builds the i-th FIB of world w, whose OnApplied logs the
// installs of the watched prefixes and then acts.
type newWalker func(clk *clock.Virtual, perEntry time.Duration, i int, w *walkWorld, watched map[netip.Prefix]bool) walker

func newRefWalker(clk *clock.Virtual, perEntry time.Duration, i int, w *walkWorld, watched map[netip.Prefix]bool) walker {
	r := newPerEntryFIB(clk, perEntry)
	r.onApplied = func(op FIBOp, at time.Time) {
		if watched[refCanon(op.Prefix)] {
			w.logf("applied fib%d %v at %v", i, op, at.Sub(time.Unix(0, 0).UTC()))
			w.act(fmt.Sprintf("cb-fib%d", i), r.perEntry, 3)
		}
	}
	return r
}

func newFlatWalker(clk *clock.Virtual, perEntry time.Duration, i int, w *walkWorld, watched map[netip.Prefix]bool) walker {
	f := NewFlatFIB(clk, perEntry)
	for p := range watched {
		f.Watch(p)
	}
	f.OnApplied = func(op FIBOp, at time.Time) {
		w.logf("applied fib%d %v at %v", i, op, at.Sub(time.Unix(0, 0).UTC()))
		w.act(fmt.Sprintf("cb-fib%d", i), f.perEntry, 3)
	}
	return flatWalker{f}
}

// TestFlatFIBWalkMatchesPerEntryUpdater is the walk's differential test:
// the arithmetic walk and the per-entry updater it replaced run the same
// seeded script on their own virtual clocks — two FIBs per clock, random
// enqueues (with deletes and re-inserts), reads from events and from the
// driver, many of them at exactly a due instant, and follow-up events
// scheduled a whole number of PerEntry periods ahead — and must log the
// same reads (Get, Position, QueueLen, Applied) and the same OnApplied
// calls for the watched prefixes, at the same instants and in the same
// order relative to every other event. PerEntry 0 runs every op of a
// batch at one instant, where only the clock's FIFO order separates them.
func TestFlatFIBWalkMatchesPerEntryUpdater(t *testing.T) {
	for _, perEntry := range []time.Duration{time.Millisecond, 0} {
		for seed := int64(1); seed <= 40; seed++ {
			t.Run(fmt.Sprintf("perEntry=%v/seed=%d", perEntry, seed), func(t *testing.T) {
				want := runWalkScript(seed, perEntry, newRefWalker)
				got := runWalkScript(seed, perEntry, newFlatWalker)
				for i := range min(len(got), len(want)) {
					if got[i] != want[i] {
						t.Fatalf("log line %d:\n got  %s\n want %s", i, got[i], want[i])
					}
				}
				if len(got) != len(want) {
					t.Fatalf("log has %d lines, want %d", len(got), len(want))
				}
			})
		}
	}
}

// TestFlatFIBWalkAllocations pins the walk's allocations: draining a
// 20k-op walk with one watched prefix allocates no more than draining a
// 1k-op walk does, because the updater arms its one timer per watched op
// and per end of queue, not per op.
func TestFlatFIBWalkAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's instrumentation adds allocations")
	}
	drain := func(n int) float64 {
		ops := make([]FIBOp, n)
		for i := range ops {
			ops[i] = FIBOp{Prefix: fibPrefix(i), NH: nhR2}
		}
		const runs = 3
		type rig struct {
			v *clock.Virtual
			f *FlatFIB
		}
		rigs := make([]rig, runs+1) // AllocsPerRun calls f runs+1 times
		for i := range rigs {
			v := clock.NewVirtualAtZero()
			f := NewFlatFIB(v, time.Microsecond)
			f.LoadSync(ops)
			f.Watch(fibPrefix(n / 2))
			f.OnApplied = func(FIBOp, time.Time) {}
			f.EnqueueWalkOrder(ops)
			rigs[i] = rig{v, f}
		}
		i := 0
		return testing.AllocsPerRun(runs, func() {
			rigs[i].v.RunUntilIdle()
			if q := rigs[i].f.QueueLen(); q != 0 {
				t.Fatalf("queue %d after drain", q)
			}
			i++
		})
	}
	small, large := drain(1_000), drain(20_000)
	if large > small {
		t.Fatalf("draining a 20k-op walk makes %.1f allocations, a 1k-op walk %.1f; want no more", large, small)
	}
}

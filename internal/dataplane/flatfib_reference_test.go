package dataplane

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"testing"
	"time"

	"supercharged/internal/clock"
	"supercharged/internal/packet"
	"supercharged/internal/testutil"
)

// refFIB is the differential reference for FlatFIB: a prefix map into an
// append-only walk order whose deleted slots are tombstoned.
type refFIB struct {
	pos   map[netip.Prefix]int
	order []refSlot
}

type refSlot struct {
	prefix netip.Prefix
	nh     L2NH
	dead   bool
}

func refCanon(p netip.Prefix) netip.Prefix {
	return netip.PrefixFrom(p.Addr().Unmap(), p.Bits()).Masked()
}

func (r *refFIB) apply(op FIBOp) {
	p := refCanon(op.Prefix)
	i, ok := r.pos[p]
	switch {
	case op.Delete && ok:
		delete(r.pos, p)
		r.order[i].dead = true
	case op.Delete:
	case ok:
		r.order[i].nh = op.NH
	default:
		r.pos[p] = len(r.order)
		r.order = append(r.order, refSlot{prefix: p, nh: op.NH})
	}
}

func (r *refFIB) position(p netip.Prefix) (int, bool) {
	i, ok := r.pos[refCanon(p)]
	return i, ok
}

// positionSorted is the walk order the simulator computed before
// EnqueueWalkOrder existed: each op's Position, then a stable sort.
func positionSorted(f *FlatFIB, ops []FIBOp) []FIBOp {
	type pending struct {
		pos int
		op  FIBOp
	}
	items := make([]pending, 0, len(ops))
	for _, op := range ops {
		pos, _ := f.Position(op.Prefix)
		items = append(items, pending{pos, op})
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].pos < items[j].pos })
	out := make([]FIBOp, len(items))
	for i, it := range items {
		out[i] = it.op
	}
	return out
}

// randomFIBPrefix draws from a small nested pool (/8, /16, /24, /32 under
// 10/8), so inserts collide into updates and deletes hit, and nested
// prefixes must key distinct entries. Some draws carry host bits or the
// ::ffff: form, which must key the same entry.
func randomFIBPrefix(rng *rand.Rand) netip.Prefix {
	b := [4]byte{10, byte(rng.Intn(3)), byte(rng.Intn(3)), byte(rng.Intn(3))}
	bits := []int{8, 16, 24, 32}[rng.Intn(4)]
	p := netip.PrefixFrom(netip.AddrFrom4(b), bits)
	switch rng.Intn(4) {
	case 0:
		return netip.PrefixFrom(netip.AddrFrom16(p.Addr().As16()), bits)
	case 1:
		return p
	}
	return p.Masked()
}

func randomFIBOps(rng *rand.Rand, n int) []FIBOp {
	ops := make([]FIBOp, n)
	for i := range ops {
		ops[i] = FIBOp{
			Prefix: randomFIBPrefix(rng),
			NH:     L2NH{MAC: packet.MAC{2, 0, 0, 0, 0, byte(rng.Intn(4))}, Port: rng.Intn(3)},
			Delete: rng.Intn(4) == 0,
		}
	}
	return ops
}

// TestFlatFIBMatchesReference drives FlatFIB and refFIB with the same
// seeded insert/update/delete/re-insert sequences, through both LoadSync
// and the timed walk-order path, with Reserve calls in between, and
// compares every query after each batch. Each EnqueueWalkOrder queue
// must equal the Position-plus-stable-sort order on the same inputs.
func TestFlatFIBMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		// The subtests keep the "lpm=false" level they had when the FIB
		// could also keep a longest-prefix-match index.
		t.Run(fmt.Sprintf("lpm=false/seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			v := clock.NewVirtualAtZero()
			f := NewFlatFIB(v, time.Millisecond)
			ref := &refFIB{pos: map[netip.Prefix]int{}}
			for batch := 0; batch < 30; batch++ {
				if rng.Intn(5) == 0 {
					f.Reserve(rng.Intn(64)) // also below the walk length, once deletes leave dead slots
				}
				ops := randomFIBOps(rng, 1+rng.Intn(12))
				if rng.Intn(2) == 0 {
					f.LoadSync(ops)
				} else {
					ops = positionSorted(f, ops)
					f.EnqueueWalkOrder(slices.Clone(ops))
					if queued := queuedOps(f); !slices.Equal(queued, ops) {
						t.Fatalf("batch %d: queue %v, want %v", batch, queued, ops)
					}
					v.RunUntilIdle()
				}
				for _, op := range ops {
					ref.apply(op)
				}
				compareFIB(t, batch, f, ref, rng)
			}
		})
	}
}

// queuedOps returns the ops in f's queue, without their slot hints.
func queuedOps(f *FlatFIB) []FIBOp {
	f.mu.Lock()
	defer f.mu.Unlock()
	ops := make([]FIBOp, len(f.queue))
	for i, q := range f.queue {
		ops[i] = q.FIBOp
	}
	return ops
}

func compareFIB(t *testing.T, batch int, f *FlatFIB, ref *refFIB, rng *rand.Rand) {
	t.Helper()
	if f.Len() != len(ref.pos) {
		t.Fatalf("batch %d: Len %d, want %d", batch, f.Len(), len(ref.pos))
	}
	var walked []refSlot
	f.WalkOrder(func(p netip.Prefix, nh L2NH) bool {
		walked = append(walked, refSlot{prefix: p, nh: nh})
		return true
	})
	var want []refSlot
	for _, s := range ref.order {
		if !s.dead {
			want = append(want, s)
		}
	}
	if !slices.Equal(walked, want) {
		t.Fatalf("batch %d: walk %v, want %v", batch, walked, want)
	}
	for i := 0; i < 20; i++ {
		p := randomFIBPrefix(rng)
		pos, ok := f.Position(p)
		wpos, wok := ref.position(p)
		if pos != wpos || ok != wok {
			t.Fatalf("batch %d: Position(%v) = %d,%v, want %d,%v", batch, p, pos, ok, wpos, wok)
		}
		nh, ok := f.Get(p)
		var wnh L2NH
		if wok {
			wnh = ref.order[wpos].nh
		}
		if nh != wnh || ok != wok {
			t.Fatalf("batch %d: Get(%v) = %v,%v, want %v,%v", batch, p, nh, ok, wnh, wok)
		}
	}
}

// TestFlatFIBLookupsKeyLikeInserts: a query with host bits set or in
// ::ffff: form finds the entry installed under the canonical prefix, and
// a non-IPv4 query is a miss, not a panic.
func TestFlatFIBLookupsKeyLikeInserts(t *testing.T) {
	f := NewFlatFIB(clock.NewVirtualAtZero(), 0)
	f.LoadSync([]FIBOp{
		{Prefix: mustPfx("10.0.0.0/24"), NH: nhR2},
		{Prefix: mustPfx("10.0.1.0/24"), NH: nhR3},
	})
	for _, tc := range []struct {
		query netip.Prefix
		pos   int
		nh    L2NH
		ok    bool
	}{
		{mustPfx("10.0.1.0/24"), 1, nhR3, true},
		{mustPfx("10.0.1.77/24"), 1, nhR3, true},
		{netip.PrefixFrom(mustAddr("::ffff:10.0.1.0"), 24), 1, nhR3, true},
		{netip.PrefixFrom(mustAddr("::ffff:10.0.0.9"), 24), 0, nhR2, true},
		{mustPfx("10.0.1.0/25"), 0, L2NH{}, false},
		{mustPfx("2001:db8::/32"), 0, L2NH{}, false},
		{netip.PrefixFrom(mustAddr("::ffff:10.0.1.0"), 120), 0, L2NH{}, false},
		{netip.Prefix{}, 0, L2NH{}, false},
	} {
		pos, ok := f.Position(tc.query)
		if pos != tc.pos || ok != tc.ok {
			t.Errorf("Position(%v) = %d,%v, want %d,%v", tc.query, pos, ok, tc.pos, tc.ok)
		}
		nh, ok := f.Get(tc.query)
		if nh != tc.nh || ok != tc.ok {
			t.Errorf("Get(%v) = %v,%v, want %v,%v", tc.query, nh, ok, tc.nh, tc.ok)
		}
	}
}

func fibPrefix(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), 32)
}

// TestFlatFIBLoadSyncAllocations pins the table load: n new prefixes into
// a FIB reserved for n install without growing anything, so the load's
// allocations do not scale with n.
func TestFlatFIBLoadSyncAllocations(t *testing.T) {
	const n, runs = 50_000, 2
	ops := make([]FIBOp, n)
	for i := range ops {
		ops[i] = FIBOp{Prefix: fibPrefix(i), NH: nhR2}
	}
	fibs := make([]*FlatFIB, runs+1) // AllocsPerRun calls f runs+1 times
	for i := range fibs {
		fibs[i] = NewFlatFIB(clock.NewVirtualAtZero(), 0)
		fibs[i].Reserve(n)
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		fibs[i].LoadSync(ops)
		if fibs[i].Len() != n {
			t.Fatalf("Len %d, want %d", fibs[i].Len(), n)
		}
		i++
	})
	if allocs > 1 {
		t.Fatalf("LoadSync of %d prefixes into a Reserve(%d) FIB makes %.1f allocations, want at most 1", n, n, allocs)
	}
}

// TestFlatFIBEnqueueWalkOrderAllocations pins the walk-order enqueue onto
// an idle updater to a constant number of allocations, whatever the
// number of ops: positions, placement offsets, the queue, and starting
// the updater on the clock.
func TestFlatFIBEnqueueWalkOrderAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's instrumentation adds an allocation")
	}
	const runs, budget = 3, 5
	for _, n := range []int{1_000, 20_000} {
		ops := make([]FIBOp, n)
		for i := range ops {
			ops[i] = FIBOp{Prefix: fibPrefix(i), NH: nhR2}
		}
		fibs := make([]*FlatFIB, runs+1) // AllocsPerRun calls f runs+1 times
		for i := range fibs {
			fibs[i] = NewFlatFIB(clock.NewVirtualAtZero(), time.Microsecond)
			fibs[i].LoadSync(ops)
		}
		rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			fibs[i].EnqueueWalkOrder(ops)
			if fibs[i].QueueLen() != n {
				t.Fatalf("queue %d, want %d", fibs[i].QueueLen(), n)
			}
			i++
		})
		if allocs > budget {
			t.Fatalf("EnqueueWalkOrder of %d ops makes %.1f allocations, want at most %d", n, allocs, budget)
		}
	}
}

// BenchmarkFlatFIBEnqueueWalkOrder times placing a full table's rewrite
// into walk order: 200k installed entries, 200k ops in shuffled order.
func BenchmarkFlatFIBEnqueueWalkOrder(b *testing.B) {
	const n = 200_000
	f := NewFlatFIB(clock.NewVirtualAtZero(), time.Microsecond)
	f.Reserve(n)
	ops := make([]FIBOp, n)
	for i := range ops {
		ops[i] = FIBOp{Prefix: fibPrefix(i), NH: nhR2}
	}
	f.LoadSync(ops)
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for b.Loop() {
		f.EnqueueWalkOrder(ops)
		f.mu.Lock()
		f.queue = f.queue[:0]
		f.mu.Unlock()
	}
}

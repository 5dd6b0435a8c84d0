package dataplane

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"supercharged/internal/clock"
	"supercharged/internal/packet"
)

var (
	nhR2 = L2NH{MAC: packet.MustParseMAC("01:aa:00:00:00:01"), Port: 1}
	nhR3 = L2NH{MAC: packet.MustParseMAC("02:bb:00:00:00:01"), Port: 2}
)

func TestFlatFIBLoadSyncAndLookup(t *testing.T) {
	f := NewFlatFIB(clock.NewVirtualAtZero(), time.Millisecond)
	f.LoadSync([]FIBOp{
		{Prefix: mustPfx("1.0.0.0/24"), NH: nhR2},
		{Prefix: mustPfx("1.0.0.0/16"), NH: nhR3},
	})
	if f.Len() != 2 {
		t.Fatalf("len %d", f.Len())
	}
	if nh, ok := f.Get(mustPfx("1.0.0.0/24")); !ok || nh != nhR2 {
		t.Fatalf("Get(1.0.0.0/24) = %v %v", nh, ok)
	}
	if nh, ok := f.Get(mustPfx("1.0.0.0/16")); !ok || nh != nhR3 {
		t.Fatalf("Get(1.0.0.0/16) = %v %v", nh, ok)
	}
}

func TestFlatFIBSerializedUpdateTiming(t *testing.T) {
	// The core property behind Fig. 5: N queued updates complete at
	// exactly i×perEntry, serialized.
	v := clock.NewVirtualAtZero()
	const perEntry = 280 * time.Microsecond
	f := NewFlatFIB(v, perEntry)

	const n = 1000
	ops := make([]FIBOp, n)
	for i := range ops {
		ops[i] = FIBOp{Prefix: mustPfx(fmt.Sprintf("10.%d.%d.0/24", i/256, i%256)), NH: nhR2}
	}
	f.LoadSync(ops)

	// Now rewrite all entries to the backup NH through the timed path,
	// watching every entry so OnApplied reports each install.
	for _, op := range ops {
		f.Watch(op.Prefix)
	}
	var installTimes []time.Duration
	f.OnApplied = func(op FIBOp, at time.Time) {
		installTimes = append(installTimes, at.Sub(time.Unix(0, 0).UTC()))
	}
	rewrites := make([]FIBOp, n)
	for i := range rewrites {
		rewrites[i] = FIBOp{Prefix: ops[i].Prefix, NH: nhR3}
	}
	f.EnqueueWalkOrder(rewrites)
	v.RunUntilIdle()

	if len(installTimes) != n {
		t.Fatalf("%d installs, want %d", len(installTimes), n)
	}
	for i, at := range installTimes {
		want := time.Duration(i+1) * perEntry
		if at != want {
			t.Fatalf("install %d at %v, want %v", i, at, want)
		}
	}
	// Last entry: n × 280µs = 280ms for 1000 entries (paper: 140.9s for 500k).
	if got, want := installTimes[n-1], 280*time.Millisecond; got != want {
		t.Fatalf("last install at %v, want %v", got, want)
	}
	if nh, _ := f.Get(mustPfx("10.0.0.0/24")); nh != nhR3 {
		t.Fatal("rewrite not applied")
	}
}

func TestFlatFIBQueuedUpdatesInvisibleUntilApplied(t *testing.T) {
	v := clock.NewVirtualAtZero()
	f := NewFlatFIB(v, time.Millisecond)
	f.LoadSync([]FIBOp{{Prefix: mustPfx("10.0.0.0/24"), NH: nhR2}})
	f.EnqueueWalkOrder([]FIBOp{{Prefix: mustPfx("10.0.0.0/24"), NH: nhR3}})
	if nh, _ := f.Get(mustPfx("10.0.0.0/24")); nh != nhR2 {
		t.Fatal("queued update visible before applied")
	}
	if f.QueueLen() != 1 {
		t.Fatalf("queue len %d", f.QueueLen())
	}
	v.Advance(time.Millisecond)
	if nh, _ := f.Get(mustPfx("10.0.0.0/24")); nh != nhR3 {
		t.Fatal("update not applied after perEntry")
	}
	if f.QueueLen() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestFlatFIBEnqueueWhileBusyExtendsQueue(t *testing.T) {
	v := clock.NewVirtualAtZero()
	f := NewFlatFIB(v, time.Millisecond)
	f.EnqueueWalkOrder([]FIBOp{{Prefix: mustPfx("10.0.0.0/24"), NH: nhR2}})
	f.EnqueueWalkOrder([]FIBOp{{Prefix: mustPfx("10.0.1.0/24"), NH: nhR2}})
	v.Advance(time.Millisecond)
	if f.Len() != 1 {
		t.Fatalf("after 1ms len %d, want 1", f.Len())
	}
	v.Advance(time.Millisecond)
	if f.Len() != 2 {
		t.Fatalf("after 2ms len %d, want 2", f.Len())
	}
	if f.Applied() != 2 {
		t.Fatalf("applied %d", f.Applied())
	}
}

func TestFlatFIBDelete(t *testing.T) {
	v := clock.NewVirtualAtZero()
	f := NewFlatFIB(v, 0)
	f.LoadSync([]FIBOp{
		{Prefix: mustPfx("10.0.0.0/24"), NH: nhR2},
		{Prefix: mustPfx("10.0.0.0/8"), NH: nhR3},
	})
	f.EnqueueWalkOrder([]FIBOp{{Prefix: mustPfx("10.0.0.0/24"), Delete: true}})
	v.RunUntilIdle()
	if f.Len() != 1 {
		t.Fatalf("len %d", f.Len())
	}
	if _, ok := f.Get(mustPfx("10.0.0.0/24")); ok {
		t.Fatal("deleted prefix still installed")
	}
	if nh, ok := f.Get(mustPfx("10.0.0.0/8")); !ok || nh != nhR3 {
		t.Fatalf("covering prefix after delete = %v %v", nh, ok)
	}
}

func TestFlatFIBPositionTracksInsertionOrder(t *testing.T) {
	f := NewFlatFIB(clock.NewVirtualAtZero(), 0)
	f.LoadSync([]FIBOp{
		{Prefix: mustPfx("10.0.0.0/24"), NH: nhR2},
		{Prefix: mustPfx("20.0.0.0/24"), NH: nhR2},
		{Prefix: mustPfx("30.0.0.0/24"), NH: nhR2},
	})
	// Rewriting an entry must keep its original position.
	f.LoadSync([]FIBOp{{Prefix: mustPfx("20.0.0.0/24"), NH: nhR3}})
	pos, ok := f.Position(mustPfx("20.0.0.0/24"))
	if !ok || pos != 1 {
		t.Fatalf("position = %d,%v", pos, ok)
	}
	var order []netip.Prefix
	f.WalkOrder(func(p netip.Prefix, nh L2NH) bool {
		order = append(order, p)
		return true
	})
	if len(order) != 3 || order[1] != mustPfx("20.0.0.0/24") {
		t.Fatalf("walk order %v", order)
	}
}

func TestFlatFIBL2NHString(t *testing.T) {
	if s := nhR2.String(); s != "(01:aa:00:00:00:01, 1)" {
		t.Fatalf("String() = %q", s)
	}
}

func BenchmarkFlatFIBEnqueueApply(b *testing.B) {
	v := clock.NewVirtualAtZero()
	f := NewFlatFIB(v, time.Microsecond)
	ops := make([]FIBOp, 1024)
	for i := range ops {
		ops[i] = FIBOp{Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24), NH: nhR2}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.EnqueueWalkOrder(ops[i&1023 : i&1023+1])
		v.RunUntilIdle()
	}
}

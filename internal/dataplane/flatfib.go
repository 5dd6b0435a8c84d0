package dataplane

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"time"

	"supercharged/internal/clock"
	"supercharged/internal/packet"
)

// L2NH is the flat FIB's per-entry rewrite record: the L2 next-hop MAC
// address and output port the router stamps onto matching traffic (Fig. 1).
type L2NH struct {
	MAC  packet.MAC
	Port int
}

// String renders the record like the paper's "(01:aa, 0)" notation.
func (n L2NH) String() string { return fmt.Sprintf("(%s, %d)", n.MAC, n.Port) }

// FIBOp is one update for the FIB's serialized updater.
type FIBOp struct {
	Prefix netip.Prefix
	NH     L2NH
	Delete bool
}

// FlatFIB models a legacy router's flat forwarding table: every prefix owns
// a distinct L2 next-hop record, and the hardware applies updates strictly
// one entry at a time, each costing PerEntry. This serialization is what
// makes the standalone router's convergence linear in the table size — the
// effect Fig. 5 measures. The paper's Cisco Nexus 7k updates ~3,500 entries
// per second (≈280 µs/entry). The table is exact-match only: it answers
// for a prefix (Get, Position), not for an address, because the
// simulation's probes each track one prefix. It is IPv4-only, like the
// paper's evaluation: installing any other prefix panics, and querying
// one misses.
//
// The updater is a walk computed arithmetically, not one timer per entry:
// op i of a busy period (the ops queued since the updater last went idle)
// is due at start + (i+1)·PerEntry. A single timer sits at the first op
// not yet installed. When it fires it installs that op and, on a clock
// with a horizon (clock.Virtual.Horizon), every following op due before
// the horizon: a timer per op, each armed as the previous one fired,
// would have fired each of those next, so no other event could observe
// the table in between. It re-arms for the first op another event could
// observe first, for an op on a watched prefix (Watch), so that
// OnApplied runs at the op's own instant, and for the last op, so that
// the clock reaches the walk's end. Reads therefore need no catch-up:
// after any event the table holds exactly what the per-entry updater
// would have installed, also at an op's own due instant, where the
// clock's FIFO order among equal deadlines decides. On a clock without a
// horizon each firing installs one op.
type FlatFIB struct {
	clk      clock.Clock
	perEntry time.Duration
	// horizon is the clock's Horizon, nil on a clock without one.
	horizon func() time.Time

	mu sync.Mutex
	// index maps a prefix's fibKey to its slot in order. Neither holds a
	// pointer, so the collector never scans a table's entries.
	index map[uint64]int32
	order []fibSlot // insertion order = table walk order; a slot's index is its position
	queue []queuedOp
	// taken counts the ops dequeued so far: queue[j] is op number
	// taken+j. watchAt lists, ascending, the numbers of the queued ops on
	// watched prefixes, whose fibKeys watched holds.
	taken   uint64
	watchAt []uint64
	watched map[uint64]struct{}
	busy    bool
	due     time.Time // when queue[0] is due, while busy
	timer   clock.Timer
	applied uint64
	// step is walk bound once, so arming the timer does not allocate a
	// fresh method value.
	step func()

	// OnApplied, if set, is invoked (without the FIB lock held) after
	// each queued update on a watched prefix is installed, with the op
	// and the install time, on the clock at that time. The simulation's
	// probes subscribe here to detect per-prefix recovery.
	OnApplied func(op FIBOp, at time.Time)
}

// queuedOp is a queued update and its slot hint: the walk position its
// prefix held when it was enqueued, plus one (0: not installed then). The
// walk reaches the ops in position order, so following a hint that still
// holds is a sequential read where an index lookup would miss the cache.
type queuedOp struct {
	FIBOp
	hint int32
}

// fibSlot is one walk-order position. A deleted entry's slot stays in
// place with live cleared; re-installing the prefix appends a new slot.
type fibSlot struct {
	key  uint64
	nh   L2NH
	live bool
}

// fibKey packs an IPv4 prefix into the FIB's map key: the masked address
// shifted left 8 bits, OR the prefix length. Host bits and the ::ffff:
// form therefore key the same entry. ok is false for an invalid or
// non-IPv4 prefix.
func fibKey(p netip.Prefix) (key uint64, ok bool) {
	a := p.Addr().Unmap()
	if !p.IsValid() || !a.Is4() || p.Bits() > 32 {
		return 0, false
	}
	bits := p.Bits()
	return uint64(ipv4Bits(a)&^(^uint32(0)>>bits))<<8 | uint64(bits), true
}

// keyPrefix is fibKey's inverse.
func keyPrefix(k uint64) netip.Prefix {
	a := uint32(k >> 8)
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}), int(k&0xff))
}

// NewFlatFIB returns an empty FIB whose updater installs one entry every
// perEntry on clk. A zero perEntry still serializes through the clock but
// without added delay.
func NewFlatFIB(clk clock.Clock, perEntry time.Duration) *FlatFIB {
	if clk == nil {
		clk = clock.System
	}
	f := &FlatFIB{
		clk:      clk,
		perEntry: perEntry,
		index:    make(map[uint64]int32),
	}
	if h, ok := clk.(interface{ Horizon() time.Time }); ok {
		f.horizon = h.Horizon
	}
	f.step = f.walk
	return f
}

// Watch makes OnApplied report the installs of prefix p (in any form that
// keys the same entry) among the ops enqueued from now on. Watching a
// non-IPv4 prefix does nothing: no op can install one.
func (f *FlatFIB) Watch(p netip.Prefix) {
	k, ok := fibKey(p)
	if !ok {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.watched == nil {
		f.watched = make(map[uint64]struct{})
	}
	f.watched[k] = struct{}{}
}

// PerEntry returns the configured per-entry installation cost.
func (f *FlatFIB) PerEntry() time.Duration { return f.perEntry }

// Reserve pre-sizes the table for about n entries (index and walk order),
// so a full-table load neither rehashes nor regrows. It only ever grows
// the reservation.
func (f *FlatFIB) Reserve(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n <= len(f.index) {
		return
	}
	index := make(map[uint64]int32, n)
	for k, v := range f.index {
		index[k] = v
	}
	f.index = index
	if n > len(f.order) {
		f.order = slices.Grow(f.order, n-len(f.order))
	}
}

// Len returns the number of installed prefixes.
func (f *FlatFIB) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.index)
}

// QueueLen returns the number of updates awaiting installation.
func (f *FlatFIB) QueueLen() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.queue)
}

// Applied returns the total number of installed updates since creation.
func (f *FlatFIB) Applied() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied
}

// slotLocked returns the walk position of prefix p, keyed exactly as
// inserts key it.
func (f *FlatFIB) slotLocked(p netip.Prefix) (int32, bool) {
	k, ok := fibKey(p)
	if !ok {
		return 0, false
	}
	i, ok := f.index[k]
	return i, ok
}

// Get returns the installed record for exactly prefix p. Queued updates
// are invisible until the updater reaches them, exactly like hardware.
func (f *FlatFIB) Get(p netip.Prefix) (L2NH, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i, ok := f.slotLocked(p); ok {
		return f.order[i].nh, true
	}
	return L2NH{}, false
}

// Position returns the insertion-order position of prefix p (0-based). The
// FIB walk rewrites entries in this order, so a flow's convergence time is
// proportional to the position of its prefix.
func (f *FlatFIB) Position(p netip.Prefix) (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i, ok := f.slotLocked(p)
	return int(i), ok
}

// WalkOrder calls fn for each installed prefix in table-walk order.
func (f *FlatFIB) WalkOrder(fn func(p netip.Prefix, nh L2NH) bool) {
	f.mu.Lock()
	slots := make([]fibSlot, 0, len(f.index))
	for _, s := range f.order {
		if s.live {
			slots = append(slots, s)
		}
	}
	f.mu.Unlock()
	for _, s := range slots {
		if !fn(keyPrefix(s.key), s.nh) {
			return
		}
	}
}

// LoadSync installs ops immediately, bypassing the timed updater. It is
// meant for test-bed setup (pre-failure table population), not for the
// measured convergence path.
func (f *FlatFIB) LoadSync(ops []FIBOp) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, op := range ops {
		f.applyLocked(op, 0)
	}
}

// EnqueueWalkOrder appends ops to the serialized updater queue and starts
// the updater if idle. This is the measured path: each op takes PerEntry.
// The ops go in table-walk order, the order in which a router's FIB walk
// reaches their entries: by each prefix's position when enqueued, a
// prefix not yet installed counting as position 0, ties in input order.
// The placement is a stable counting pass over the positions, linear in
// len(ops) plus the table's walk length.
func (f *FlatFIB) EnqueueWalkOrder(ops []FIBOp) {
	f.mu.Lock()
	defer f.mu.Unlock()
	// One scratch array: each op's slot hint, then a counter per
	// position in [0, len(order)]. An op's position is its hint minus
	// one, a prefix not installed counting as position 0.
	scratch := make([]int32, len(ops)+len(f.order)+1)
	hint, start := scratch[:len(ops)], scratch[len(ops):]
	pos := func(i int) int32 { return max(hint[i]-1, 0) }
	var watchedIn []int // input indexes of the ops on watched prefixes
	for i, op := range ops {
		k, ok := fibKey(op.Prefix)
		if ok {
			if s, installed := f.index[k]; installed {
				hint[i] = s + 1
			}
			if _, w := f.watched[k]; w {
				watchedIn = append(watchedIn, i)
			}
		}
		start[pos(i)]++
	}
	var sum int32
	for p, c := range start {
		start[p] = sum // first queue index for position p
		sum += c
	}
	n := len(f.queue)
	f.queue = slices.Grow(f.queue, len(ops))[:n+len(ops)]
	placed := f.queue[n:]
	w := len(f.watchAt)
	for i, op := range ops {
		j := start[pos(i)]
		placed[j] = queuedOp{op, hint[i]}
		if len(watchedIn) > 0 && watchedIn[0] == i {
			f.watchAt = append(f.watchAt, f.taken+uint64(n)+uint64(j))
			watchedIn = watchedIn[1:]
		}
		start[pos(i)]++
	}
	slices.Sort(f.watchAt[w:])
	if f.busy || len(f.queue) == 0 {
		return
	}
	// The updater was idle: a new busy period starts now.
	f.busy = true
	f.due = f.clk.Now().Add(f.perEntry)
	f.armLocked(f.perEntry)
}

// armLocked sets the updater's timer to fire after d. It calls the clock
// with f.mu held, which no clock.Clock turns into a call back into the
// FIB (a timer never fires inline with AfterFunc or Reset), and which
// keeps a timer's first firing, on a clock that fires on its own
// goroutine, from seeing f.timer unset.
func (f *FlatFIB) armLocked(d time.Duration) {
	if f.timer == nil {
		f.timer = f.clk.AfterFunc(d, f.step)
	} else {
		f.timer.Reset(d)
	}
}

// walk is the updater's timer callback. It fires when queue[0] is due.
func (f *FlatFIB) walk() {
	f.mu.Lock()
	now := f.clk.Now()
	for {
		op, at, watched := f.dequeueLocked()
		last := len(f.queue) == 0
		if last {
			// Idle before the callback: a batch it enqueues starts a new
			// busy period, arming the timer from inside the callback.
			f.busy = false
		}
		if cb := f.OnApplied; watched && cb != nil {
			f.mu.Unlock()
			cb(op, at)
			f.mu.Lock()
		}
		if last {
			f.mu.Unlock()
			return
		}
		// Run ahead: each op due before the horizon would fire next, so
		// no event can observe the table before the following op. An op
		// on a watched prefix and the last op still wait for their own
		// instant: a callback must see its op's instant as the clock's
		// time, and the clock must reach the last op's.
		horizon := now
		if f.horizon != nil {
			horizon = f.horizon()
		}
		for len(f.queue) > 1 && f.due.Before(horizon) && !f.nextWatchedLocked() {
			f.dequeueLocked()
		}
		if !f.due.Equal(now) || !f.due.Before(horizon) {
			f.armLocked(f.due.Sub(now))
			f.mu.Unlock()
			return
		}
		// The next op is due now and would fire next: install it in
		// this firing.
	}
}

// nextWatchedLocked reports whether queue[0] is on a watched prefix.
func (f *FlatFIB) nextWatchedLocked() bool {
	return len(f.watchAt) > 0 && f.watchAt[0] == f.taken
}

// dequeueLocked installs queue[0], which is due at at, and advances the
// walk to the next op.
func (f *FlatFIB) dequeueLocked() (FIBOp, time.Time, bool) {
	q, at, watched := f.queue[0], f.due, f.nextWatchedLocked()
	if watched {
		f.watchAt = f.watchAt[1:]
	}
	f.queue = f.queue[1:]
	f.taken++
	f.due = f.due.Add(f.perEntry)
	f.applyLocked(q.FIBOp, q.hint)
	return q.FIBOp, at, watched
}

// applyLocked installs op. hint is a queuedOp's slot hint, 0 for none.
func (f *FlatFIB) applyLocked(op FIBOp, hint int32) {
	f.applied++
	k, ok := fibKey(op.Prefix)
	if !ok {
		panic(fmt.Sprintf("dataplane: FlatFIB is IPv4-only, got prefix %v", op.Prefix))
	}
	// A prefix has at most one live slot, so a hinted slot that is still
	// live under k is the prefix's slot.
	i, installed := hint-1, hint > 0 && f.order[hint-1].live && f.order[hint-1].key == k
	if !installed {
		i, installed = f.index[k]
	}
	if op.Delete {
		if installed {
			delete(f.index, k)
			f.order[i].live = false
		}
		return
	}
	if installed {
		f.order[i].nh = op.NH
		return
	}
	i = int32(len(f.order))
	f.index[k] = i
	f.order = append(f.order, fibSlot{key: k, nh: op.NH, live: true})
}

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
type FlatFIB struct {
	clk      clock.Clock
	perEntry time.Duration

	mu sync.Mutex
	// index maps a prefix's fibKey to its slot in order. Neither holds a
	// pointer, so the collector never scans a table's entries.
	index   map[uint64]int32
	order   []fibSlot // insertion order = table walk order; a slot's index is its position
	queue   []FIBOp
	busy    bool
	applied uint64
	// next is applyNext bound once, so scheduling each install does not
	// allocate a fresh method value.
	next func()

	// OnApplied, if set, is invoked (without the FIB lock held) after each
	// queued update is installed, with the op and the install time. The
	// simulation's probes subscribe here to detect per-prefix recovery.
	OnApplied func(op FIBOp, at time.Time)
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
	f.next = f.applyNext
	return f
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
		f.applyLocked(op)
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
	// One scratch array: each op's position, then a counter per position
	// in [0, len(order)].
	scratch := make([]int32, len(ops)+len(f.order)+1)
	pos, start := scratch[:len(ops)], scratch[len(ops):]
	for i, op := range ops {
		pos[i], _ = f.slotLocked(op.Prefix)
		start[pos[i]]++
	}
	var sum int32
	for p, c := range start {
		start[p] = sum // first queue index for position p
		sum += c
	}
	n := len(f.queue)
	f.queue = slices.Grow(f.queue, len(ops))[:n+len(ops)]
	placed := f.queue[n:]
	for i, op := range ops {
		placed[start[pos[i]]] = op
		start[pos[i]]++
	}
	f.startAndUnlock()
}

// startAndUnlock starts the updater if it is idle and has work, and
// releases the lock the caller holds.
func (f *FlatFIB) startAndUnlock() {
	start := !f.busy && len(f.queue) > 0
	if start {
		f.busy = true
	}
	f.mu.Unlock()
	if start {
		f.clk.AfterFunc(f.perEntry, f.next)
	}
}

func (f *FlatFIB) applyNext() {
	f.mu.Lock()
	if len(f.queue) == 0 {
		f.busy = false
		f.mu.Unlock()
		return
	}
	op := f.queue[0]
	f.queue = f.queue[1:]
	f.applyLocked(op)
	more := len(f.queue) > 0
	if !more {
		f.busy = false
	}
	cb := f.OnApplied
	f.mu.Unlock()
	if cb != nil {
		cb(op, f.clk.Now())
	}
	if more {
		f.clk.AfterFunc(f.perEntry, f.next)
	}
}

func (f *FlatFIB) applyLocked(op FIBOp) {
	f.applied++
	k, ok := fibKey(op.Prefix)
	if !ok {
		panic(fmt.Sprintf("dataplane: FlatFIB is IPv4-only, got prefix %v", op.Prefix))
	}
	i, installed := f.index[k]
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

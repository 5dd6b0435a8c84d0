package bgp

import (
	"math/bits"
	"net/netip"
	"sort"
	"sync"
)

// Change reports that the ordered path list of a prefix changed. Old and
// New are the ranked lists before and after (best first); both may share
// Path pointers. New is empty when the prefix became unreachable.
//
// Both slices are views into RIB storage, valid until the RIB's next
// mutating call: when an update replaces a peer's own path or removes a
// path from a multi-path list, the list is edited in place (the hot-path
// optimization that keeps per-prefix churn allocation-free) and Old
// aliases New. The one case where Old still reflects the pre-change
// ranking is membership growth (a peer announcing a prefix it did not
// cover before), where the list is re-allocated. Consumers that need a
// stable pre-change snapshot must capture it via Paths before updating;
// every consumer in this repository reads only New, and does so before
// the next RIB mutation.
//
// Slot is the prefix's dense index in the RIB (see RIB.Slot). It stays
// the same for as long as the prefix has a path; after a change whose New
// is empty the slot is free, and a later change of the same list may
// already name it for another prefix. A consumer can therefore keep
// per-prefix state in a slice indexed by Slot instead of a prefix map.
type Change struct {
	Prefix netip.Prefix
	Slot   uint32
	Old    []*Path
	New    []*Path
}

// prefixKey is a prefix as a slot-map key: the address in its 16-byte
// form, the prefix length plus one (so the invalid prefix's -1 is 0) and
// whether the address is IPv4, which keeps the key one-to-one even where
// host bits are set (1.2.3.0/24 and ::ffff:1.2.3.0/24 share the other
// two). It holds no pointer, so the collector never scans the map, and
// no padding, so one memhash covers it.
type prefixKey struct {
	addr [16]byte
	bits uint8
	v4   bool
}

func keyOf(p netip.Prefix) prefixKey {
	a := p.Addr()
	return prefixKey{addr: a.As16(), bits: uint8(p.Bits() + 1), v4: a.Is4()}
}

// ribEntry is the prefix in one slot and its ranked path list; a free
// slot holds the zero entry.
type ribEntry struct {
	prefix netip.Prefix
	paths  []*Path
}

// peerSet is one peer's index: a bit per slot whose list holds a path
// from the peer, and how many bits are set.
type peerSet struct {
	bits []uint64
	n    int
}

// RIB holds, per prefix, every path learned from every peer (the merged
// Adj-RIB-In), ranked by the decision process. The ordered list — not just
// the best path — is the RIB's product, because the supercharged controller
// derives (primary, backup) from positions 0 and 1 (paper Listing 1).
//
// Three structures keep the table fast at full-Internet scale (~1M
// prefixes):
//
//   - every prefix with a path has a dense slot: the entries array holds
//     the prefix and its ranked list per slot, a pointer-free map finds a
//     prefix's slot, and a LIFO free list hands out the slots of prefixes
//     that became unreachable, so a new prefix allocates only its list;
//   - a per-peer bitmap over the slots marks the entries carrying that
//     peer's path, so RemovePeer — the event behind the paper's headline
//     measurement — visits only the failed peer's own prefixes, in slot
//     order, instead of scanning the whole table;
//   - an attribute interner, so every stored path's Attrs pointer is
//     canonical and an identical re-announcement (graceful-restart
//     replay, background UPDATE noise) is recognized by pointer compare
//     and leaves the ranked list untouched.
//
// Ranked lists are maintained by insertion/removal at the path's rank
// position (the decision process is a total order, so the position is a
// binary search) rather than by re-sorting the list on every update.
// Decision must be configured before the first update: changing it on a
// populated RIB leaves existing lists ranked under the old configuration.
type RIB struct {
	Decision DecisionConfig

	mu      sync.RWMutex
	slots   map[prefixKey]uint32
	entries []ribEntry
	// free is the LIFO of free slots. Its capacity follows the entries
	// array's, which bounds its length, so freeing never allocates.
	free     []uint32
	byPeer   map[netip.Addr]*peerSet
	interner *Interner
	stamp    uint64
}

// NewRIB returns an empty RIB with default decision configuration.
func NewRIB() *RIB {
	return NewRIBSized(0)
}

// NewRIBSized returns an empty RIB pre-sized for about nPrefixes
// prefixes. At full-table scale (~1M) growing the slot map and the
// entries array through their doublings re-zeroes and copies tens of
// megabytes; a caller that knows the table size (the simulator always
// does) skips all of it.
func NewRIBSized(nPrefixes int) *RIB {
	if nPrefixes < 0 {
		nPrefixes = 0
	}
	return &RIB{
		slots:    make(map[prefixKey]uint32, nPrefixes),
		entries:  make([]ribEntry, 0, nPrefixes),
		byPeer:   make(map[netip.Addr]*peerSet, 8),
		interner: NewInterner(),
	}
}

// Len returns the number of prefixes with at least one path.
func (r *RIB) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.slots)
}

// PeerLen returns the number of prefixes currently carrying a path from
// peerAddr — the work RemovePeer for that peer is proportional to.
func (r *RIB) PeerLen(peerAddr netip.Addr) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if set := r.byPeer[peerAddr]; set != nil {
		return set.n
	}
	return 0
}

// Slot returns the slot of p (see Change.Slot), if p has a path.
func (r *RIB) Slot(p netip.Prefix) (uint32, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.slots[keyOf(p.Masked())]
	return s, ok
}

// pathsLocked returns p's ranked list, nil if p has no path.
func (r *RIB) pathsLocked(p netip.Prefix) []*Path {
	if s, ok := r.slots[keyOf(p.Masked())]; ok {
		return r.entries[s].paths
	}
	return nil
}

// Paths returns the ranked path list for p (best first). The returned slice
// is a copy; the Path pointers are shared and must be treated as immutable.
func (r *RIB) Paths(p netip.Prefix) []*Path {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if paths := r.pathsLocked(p); paths != nil {
		return append([]*Path(nil), paths...)
	}
	return nil
}

// Best returns the best path for p, or nil.
func (r *RIB) Best(p netip.Prefix) *Path {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if paths := r.pathsLocked(p); len(paths) > 0 {
		return paths[0]
	}
	return nil
}

// WalkBest visits every prefix with its best path; iteration order is
// unspecified. It hands out no view of a ranked list, which a removal
// shifts in place, so the callback may run while other goroutines write
// to the RIB: a Path is never modified once it is in the table.
func (r *RIB) WalkBest(fn func(p netip.Prefix, best *Path) bool) {
	r.mu.RLock()
	type item struct {
		p    netip.Prefix
		best *Path
	}
	items := make([]item, 0, len(r.slots))
	for _, e := range r.entries {
		if len(e.paths) > 0 {
			items = append(items, item{e.prefix, e.paths[0]})
		}
	}
	r.mu.RUnlock()
	for _, it := range items {
		if !fn(it.p, it.best) {
			return
		}
	}
}

// PeerMeta carries the per-peer metadata stamped onto learned paths.
type PeerMeta struct {
	Addr      netip.Addr
	AS        uint32
	ID        netip.Addr
	IBGP      bool
	IGPMetric uint32
	Weight    uint32
}

// Update applies one UPDATE from a peer and returns a Change per prefix
// whose ranked list changed (including identical re-announcements, which
// replace the peer's path without reshaping the list — the naive
// standalone router still pays a FIB write for them; only the
// supercharged processor's churn filter suppresses them). Announcements
// replace the peer's previous path for the prefix (implicit withdraw);
// withdrawals remove it. A prefix the UPDATE both withdraws and announces
// is announced only (RFC 4271 §4.3), so the list names each prefix at
// most once, apart from an NLRI listed twice, whose second Change is an
// identical re-announcement.
func (r *RIB) Update(peer PeerMeta, u *Update) []Change {
	return r.UpdateInto(peer, u, nil)
}

// UpdateInto is Update appending into dst (reused from its start), so a
// caller processing a long stream can recycle one buffer across calls
// instead of allocating a change slice per UPDATE. The returned slice
// aliases dst's backing array when capacity suffices.
func (r *RIB) UpdateInto(peer PeerMeta, u *Update, dst []Change) []Change {
	r.mu.Lock()
	defer r.mu.Unlock()
	changes := dst[:0]

	var announced map[netip.Prefix]bool
	if u.Attrs != nil && len(u.Withdrawn) > 0 && len(u.NLRI) > 0 {
		announced = make(map[netip.Prefix]bool, len(u.NLRI))
		for _, p := range u.NLRI {
			announced[p.Masked()] = true
		}
	}
	for _, p := range u.Withdrawn {
		if p = p.Masked(); announced[p] {
			continue
		}
		if s, ok := r.slots[keyOf(p)]; ok {
			if ch, changed := r.removeLocked(peer.Addr, s); changed {
				r.indexRemoveLocked(peer.Addr, s)
				changes = append(changes, ch)
			}
		}
	}
	if u.Attrs != nil {
		attrs := r.interner.Intern(u.Attrs)
		for _, p := range u.NLRI {
			changes = append(changes, r.announceLocked(peer, p.Masked(), attrs))
		}
	}
	return changes
}

// RemovePeer drops every path learned from the peer (session failure) and
// returns the resulting changes — the event that triggers the slow
// standalone convergence the paper measures. The per-peer index makes the
// cost proportional to the peer's own prefix count, not the table size.
func (r *RIB) RemovePeer(peerAddr netip.Addr) []Change {
	return r.RemovePeerInto(peerAddr, nil)
}

// RemovePeerInto is RemovePeer appending into dst (reused from its
// start); see UpdateInto for the buffer contract. The changes come in
// slot order.
func (r *RIB) RemovePeerInto(peerAddr netip.Addr, dst []Change) []Change {
	r.mu.Lock()
	defer r.mu.Unlock()
	changes := dst[:0]
	set := r.byPeer[peerAddr]
	if set == nil {
		return changes
	}
	// One exact-size allocation up front instead of append growth: the
	// index says how many changes are coming.
	if cap(changes) < set.n {
		changes = make([]Change, 0, set.n)
	}
	// Walk the peer's set bits; the whole bitmap is dropped afterwards,
	// so no bit is cleared one by one.
	for w, word := range set.bits {
		for ; word != 0; word &= word - 1 {
			s := uint32(w*64 + bits.TrailingZeros64(word))
			if ch, changed := r.removeLocked(peerAddr, s); changed {
				changes = append(changes, ch)
			}
		}
	}
	delete(r.byPeer, peerAddr)
	return changes
}

func (r *RIB) newPathLocked(peer PeerMeta, attrs *Attrs) *Path {
	r.stamp++
	return &Path{
		Peer: peer.Addr, PeerAS: peer.AS, PeerID: peer.ID,
		IBGP: peer.IBGP, IGPMetric: peer.IGPMetric, Weight: peer.Weight,
		Attrs: attrs, stamp: r.stamp,
	}
}

func (r *RIB) announceLocked(peer PeerMeta, pfx netip.Prefix, attrs *Attrs) Change {
	s, ok := r.slots[keyOf(pfx)]
	if !ok {
		paths := []*Path{r.newPathLocked(peer, attrs)}
		s = r.allocSlotLocked(pfx, paths)
		r.indexAddLocked(peer.Addr, s)
		return Change{Prefix: pfx, Slot: s, Old: nil, New: paths}
	}
	e := &r.entries[s]
	cur := e.paths
	idx := -1
	for i, p := range cur {
		if p.Peer == peer.Addr {
			idx = i
			break
		}
	}
	if idx >= 0 {
		old := cur[idx]
		if old.Attrs == attrs && old.PeerAS == peer.AS && old.PeerID == peer.ID &&
			old.IBGP == peer.IBGP && old.IGPMetric == peer.IGPMetric && old.Weight == peer.Weight {
			// Identical re-announcement (attrs are interned, so semantic
			// equality is pointer equality): the ranked list is untouched
			// and the existing Path object stays — the allocation-free
			// churn fast path.
			return Change{Prefix: pfx, Slot: s, Old: cur, New: cur}
		}
	}
	np := r.newPathLocked(peer, attrs)
	if idx >= 0 {
		// Implicit withdraw with unchanged membership: edit the list in
		// place (remove the old slot, insert at the new rank position)
		// instead of rebuilding it.
		copy(cur[idx:], cur[idx+1:])
		pos := r.rankPos(cur[:len(cur)-1], np)
		copy(cur[pos+1:], cur[pos:len(cur)-1])
		cur[pos] = np
		return Change{Prefix: pfx, Slot: s, Old: cur, New: cur}
	}
	// Membership grows: insert at the rank position into a freshly
	// allocated array — never append onto cur, whose backing may have
	// spare capacity left by an earlier removal; reusing it would shift
	// paths under the returned Old view and break the one case the
	// Change contract keeps pre-change.
	next := make([]*Path, len(cur)+1)
	pos := r.rankPos(cur, np)
	copy(next, cur[:pos])
	next[pos] = np
	copy(next[pos+1:], cur[pos:])
	e.paths = next
	r.indexAddLocked(peer.Addr, s)
	return Change{Prefix: pfx, Slot: s, Old: cur, New: next}
}

// rankPos returns the insertion position of np in the ranked list paths:
// the first index whose path np beats. The decision process is a total
// order over paths of distinct peers, so binary search over the sorted
// list is exact.
func (r *RIB) rankPos(paths []*Path, np *Path) int {
	return sort.Search(len(paths), func(i int) bool {
		return r.Decision.Compare(np, paths[i]) < 0
	})
}

// removeLocked drops the peer's path from slot s's list in place, freeing
// the slot if it was the last path. It leaves the peer's index bit to the
// caller: RemovePeerInto drops the peer's whole bitmap afterwards.
func (r *RIB) removeLocked(peerAddr netip.Addr, s uint32) (Change, bool) {
	e := &r.entries[s]
	cur := e.paths
	idx := -1
	for i, p := range cur {
		if p.Peer == peerAddr {
			idx = i
			break
		}
	}
	if idx < 0 {
		return Change{}, false
	}
	if len(cur) == 1 {
		pfx := e.prefix
		r.freeSlotLocked(s)
		return Change{Prefix: pfx, Slot: s, Old: cur, New: nil}, true
	}
	// Removal keeps the remaining paths' relative order: shift down in
	// place and truncate, reusing the backing array.
	copy(cur[idx:], cur[idx+1:])
	cur[len(cur)-1] = nil // release the dropped Path to the GC
	e.paths = cur[:len(cur)-1]
	return Change{Prefix: e.prefix, Slot: s, Old: e.paths, New: e.paths}, true
}

// allocSlotLocked stores pfx's first list in the most recently freed slot,
// or in a new one at the end of the entries array.
func (r *RIB) allocSlotLocked(pfx netip.Prefix, paths []*Path) uint32 {
	var s uint32
	if n := len(r.free); n > 0 {
		s = r.free[n-1]
		r.free = r.free[:n-1]
		r.entries[s] = ribEntry{prefix: pfx, paths: paths}
	} else {
		s = uint32(len(r.entries))
		r.entries = append(r.entries, ribEntry{prefix: pfx, paths: paths})
		if cap(r.free) < cap(r.entries) {
			// The free list is empty here, so nothing needs copying.
			r.free = make([]uint32, 0, cap(r.entries))
		}
	}
	r.slots[keyOf(pfx)] = s
	return s
}

func (r *RIB) freeSlotLocked(s uint32) {
	delete(r.slots, keyOf(r.entries[s].prefix))
	r.entries[s] = ribEntry{}
	r.free = append(r.free, s)
}

func (r *RIB) indexAddLocked(peer netip.Addr, s uint32) {
	set := r.byPeer[peer]
	if set == nil {
		set = &peerSet{}
		r.byPeer[peer] = set
	}
	w := int(s / 64)
	if w >= len(set.bits) {
		// Cover every slot the entries array has room for, so the bitmap
		// grows with the array's doublings.
		grown := make([]uint64, (cap(r.entries)+63)/64)
		copy(grown, set.bits)
		set.bits = grown
	}
	set.bits[w] |= 1 << (s % 64)
	set.n++
}

func (r *RIB) indexRemoveLocked(peer netip.Addr, s uint32) {
	set := r.byPeer[peer]
	set.bits[s/64] &^= 1 << (s % 64)
	if set.n--; set.n == 0 {
		delete(r.byPeer, peer)
	}
}

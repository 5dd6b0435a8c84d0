package bgp

import (
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
type Change struct {
	Prefix netip.Prefix
	Old    []*Path
	New    []*Path
}

// ribEntry is one prefix's ranked path list behind a stable pointer, so
// both the main table and the per-peer index reach the same mutable list
// and edits never re-store a map value.
type ribEntry struct {
	paths []*Path
}

// RIB holds, per prefix, every path learned from every peer (the merged
// Adj-RIB-In), ranked by the decision process. The ordered list — not just
// the best path — is the RIB's product, because the supercharged controller
// derives (primary, backup) from positions 0 and 1 (paper Listing 1).
//
// Three structures keep the table fast at full-Internet scale (~1M
// prefixes):
//
//   - path lists live behind stable *ribEntry pointers, so in-place edits
//     (replacement, removal, ranked insertion) never write back through
//     the prefix map;
//   - a per-peer index maps each peer to its entries directly, so
//     RemovePeer — the event behind the paper's headline measurement —
//     visits only the failed peer's own prefixes instead of scanning the
//     whole table;
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

	mu       sync.RWMutex
	prefixes map[netip.Prefix]*ribEntry
	byPeer   map[netip.Addr]map[netip.Prefix]*ribEntry
	interner *Interner
	stamp    uint64
	// sizeHint pre-sizes per-peer index sets (NewRIBSized); full-feed
	// peers cover most of the table, so each set is about table-sized.
	sizeHint int
}

// NewRIB returns an empty RIB with default decision configuration.
func NewRIB() *RIB {
	return NewRIBSized(0)
}

// NewRIBSized returns an empty RIB pre-sized for about nPrefixes
// prefixes. At full-table scale (~1M) growing the prefix map through its
// doublings re-zeroes hundreds of megabytes of buckets; a caller that
// knows the table size (the simulator always does) skips all of it.
func NewRIBSized(nPrefixes int) *RIB {
	if nPrefixes < 0 {
		nPrefixes = 0
	}
	return &RIB{
		prefixes: make(map[netip.Prefix]*ribEntry, nPrefixes),
		byPeer:   make(map[netip.Addr]map[netip.Prefix]*ribEntry, 8),
		interner: NewInterner(),
		sizeHint: nPrefixes,
	}
}

// Len returns the number of prefixes with at least one path.
func (r *RIB) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.prefixes)
}

// PeerLen returns the number of prefixes currently carrying a path from
// peerAddr — the work RemovePeer for that peer is proportional to.
func (r *RIB) PeerLen(peerAddr netip.Addr) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byPeer[peerAddr])
}

// Paths returns the ranked path list for p (best first). The returned slice
// is a copy; the Path pointers are shared and must be treated as immutable.
func (r *RIB) Paths(p netip.Prefix) []*Path {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e := r.prefixes[p.Masked()]; e != nil {
		return append([]*Path(nil), e.paths...)
	}
	return nil
}

// Best returns the best path for p, or nil.
func (r *RIB) Best(p netip.Prefix) *Path {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e := r.prefixes[p.Masked()]; e != nil && len(e.paths) > 0 {
		return e.paths[0]
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
	items := make([]item, 0, len(r.prefixes))
	for p, e := range r.prefixes {
		if len(e.paths) > 0 {
			items = append(items, item{p, e.paths[0]})
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
		if ch, changed := r.removeLocked(peer.Addr, p); changed {
			changes = append(changes, ch)
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
// start); see UpdateInto for the buffer contract.
func (r *RIB) RemovePeerInto(peerAddr netip.Addr, dst []Change) []Change {
	r.mu.Lock()
	defer r.mu.Unlock()
	changes := dst[:0]
	// One exact-size allocation up front instead of append growth: the
	// index says how many changes are coming.
	if n := len(r.byPeer[peerAddr]); cap(changes) < n {
		changes = make([]Change, 0, n)
	}
	// The index maps straight to the entries: each removal edits the path
	// list through the entry pointer, and the only prefix-map traffic is
	// deleting prefixes that became unreachable. The peer's whole index
	// set is dropped in one delete afterwards.
	for pfx, e := range r.byPeer[peerAddr] {
		ch, changed := r.removeFromEntryLocked(peerAddr, pfx, e)
		if changed {
			changes = append(changes, ch)
		}
	}
	delete(r.byPeer, peerAddr)
	return changes
}

func (r *RIB) announceLocked(peer PeerMeta, pfx netip.Prefix, attrs *Attrs) Change {
	e := r.prefixes[pfx]
	if e == nil {
		r.stamp++
		np := &Path{
			Peer: peer.Addr, PeerAS: peer.AS, PeerID: peer.ID,
			IBGP: peer.IBGP, IGPMetric: peer.IGPMetric, Weight: peer.Weight,
			Attrs: attrs, stamp: r.stamp,
		}
		e = &ribEntry{paths: []*Path{np}}
		r.prefixes[pfx] = e
		r.indexAddLocked(peer.Addr, pfx, e)
		return Change{Prefix: pfx, Old: nil, New: e.paths}
	}
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
			return Change{Prefix: pfx, Old: cur, New: cur}
		}
	}
	r.stamp++
	np := &Path{
		Peer: peer.Addr, PeerAS: peer.AS, PeerID: peer.ID,
		IBGP: peer.IBGP, IGPMetric: peer.IGPMetric, Weight: peer.Weight,
		Attrs: attrs, stamp: r.stamp,
	}
	if idx >= 0 {
		// Implicit withdraw with unchanged membership: edit the list in
		// place (remove the old slot, insert at the new rank position)
		// instead of rebuilding it.
		copy(cur[idx:], cur[idx+1:])
		pos := r.rankPos(cur[:len(cur)-1], np)
		copy(cur[pos+1:], cur[pos:len(cur)-1])
		cur[pos] = np
		return Change{Prefix: pfx, Old: cur, New: cur}
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
	r.indexAddLocked(peer.Addr, pfx, e)
	return Change{Prefix: pfx, Old: cur, New: next}
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

func (r *RIB) removeLocked(peerAddr netip.Addr, pfx netip.Prefix) (Change, bool) {
	e := r.prefixes[pfx]
	if e == nil {
		return Change{}, false
	}
	ch, changed := r.removeFromEntryLocked(peerAddr, pfx, e)
	if changed {
		r.indexRemoveLocked(peerAddr, pfx)
	}
	return ch, changed
}

// removeFromEntryLocked edits the entry's path list in place without
// touching the per-peer index; RemovePeerInto uses it directly and drops
// the peer's whole index set in one delete.
func (r *RIB) removeFromEntryLocked(peerAddr netip.Addr, pfx netip.Prefix, e *ribEntry) (Change, bool) {
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
		delete(r.prefixes, pfx)
		return Change{Prefix: pfx, Old: cur, New: nil}, true
	}
	// Removal keeps the remaining paths' relative order: shift down in
	// place and truncate, reusing the backing array.
	copy(cur[idx:], cur[idx+1:])
	cur[len(cur)-1] = nil // release the dropped Path to the GC
	e.paths = cur[:len(cur)-1]
	return Change{Prefix: pfx, Old: e.paths, New: e.paths}, true
}

func (r *RIB) indexAddLocked(peer netip.Addr, pfx netip.Prefix, e *ribEntry) {
	set := r.byPeer[peer]
	if set == nil {
		set = make(map[netip.Prefix]*ribEntry, r.sizeHint)
		r.byPeer[peer] = set
	}
	set[pfx] = e
}

func (r *RIB) indexRemoveLocked(peer netip.Addr, pfx netip.Prefix) {
	if set := r.byPeer[peer]; set != nil {
		delete(set, pfx)
		if len(set) == 0 {
			delete(r.byPeer, peer)
		}
	}
}

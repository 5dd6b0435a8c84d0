package daemon

import (
	"hash/maphash"
	"net/netip"
	"slices"
	"sync"

	"supercharged/internal/bgp"
)

// RouteChange is one prefix's post-decision outcome, the unit the
// batching pipeline ships downstream: the prefix now resolves via
// NextHop through Peer, or became unreachable (zero NextHop). It is the
// daemon's flattened view of bgp.Change — downstream routers program
// best paths, they do not care about the full ranked list.
type RouteChange struct {
	Prefix  netip.Prefix
	Peer    netip.Addr // advertising peer of the new best path
	NextHop netip.Addr // zero = withdraw (prefix unreachable)
}

// ShardedRIB partitions the controller's merged Adj-RIB-In across
// independently locked bgp.RIB shards, keyed by prefix hash. Concurrent
// per-peer ingestion goroutines touching disjoint prefixes proceed in
// parallel instead of serializing on one table lock; a prefix always
// hashes to the same shard, so per-prefix ordering guarantees are
// exactly those of a single RIB. Every shard keeps the PR-5 per-peer
// index, which is what makes RemovePeerEmit — the failover hot path —
// proportional to the dead peer's own prefixes in every shard.
type ShardedRIB struct {
	seed   maphash.Seed
	shards []ribShard
}

// ribShard is one lock domain. The bgp.RIB has its own internal lock;
// the shard's mutex extends the critical section over the emit
// callback, so a consumer observes every shard's changes in mutation
// order (the property the daemon's downstream pipeline depends on).
// scratch/flat are shard-owned buffers reused across updates.
type ribShard struct {
	mu      sync.Mutex
	rib     *bgp.RIB
	scratch []bgp.Change
	flat    []RouteChange
}

// NewShardedRIB builds a table split across shards lock domains
// (minimum 1), pre-sized for about sizeHint prefixes overall.
func NewShardedRIB(shards, sizeHint int) *ShardedRIB {
	if shards < 1 {
		shards = 1
	}
	s := &ShardedRIB{
		seed:   maphash.MakeSeed(),
		shards: make([]ribShard, shards),
	}
	per := sizeHint / shards
	for i := range s.shards {
		if per > 0 {
			s.shards[i].rib = bgp.NewRIBSized(per)
		} else {
			s.shards[i].rib = bgp.NewRIB()
		}
	}
	return s
}

// shardOf hashes a prefix to its home shard.
func (s *ShardedRIB) shardOf(p netip.Prefix) int {
	if len(s.shards) == 1 {
		return 0
	}
	var h maphash.Hash
	h.SetSeed(s.seed)
	a := p.Addr().As4()
	h.Write(a[:])
	h.WriteByte(byte(p.Bits()))
	return int(h.Sum64() % uint64(len(s.shards)))
}

// UpdateEmit applies one UPDATE from a peer, splitting its prefixes
// across their home shards, and hands each shard's flattened best-path
// changes to emit *while still holding that shard's lock*: for any
// prefix, successive emit calls observe changes in RIB-mutation order,
// which is what lets a consumer replicate the table downstream without
// read-back. emit must not re-enter the ShardedRIB and must copy what
// it keeps (the slice is shard-owned scratch). Safe for concurrent use
// by any number of per-peer writers.
func (s *ShardedRIB) UpdateEmit(peer bgp.PeerMeta, u *bgp.Update, emit func([]RouteChange)) {
	if len(s.shards) == 1 {
		s.applyShard(0, peer, u, emit)
		return
	}
	// Split the update's prefixes by home shard, then apply one
	// sub-update per touched shard. Updates batch ~dozens of prefixes
	// sharing one attribute set, so the split cost is noise next to the
	// decision-process work it unlocks concurrency for.
	sub := subUpdates.Get().(*bgp.Update)
	sub.Attrs = u.Attrs
	for i := range s.shards {
		sub.NLRI = sub.NLRI[:0]
		sub.Withdrawn = sub.Withdrawn[:0]
		for _, p := range u.NLRI {
			if s.shardOf(p) == i {
				sub.NLRI = append(sub.NLRI, p)
			}
		}
		for _, p := range u.Withdrawn {
			if s.shardOf(p) == i {
				sub.Withdrawn = append(sub.Withdrawn, p)
			}
		}
		if len(sub.NLRI) == 0 && len(sub.Withdrawn) == 0 {
			continue
		}
		s.applyShard(i, peer, sub, emit)
	}
	sub.Attrs = nil
	subUpdates.Put(sub)
}

// subUpdates recycles UpdateEmit's per-shard sub-update, whose prefix
// slices would otherwise be grown afresh for every UPDATE.
var subUpdates = sync.Pool{New: func() any { return new(bgp.Update) }}

// applyShard applies u to one shard and emits the flattened changes
// under the shard lock.
func (s *ShardedRIB) applyShard(i int, peer bgp.PeerMeta, u *bgp.Update, emit func([]RouteChange)) {
	sh := &s.shards[i]
	sh.mu.Lock()
	sh.scratch = sh.rib.UpdateInto(peer, u, sh.scratch[:0])
	sh.flat = flatten(sh.scratch, sh.flat[:0])
	if len(sh.flat) > 0 && emit != nil {
		emit(sh.flat)
	}
	sh.mu.Unlock()
}

// RemovePeerEmit drops every path learned from the peer — shards in
// parallel, since session failure is the latency-critical event — and
// emits each shard's flattened changes under that shard's lock (emit
// must therefore be safe for concurrent calls). Returns the total
// number of changes.
func (s *ShardedRIB) RemovePeerEmit(peerAddr netip.Addr, emit func([]RouteChange)) int {
	if len(s.shards) == 1 {
		return s.removeShard(0, peerAddr, emit)
	}
	counts := make([]int, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			counts[i] = s.removeShard(i, peerAddr, emit)
		}(i)
	}
	wg.Wait()
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

func (s *ShardedRIB) removeShard(i int, peerAddr netip.Addr, emit func([]RouteChange)) int {
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.scratch = sh.rib.RemovePeerInto(peerAddr, sh.scratch[:0])
	sh.flat = flatten(sh.scratch, sh.flat[:0])
	if len(sh.flat) > 0 && emit != nil {
		emit(sh.flat)
	}
	return len(sh.flat)
}

// flatten converts ranked-list changes to best-path RouteChanges.
func flatten(changes []bgp.Change, out []RouteChange) []RouteChange {
	// One exact-size allocation instead of append growth: a peer removal
	// hands a table-sized list to a buffer sized for single UPDATEs.
	if cap(out) < len(changes) {
		out = make([]RouteChange, 0, len(changes))
	}
	for _, ch := range changes {
		rc := RouteChange{Prefix: ch.Prefix}
		if len(ch.New) > 0 {
			rc.Peer = ch.New[0].Peer().Addr
			rc.NextHop = ch.New[0].NextHop()
		}
		out = append(out, rc)
	}
	return out
}

// Snapshot appends every prefix's current best path to out as a
// RouteChange and returns the extended slice — the payload of a resync
// batch. It reads through each shard's bgp.RIB under the RIB's own
// internal lock and deliberately does NOT take the shard mutexes: a
// snapshot is requested by a sink worker whose queue may be full, while
// an ingest goroutine holds a shard mutex blocked on enqueueing into
// that very queue — taking shard.mu here would deadlock the pair. The
// cost of the narrower lock is only that a snapshot is not a single
// cross-shard atomic cut; the resync protocol already tolerates that
// (the stamped Seq bounds which batches the snapshot subsumes, and
// later batches reapply idempotently, last-writer-wins). For the same
// reason it asks for best paths only (WalkBest), which are copied out
// under the RIB's read lock: the ranked lists themselves are edited in
// place by a concurrent update or peer removal.
func (s *ShardedRIB) Snapshot(out []RouteChange) []RouteChange {
	out = slices.Grow(out, s.Len()) // one table-sized allocation, not a doubling series of them
	for i := range s.shards {
		s.shards[i].rib.WalkBest(func(p netip.Prefix, best bgp.Path) bool {
			out = append(out, RouteChange{Prefix: p, Peer: best.Peer().Addr, NextHop: best.NextHop()})
			return true
		})
	}
	return out
}

// Len sums the prefix counts of all shards.
func (s *ShardedRIB) Len() int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].rib.Len()
	}
	return n
}

// PeerLen sums the peer's path counts across shards.
func (s *ShardedRIB) PeerLen(peerAddr netip.Addr) int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].rib.PeerLen(peerAddr)
	}
	return n
}

// Best returns the current best path for a prefix; ok is false if the
// prefix is unknown.
func (s *ShardedRIB) Best(p netip.Prefix) (best bgp.Path, ok bool) {
	return s.shards[s.shardOf(p)].rib.Best(p)
}

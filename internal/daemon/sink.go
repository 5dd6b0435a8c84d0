package daemon

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"sort"
	"sync"
	"time"
)

// Batch is one flushed unit of the downstream pipeline: the route
// changes accumulated since the previous flush, in RIB-application
// order per prefix.
type Batch struct {
	// Seq numbers batches in flush order; every router sees the same
	// sequence, so sinks can assert ordered, gap-free delivery. Resync
	// batches reuse the newest flushed sequence number instead of
	// consuming a fresh one (a per-sink resync must not punch holes in
	// the other sinks' streams).
	Seq uint64
	// First is the instant, on the daemon's clock, the oldest of Changes
	// entered the pending batch; propagation latency is measured from
	// here to Apply completion.
	First time.Time
	// At is the flush instant on the daemon's clock; At − First is how
	// long the batch waited for the routers to be ready.
	At time.Time
	// Changes are the batch's route changes, oldest first. A prefix may
	// appear more than once; the last occurrence wins. The slice is
	// shared by every router and is the daemon's to reuse once all of
	// them have applied it: read-only, and valid only until Apply
	// returns — a sink copies what it keeps.
	Changes []RouteChange
	// Resync marks a full-state snapshot: Changes carries the best path
	// of every prefix in the RIB, consistent as of Seq (every batch at
	// or below Seq is already folded in; batches above it apply cleanly
	// on top, last-writer-wins). A sink applying a resync replaces its
	// state wholesale — entries absent from the snapshot are gone — and
	// treats any later-arriving batch with Seq at or below the
	// snapshot's as stale. Resyncs are the daemon's gap-heal and
	// breaker-recovery payload.
	Resync bool

	buf *changeBuf // Changes' recycling handle; nil when not the daemon's to reuse
}

// SeqRange is an inclusive range of batch sequence numbers a sink never
// received.
type SeqRange struct {
	From, To uint64
}

func (r SeqRange) String() string {
	if r.From == r.To {
		return fmt.Sprintf("%d", r.From)
	}
	return fmt.Sprintf("%d-%d", r.From, r.To)
}

// GapError is returned by a sink's Apply when the arriving batch
// exposes a sequence gap: batches From..To never arrived. The carrying
// batch HAS still been applied — a gap is a recovery signal (the
// delivery loop answers it with a resync), not a delivery failure, so
// it must not count against retry budgets or breakers.
type GapError struct {
	From, To uint64
}

func (e *GapError) Error() string {
	return fmt.Sprintf("daemon: sink sequence gap: batches %s lost", SeqRange{e.From, e.To})
}

// SinkState is a sink's delivery bookkeeping, the read-back surface the
// daemon uses to verify recovery (a resync "applied" through a faulty
// transport proves nothing until the sink's own state says the gaps are
// gone and the stream tip was reached).
type SinkState struct {
	// LastSeq is the highest batch sequence applied (resyncs included).
	LastSeq uint64
	// Missing are the unhealed gap ranges, oldest first.
	Missing []SeqRange
	// Gaps counts gap ranges ever observed; Healed counts ranges closed
	// by a resync. Gaps == Healed and an empty Missing is a clean exit.
	Gaps   uint64
	Healed uint64
	// Stale counts batches skipped because a resync had already
	// subsumed them (their Seq was at or below the snapshot's).
	Stale uint64
}

// StatefulSink is a RouterSink whose delivery state can be read back.
// The delivery loop prefers snapshot resyncs for these and verifies
// recovery against State(); sinks without it are recovered by replaying
// the degraded-state buffer instead.
type StatefulSink interface {
	RouterSink
	State() SinkState
}

// RouterSink is one downstream router the daemon programs. Apply is
// called serially per sink from that sink's own delivery goroutine; a
// slow sink fills its bounded queue and backpressures ingestion rather
// than dropping batches; one that fails or stalls past the push timeout
// is tripped into degraded buffering instead (see DeliveryPolicy). The batch is lent for the
// duration of the call: Apply must not modify b.Changes nor keep the
// slice after it returns.
type RouterSink interface {
	Name() string
	Apply(b Batch) error
}

// FIBSink is an in-memory downstream router: it programs a map FIB,
// tracking applied batches, sequence gaps and entries — the stand-in
// sink behind `supercharged serve` and the concurrency tests.
type FIBSink struct {
	name string
	// Delay simulates per-batch programming latency (0 = instant).
	Delay time.Duration

	mu      sync.Mutex
	fib     map[netip.Prefix]netip.Addr
	batches uint64
	lastSeq uint64
	missing []SeqRange
	gaps    uint64
	healed  uint64
	stale   uint64
}

// NewFIBSink builds an empty in-memory router FIB.
func NewFIBSink(name string) *FIBSink {
	return &FIBSink{name: name, fib: make(map[netip.Prefix]netip.Addr)}
}

func (s *FIBSink) Name() string { return s.name }

// Apply programs the batch into the FIB. Withdraws delete the entry.
// Ordinary batches must arrive in dense Seq order: a jump forward
// records the missing range and returns a *GapError (the batch itself
// is still applied); a batch at or below the high-water mark after a
// resync is skipped as stale. A Resync batch replaces the FIB wholesale
// and heals every outstanding gap.
func (s *FIBSink) Apply(b Batch) error {
	if s.Delay > 0 {
		time.Sleep(s.Delay)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches++
	if b.Resync {
		clear(s.fib)
		for _, ch := range b.Changes {
			if ch.NextHop.IsValid() {
				s.fib[ch.Prefix] = ch.NextHop
			}
		}
		if n := uint64(len(s.missing)); n > 0 {
			s.healed += n
			s.missing = nil
		}
		if b.Seq > s.lastSeq {
			s.lastSeq = b.Seq
		}
		return nil
	}
	if b.Seq <= s.lastSeq {
		// Subsumed by an earlier resync (its snapshot already reflected
		// this batch's changes); replaying it would regress nothing but
		// wastes work — skip and account.
		s.stale++
		return nil
	}
	var gap *GapError
	if b.Seq != s.lastSeq+1 {
		gap = &GapError{From: s.lastSeq + 1, To: b.Seq - 1}
		s.missing = append(s.missing, SeqRange{From: gap.From, To: gap.To})
		s.gaps++
	}
	s.lastSeq = b.Seq
	for _, ch := range b.Changes {
		if ch.NextHop.IsValid() {
			s.fib[ch.Prefix] = ch.NextHop
		} else {
			delete(s.fib, ch.Prefix)
		}
	}
	if gap != nil {
		return gap
	}
	return nil
}

// State implements StatefulSink.
func (s *FIBSink) State() SinkState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SinkState{
		LastSeq: s.lastSeq,
		Missing: append([]SeqRange(nil), s.missing...),
		Gaps:    s.gaps,
		Healed:  s.healed,
		Stale:   s.stale,
	}
}

// Len returns the programmed entry count.
func (s *FIBSink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.fib)
}

// Batches returns how many batches were applied.
func (s *FIBSink) Batches() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batches
}

// Gaps returns how many sequence gaps were observed (0 on a healthy
// pipeline — bounded queues block, they never drop). Healed gaps still
// count; Unhealed reports the ones a resync has not yet closed.
func (s *FIBSink) Gaps() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.gaps)
}

// Unhealed returns the number of gap ranges not yet closed by a resync.
func (s *FIBSink) Unhealed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.missing)
}

// NextHop reads one programmed entry.
func (s *FIBSink) NextHop(p netip.Prefix) (netip.Addr, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	nh, ok := s.fib[p]
	return nh, ok
}

// FIBEntry is one programmed route, the unit of Entries/Hash.
type FIBEntry struct {
	Prefix  netip.Prefix
	NextHop netip.Addr
}

// Entries returns the FIB contents sorted by prefix — the canonical
// form for byte-for-byte comparisons between sinks and against the
// RIB's best-path snapshot.
func (s *FIBSink) Entries() []FIBEntry {
	s.mu.Lock()
	out := make([]FIBEntry, 0, len(s.fib))
	for p, nh := range s.fib {
		out = append(out, FIBEntry{Prefix: p, NextHop: nh})
	}
	s.mu.Unlock()
	SortFIBEntries(out)
	return out
}

// Hash returns a deterministic FNV-1a digest of the sorted FIB
// contents. Two sinks (or two runs) converged to the same table hash
// identically, whatever order programmed them.
func (s *FIBSink) Hash() uint64 {
	return HashEntries(s.Entries())
}

// HashEntries digests a sorted entry list the way FIBSink.Hash does.
func HashEntries(entries []FIBEntry) uint64 {
	h := fnv.New64a()
	var buf [64]byte
	for _, e := range entries {
		b := e.Prefix.Addr().As16()
		n := copy(buf[:], b[:])
		buf[n] = byte(e.Prefix.Bits())
		n++
		nb := e.NextHop.As16()
		n += copy(buf[n:], nb[:])
		h.Write(buf[:n])
	}
	return h.Sum64()
}

// SortFIBEntries orders entries by prefix (address, then length) —
// Entries' canonical order, for callers building comparable lists.
func SortFIBEntries(entries []FIBEntry) {
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].Prefix, entries[j].Prefix
		if c := a.Addr().Compare(b.Addr()); c != 0 {
			return c < 0
		}
		return a.Bits() < b.Bits()
	})
}

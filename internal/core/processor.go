package core

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"

	"supercharged/internal/bgp"
)

// Processor is the control-plane half of the supercharger: the online
// backup-group algorithm of paper Listing 1. It reacts to the changes a
// bgp.RIB reports (React): each changed multi-path prefix joins the
// backup-group of its ranked list's top next-hops, and the processor
// emits the UPDATE stream toward the supercharged router with the
// next-hop rewritten to the group's virtual next-hop, so that the
// router's flat FIB ends up tagging traffic with the group's VMAC.
//
// One processor's reactions are serialised by its mutex; the processors
// of a table split by prefix may share a GroupTable and react concurrently.
//
// The processor is engineered for full-table scale (~1M prefixes): change
// buffers and next-hop scratch space are reused across calls, the RIB's
// attribute interner and the group table's canonical records turn the
// churn filter (sameAttrs) and the packing signatures into pointer
// compares, and emitted UPDATEs come from a pool (see RecycleUpdates).
// The steady-state churn path — a peer re-announcing routes with
// unchanged attributes — allocates nothing.
type Processor struct {
	// GroupSize is the backup-group tuple size k (default 2, the paper's
	// configuration: protects against any single link or node failure).
	GroupSize int
	// OnNewGroup, if set, is called exactly once per newly allocated
	// group, by the processor that minted it, before that processor
	// returns an announcement using the group's VNH. The convergence
	// engine installs the group's initial switch rule here. Processors
	// sharing a GroupTable may call it concurrently (Engine.InstallGroup
	// locks), and another of them may announce the VNH before it returns.
	OnNewGroup func(Group) error
	// Metrics, if set, counts the processor's work (see NewProcMetrics).
	// Nil is the disabled sink: every hook is one branch, so the
	// zero-alloc churn path stays zero-alloc.
	Metrics *ProcMetrics

	rib    *bgp.RIB
	groups *GroupTable

	mu sync.Mutex
	// adv is what the processor last announced, indexed by the prefix's
	// RIB slot (bgp.Change.Slot); nAdv counts the announced entries.
	adv  []advState
	nAdv int
	// chScratch and nhScratch are per-processor reusable buffers for RIB
	// change lists and the top-next-hop extraction; like memo and pack
	// they are only touched under mu.
	chScratch []bgp.Change
	nhScratch []netip.Addr
	// memo holds the groups resolved most recently, newest first, so a
	// tuple that keeps recurring (a failover moves a whole table between
	// a handful of groups) is matched by address compares and never
	// builds the table's key string.
	memo []*groupRef
	pack packer
}

// groupMemoSize bounds memo: enough for every group a peer failure moves
// prefixes between at the peer counts the paper considers, small enough
// that the scan stays cheaper than one keyed table lookup.
const groupMemoSize = 8

// advState records what the processor last announced to the router for
// the prefix in one RIB slot; the zero state (nil attrs) is a slot whose
// prefix is not announced.
type advState struct {
	// prefix is the announced prefix. A change naming the slot for
	// another prefix comes from another table, which reactOne refuses.
	prefix netip.Prefix
	// attrs is the identity of the source attributes last rendered; for
	// a plain announcement their NextHop is what the router was told.
	attrs *bgp.Attrs
	// grp is the group whose VNH was announced, nil for a plain one.
	grp *groupRef
}

// NewProcessor builds a processor over the given RIB and group table: rib
// is the table Process and PeerDown apply to and RIB returns. A caller
// that applies changes itself passes its own table and calls React.
// Passing a nil RIB or table creates fresh ones.
func NewProcessor(rib *bgp.RIB, groups *GroupTable) *Processor {
	if rib == nil {
		rib = bgp.NewRIB()
	}
	if groups == nil {
		groups = NewGroupTable(nil)
	}
	return &Processor{GroupSize: 2, rib: rib, groups: groups}
}

// Reserve pre-sizes the processor's advertised state for about n
// prefixes, sparing the growth copies a full-table load would otherwise
// pay. Call it before feeding the table; it never shrinks.
func (p *Processor) Reserve(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n > cap(p.adv) {
		p.adv = slices.Grow(p.adv, n-len(p.adv))
	}
}

// RIB returns the processor's routing table.
func (p *Processor) RIB() *bgp.RIB { return p.rib }

// Groups returns the backup-group table.
func (p *Processor) Groups() *GroupTable { return p.groups }

// React is Listing 1 over one list of table changes, the single entry
// into the reaction: it returns the packed UPDATEs that bring the router
// in line with the changed prefixes' ranked lists. This is the code path
// whose latency §4's micro-benchmark measures (paper: ≤125 ms at the
// 99th percentile for the unoptimized Python prototype).
//
// The list must name each prefix at most once, as every bgp.RIB
// UpdateInto and RemovePeerInto list does (an identical duplicate is
// swallowed by the churn filter), and must come from the processor's own
// table: the processor keeps its state by Change.Slot, and a change that
// names a slot held for another prefix is an error. The caller feeds
// every change list in the order the table produced them: whatever
// serialises writes to the table also covers the React after each, or a
// stale single-path view could overwrite a newer VNH announcement, and a
// freed slot could be reused before its withdraw is seen. React reads
// each change's New list and keeps no reference to the list.
//
// The returned updates may come from a pool: callers that finish with
// them can hand them back via RecycleUpdates (optional — an unrecycled
// batch is ordinary garbage).
func (p *Processor) React(changes []bgp.Change) ([]*bgp.Update, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.react(changes)
}

// Process applies one UPDATE from a peer to the processor's own table and
// reacts to it, in one critical section.
func (p *Processor) Process(peer bgp.PeerMeta, upd *bgp.Update) ([]*bgp.Update, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reactScratch(p.rib.UpdateInto(peer, upd, p.chScratch[:0]))
}

// PeerDown removes every path learned from the peer from the processor's
// own table and reacts to it, in one critical section. Note that
// data-plane convergence does NOT wait for the UPDATEs it returns: the
// engine's switch rewrite restores connectivity first, and this
// control-plane cleanup proceeds at the router's own pace.
func (p *Processor) PeerDown(peerAddr netip.Addr) ([]*bgp.Update, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reactScratch(p.rib.RemovePeerInto(peerAddr, p.chScratch[:0]))
}

// reactScratch reacts to a change list written into chScratch and keeps
// the buffer, with its slots zeroed so it does not pin dead Path lists (a
// 100k-change PeerDown would otherwise stay reachable until that many
// later changes overwrite it). Callers hold p.mu.
func (p *Processor) reactScratch(changes []bgp.Change) ([]*bgp.Update, error) {
	p.chScratch = changes
	out, err := p.react(changes)
	clear(changes)
	return out, err
}

// Readvertise returns the UPDATE stream that announces everything the
// router is currently supposed to hold, packed like any other reaction —
// what a router whose session (re)established must be sent. It changes
// no state.
func (p *Processor) Readvertise() ([]*bgp.Update, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, st := range p.adv {
		if st.attrs == nil {
			continue
		}
		if err := p.pack.announce(st.prefix, batchSig{src: st.attrs, grp: st.grp}); err != nil {
			return p.pack.flush(p.Metrics), err
		}
	}
	return p.pack.flush(p.Metrics), nil
}

// updatePool recycles the Updates the processor emits, so a full-feed
// replay (graceful-restart refresh, session recovery) reuses message
// objects and their NLRI backing arrays instead of allocating a fresh
// batch per reaction.
var updatePool = sync.Pool{New: func() any { return new(bgp.Update) }}

func newPooledUpdate() *bgp.Update {
	u := updatePool.Get().(*bgp.Update)
	u.Withdrawn = u.Withdrawn[:0]
	u.NLRI = u.NLRI[:0]
	u.Attrs = nil
	return u
}

// RecycleUpdates returns a batch previously emitted by React (or Process
// and PeerDown) or Readvertise to the pool. Callers must not touch the
// updates afterwards; recycling is optional and only ever correct for
// batches the processor itself returned (feed-generated updates are not
// pooled).
func RecycleUpdates(upds []*bgp.Update) {
	for _, u := range upds {
		if u != nil {
			updatePool.Put(u)
		}
	}
}

// batchSig identifies announcements that can share one outgoing UPDATE:
// the same source attribute object rendered toward the same target, a
// group's VNH or (grp == nil) the attributes' own next-hop. Attributes are
// interned and groups canonical, so a signature is two pointers.
type batchSig struct {
	src *bgp.Attrs
	grp *groupRef
}

// openBatch is where one signature's announcements (or the reaction's
// withdraws) go: the rendered attributes and the UPDATE currently filling.
type openBatch struct {
	attrs *bgp.Attrs // as rendered toward the router; nil for withdraws
	// budget is the prefix bytes an UPDATE carrying attrs holds before it
	// would exceed bgp.MaxMsgLen, room what u still takes of it.
	budget, room int
	u            *bgp.Update // nil until the first prefix arrives
}

// add appends pfx to the batch. A full UPDATE stays in out as it is and
// the batch continues in a fresh one sharing the rendered attributes.
func (b *openBatch) add(k *packer, pfx netip.Prefix) {
	need := bgp.PrefixWireLen(pfx)
	if b.u == nil || need > b.room {
		b.u = newPooledUpdate()
		b.u.Attrs = b.attrs
		b.room = b.budget
		k.out = append(k.out, b.u)
	}
	if b.attrs == nil {
		b.u.Withdrawn = append(b.u.Withdrawn, pfx)
	} else {
		b.u.NLRI = append(b.u.NLRI, pfx)
	}
	b.room -= need
	k.routes++
}

// wideCodec is the encoding budgets are computed under. Four-octet AS
// numbers are the wider form of every attribute this package emits, so an
// UPDATE that fits under it fits under the two-octet codec as well.
var wideCodec = bgp.Codec{ASN4: true}

// withdrawBudget is the withdrawn-routes bytes a pure withdraw holds (the
// helper only fails on attributes, and a withdraw has none).
var withdrawBudget, _ = bgp.NLRIBudget(nil, wideCodec)

// packer accumulates one reaction's output: announcements grouped by
// signature across the whole change list, withdraws in one run, every
// UPDATE cut before it would exceed bgp.MaxMsgLen. Each prefix is added
// at most once per reaction, so the order of the emitted UPDATEs does not
// matter to the receiver; they appear in out in the order they were
// opened. The slices and the index are reused across reactions.
type packer struct {
	out    []*bgp.Update
	routes int // prefixes added since the last flush
	wd     openBatch
	// batches holds one open batch per signature seen. The first
	// signature of a reaction lives only in batches[0] (first is its
	// signature) and the previous change's batch is remembered in last,
	// so the common reaction — one inbound UPDATE, one template, one
	// signature — never touches the index map.
	batches []openBatch
	first   batchSig
	lastSig batchSig
	last    int
	index   map[batchSig]int
}

// maxKeptIndex is the signature count up to which a reaction's index map
// is cleared for reuse. Clearing a map costs its capacity, not its length
// (~13 µs once a table-sized cleanup has grown it to a few thousand
// slots), which every later two-signature reaction would pay; a map that
// grew past this is dropped instead.
const maxKeptIndex = 64

// announce adds pfx to the batch of sig, rendering the signature's
// attributes if this reaction has not seen it yet.
func (k *packer) announce(pfx netip.Prefix, sig batchSig) error {
	if len(k.batches) == 0 || sig != k.lastSig {
		i, err := k.batchOf(sig)
		if err != nil {
			return err
		}
		k.last, k.lastSig = i, sig
	}
	k.batches[k.last].add(k, pfx)
	return nil
}

func (k *packer) batchOf(sig batchSig) (int, error) {
	switch {
	case len(k.batches) == 0:
		k.first = sig
	case sig == k.first:
		return 0, nil
	default:
		if i, ok := k.index[sig]; ok {
			return i, nil
		}
	}
	budget, err := bgp.NLRIBudget(sig.src, wideCodec)
	if err != nil {
		return 0, fmt.Errorf("core: render announcement: %w", err)
	}
	attrs := sig.src
	if sig.grp != nil {
		attrs = sig.src.Clone()
		attrs.NextHop = sig.grp.VNH
	}
	i := len(k.batches)
	k.batches = append(k.batches, openBatch{attrs: attrs, budget: budget})
	if i > 0 {
		if k.index == nil {
			k.index = make(map[batchSig]int)
		}
		k.index[sig] = i
	}
	return i, nil
}

// withdraw adds pfx to the reaction's pure-withdraw run.
func (k *packer) withdraw(pfx netip.Prefix) {
	k.wd.budget = withdrawBudget
	k.wd.add(k, pfx)
}

// flush hands the reaction's UPDATEs to the caller and resets the packer
// for the next one.
func (k *packer) flush(m *ProcMetrics) []*bgp.Update {
	out := k.out
	m.emitted(len(out), k.routes)
	switch n := len(k.batches); {
	case n > maxKeptIndex:
		k.index = nil
	case n > 1:
		clear(k.index)
	}
	clear(k.batches) // drop the references to the emitted UPDATEs
	*k = packer{batches: k.batches[:0], index: k.index}
	return out
}

// react is React under p.mu: it translates the changes into
// announcements and packs them (see packer).
func (p *Processor) react(changes []bgp.Change) ([]*bgp.Update, error) {
	p.Metrics.reaction()
	for _, ch := range changes {
		if err := p.reactOne(ch); err != nil {
			return p.pack.flush(p.Metrics), err
		}
	}
	return p.pack.flush(p.Metrics), nil
}

// reactOne reacts to one RIB change: suppress it, or record the new
// advertised state and hand the prefix to the packer.
func (p *Processor) reactOne(ch bgp.Change) error {
	pfx := ch.Prefix
	var state advState
	if int(ch.Slot) < len(p.adv) {
		state = p.adv[ch.Slot]
	}
	had := state.attrs != nil
	if had && state.prefix != pfx {
		return fmt.Errorf("core: change for %v names slot %d, which holds %v: the change list is not from this processor's table", pfx, ch.Slot, state.prefix)
	}

	// Prefix became unreachable: withdraw (Listing 1's send_withdraw).
	if len(ch.New) == 0 {
		if !had {
			return nil
		}
		if state.grp != nil {
			state.grp.members.Add(-1)
		}
		p.adv[ch.Slot] = advState{}
		p.nAdv--
		p.Metrics.withdrawn()
		p.pack.withdraw(pfx)
		return nil
	}

	// A single path is announced as-is and the router resolves the real
	// next-hop itself (Listing 1's len(new) == 1 branch, grp == nil);
	// several are announced via their backup-group's VNH. A prefix whose
	// tuple did not move keeps its group without any lookup — with
	// unchanged attributes that is the steady-state churn path (graceful-
	// restart replays, background UPDATE noise), which must not allocate.
	best := ch.New[0]
	var grp *groupRef
	if nhs := p.topNextHops(ch.New); len(nhs) >= 2 {
		if state.grp != nil && slices.Equal(state.grp.NHs, nhs) {
			grp = state.grp
		} else {
			var err error
			if grp, err = p.groupFor(nhs); err != nil {
				return err
			}
		}
	}
	if had && state.grp == grp && sameAttrs(state.attrs, best.Attrs) {
		p.Metrics.suppressed()
		return nil // nothing material changed
	}

	if err := p.pack.announce(pfx, batchSig{src: best.Attrs, grp: grp}); err != nil {
		return err
	}
	if state.grp != grp {
		if state.grp != nil {
			state.grp.members.Add(-1)
		}
		if grp != nil {
			grp.members.Add(1)
		}
	}
	if n := int(ch.Slot) + 1; n > len(p.adv) {
		p.adv = append(p.adv, make([]advState, n-len(p.adv))...)
	}
	if !had {
		p.nAdv++
	}
	p.adv[ch.Slot] = advState{prefix: pfx, attrs: best.Attrs, grp: grp}
	p.Metrics.announced()
	return nil
}

// groupFor resolves the ordered tuple to its group, minting it (and
// running OnNewGroup) on first use.
func (p *Processor) groupFor(nhs []netip.Addr) (*groupRef, error) {
	for i, g := range p.memo {
		if slices.Equal(g.NHs, nhs) {
			copy(p.memo[1:i+1], p.memo[:i])
			p.memo[0] = g
			return g, nil
		}
	}
	g, minted, err := p.groups.ensure(nhs)
	if err != nil {
		return nil, err
	}
	if minted {
		p.Metrics.groupAllocated()
		if p.OnNewGroup != nil {
			if err := p.OnNewGroup(g.snapshot()); err != nil {
				return nil, err
			}
		}
	}
	if len(p.memo) < groupMemoSize {
		p.memo = append(p.memo, nil)
	}
	copy(p.memo[1:], p.memo)
	p.memo[0] = g
	return g, nil
}

// sameAttrs is the processor's churn filter: pointer identity first (with
// the RIB's interner this is the only comparison that ever runs — every
// stored attribute pointer is canonical), semantic equality as the
// defensive fallback, so a peer replaying byte-identical routes (a
// graceful-restart refresh, background UPDATE noise) produces no
// announcements toward the router. The legacy router has no such filter —
// shielding it from redundant churn is part of what the supercharger
// sells (the paper's E3 load benchmark).
func sameAttrs(a, b *bgp.Attrs) bool {
	return a == b || a.Equal(b)
}

// topNextHops extracts the first GroupSize distinct next-hops from the
// ranked path list into the processor's reusable scratch buffer; the
// returned slice is only valid until the next call.
func (p *Processor) topNextHops(paths []bgp.Path) []netip.Addr {
	k := p.GroupSize
	if k < 2 {
		k = 2
	}
	if cap(p.nhScratch) < k {
		p.nhScratch = make([]netip.Addr, 0, k)
	}
	nhs := p.nhScratch[:0]
	for _, path := range paths {
		nh := path.NextHop()
		dup := false
		for _, seen := range nhs {
			if seen == nh {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		nhs = append(nhs, nh)
		if len(nhs) == k {
			break
		}
	}
	return nhs
}

// Advertised returns what the processor last announced for pfx: the
// next-hop the router sees (real or virtual) and whether it is virtual.
// It finds pfx's state through the RIB's slot, so a prefix that a table
// write made unreachable reads as not announced even before the React
// that withdraws it.
func (p *Processor) Advertised(pfx netip.Prefix) (nh netip.Addr, virtual, ok bool) {
	slot, inRIB := p.rib.Slot(pfx)
	p.mu.Lock()
	defer p.mu.Unlock()
	var st advState
	if inRIB && int(slot) < len(p.adv) {
		st = p.adv[slot]
	}
	switch {
	case st.attrs == nil || st.prefix != pfx:
		return netip.Addr{}, false, false
	case st.grp != nil:
		return st.grp.VNH, true, true
	}
	return st.attrs.NextHop, false, true
}

// AdvertisedCount returns the number of prefixes currently announced.
func (p *Processor) AdvertisedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nAdv
}

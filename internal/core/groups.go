package core

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"supercharged/internal/packet"
)

// Group is one backup-group: all prefixes whose ranked path list starts
// with the same ordered next-hop tuple share this group's VNH/VMAC and are
// redirected together by a single switch-rule rewrite. The paper works
// with tuples of size 2 — (primary, backup) — and notes the algorithm
// generalizes to any size; NHs[0] is the primary.
type Group struct {
	NHs  []netip.Addr
	VNH  netip.Addr
	VMAC packet.MAC
	// Prefixes counts member prefixes at the moment the table handed this
	// copy out (bookkeeping for the ops endpoint and ablations).
	Prefixes int
	// key caches the canonical tuple key for groups minted by a
	// GroupTable, so sorting and map lookups don't rebuild the string.
	key string
}

// groupRef is the table's one canonical record of a group, and the
// identity the processor keys its per-prefix state and batch signatures
// on: two prefixes share a group iff they hold the same *groupRef. The
// embedded Group is immutable once minted; only the member count moves,
// atomically, so the processor adjusts it per prefix without the table
// lock while All/ByVNH/Containing copy the group out under it.
type groupRef struct {
	Group
	members atomic.Int64
}

// snapshot returns the group by value with its current member count.
func (g *groupRef) snapshot() Group {
	out := g.Group
	out.Prefixes = int(g.members.Load())
	return out
}

// Primary returns the group's primary next-hop.
func (g Group) Primary() netip.Addr { return g.NHs[0] }

// Backup returns the first backup next-hop.
func (g Group) Backup() netip.Addr { return g.NHs[1] }

// Key returns the canonical string key of the ordered tuple.
func (g Group) Key() string {
	if g.key != "" {
		return g.key
	}
	return groupKeyOf(g.NHs)
}

func (g Group) String() string {
	parts := make([]string, len(g.NHs))
	for i, nh := range g.NHs {
		parts[i] = nh.String()
	}
	return fmt.Sprintf("group{%s vnh=%s vmac=%s n=%d}", strings.Join(parts, "->"), g.VNH, g.VMAC, g.Prefixes)
}

func groupKeyOf(nhs []netip.Addr) string {
	var b strings.Builder
	for i, nh := range nhs {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(nh.String())
	}
	return b.String()
}

// GroupTable owns the backup-group map of paper §2 (bck_groups) plus the
// VNH/VMAC pool. It is safe for concurrent use.
type GroupTable struct {
	mu     sync.RWMutex
	pool   *VNHPool
	groups map[string]*groupRef
	byVNH  map[netip.Addr]*groupRef
}

// NewGroupTable returns an empty table allocating from pool.
func NewGroupTable(pool *VNHPool) *GroupTable {
	if pool == nil {
		pool = NewVNHPool(AllocSequential)
	}
	return &GroupTable{
		pool:   pool,
		groups: make(map[string]*groupRef),
		byVNH:  make(map[netip.Addr]*groupRef),
	}
}

// Ensure returns the group for the ordered next-hop tuple, allocating
// VNH/VMAC on first use — the paper's get_new_vnh_vmac(). The tuple must
// have at least two entries.
func (t *GroupTable) Ensure(nhs ...netip.Addr) (Group, error) {
	g, _, err := t.ensure(nhs)
	if err != nil {
		return Group{}, err
	}
	return g.snapshot(), nil
}

// ensure is Ensure handing out the canonical record and whether this call
// minted it (the processor runs OnNewGroup exactly then).
func (t *GroupTable) ensure(nhs []netip.Addr) (g *groupRef, minted bool, err error) {
	if len(nhs) < 2 {
		return nil, false, fmt.Errorf("core: backup-group needs ≥2 next-hops, got %d", len(nhs))
	}
	key := groupKeyOf(nhs)
	t.mu.Lock()
	defer t.mu.Unlock()
	if g, ok := t.groups[key]; ok {
		return g, false, nil
	}
	vnh, vmac, err := t.pool.Alloc(nhs)
	if err != nil {
		return nil, false, err
	}
	g = &groupRef{Group: Group{NHs: append([]netip.Addr(nil), nhs...), VNH: vnh, VMAC: vmac, key: key}}
	t.groups[key] = g
	t.byVNH[vnh] = g
	return g, true, nil
}

// Get returns the group for the tuple if it exists.
func (t *GroupTable) Get(nhs ...netip.Addr) (Group, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if g, ok := t.groups[groupKeyOf(nhs)]; ok {
		return g.snapshot(), true
	}
	return Group{}, false
}

// ByVNH resolves a virtual next-hop to its group — the ARP responder's
// lookup.
func (t *GroupTable) ByVNH(vnh netip.Addr) (Group, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if g, ok := t.byVNH[vnh]; ok {
		return g.snapshot(), true
	}
	return Group{}, false
}

// WithPrimary returns every group whose primary next-hop is nh — the set
// Listing 2 rewrites when nh fails.
func (t *GroupTable) WithPrimary(nh netip.Addr) []Group {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []Group
	for _, g := range t.groups {
		if g.NHs[0] == nh {
			out = append(out, g.snapshot())
		}
	}
	sortGroups(out)
	return out
}

// Containing returns every group whose tuple contains nh at any position.
func (t *GroupTable) Containing(nh netip.Addr) []Group {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []Group
	for _, g := range t.groups {
		for _, x := range g.NHs {
			if x == nh {
				out = append(out, g.snapshot())
				break
			}
		}
	}
	sortGroups(out)
	return out
}

// All returns every group, sorted for stable output.
func (t *GroupTable) All() []Group {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Group, 0, len(t.groups))
	for _, g := range t.groups {
		out = append(out, g.snapshot())
	}
	sortGroups(out)
	return out
}

// Len returns the number of groups.
func (t *GroupTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.groups)
}

func sortGroups(gs []Group) {
	sort.Slice(gs, func(i, j int) bool { return gs[i].Key() < gs[j].Key() })
}

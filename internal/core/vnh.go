// Package core implements the paper's contribution: the supercharged
// controller. It interposes on the router's BGP sessions, reacts to each
// prefix's ordered path list, computes (primary, backup) backup-groups
// (Listing 1), allocates a virtual next-hop (VNH) and virtual MAC (VMAC)
// per group, rewrites announcements toward the router, answers the
// router's ARP for VNHs, and on failure rewrites O(#peers) switch rules to
// restore connectivity (Listing 2) — giving the legacy router a
// hierarchical FIB that spans two devices.
package core

import (
	"fmt"
	"hash/fnv"
	"net/netip"

	"supercharged/internal/packet"
)

// AllocMode selects how VNH/VMAC values are assigned to backup-groups.
type AllocMode int

const (
	// AllocSequential numbers groups in first-seen order — the paper's
	// Listing 1 (get_new_vnh_vmac). Simple, but two controller replicas
	// that receive the same routes in different interleavings can assign
	// different VNHs to the same group.
	AllocSequential AllocMode = iota
	// AllocDeterministic derives the VNH/VMAC from a hash of the
	// (primary, backup) pair, so independent replicas agree without any
	// state synchronization (the property §3 relies on), except in the
	// astronomically unlikely event of a probed hash collision observed
	// in different orders. Ablation A1 quantifies this.
	AllocDeterministic
)

func (m AllocMode) String() string {
	if m == AllocDeterministic {
		return "deterministic"
	}
	return "sequential"
}

// VNHPool hands out virtual next-hop addresses and virtual MACs. The VNH
// pool is a /14 by default (2^18 slots — vastly more than the n(n-1)
// groups any real peering needs); VMACs are locally-administered unicast
// addresses under the 02:53 prefix.
type VNHPool struct {
	Mode AllocMode
	// Base is the VNH pool; the default 10.200.0.0/14 leaves the rest of
	// 10/8 to the deployment.
	Base netip.Prefix

	next  int // sequential mode cursor
	inUse map[netip.Addr]string
	byKey map[string]netip.Addr
}

// DefaultVNHBase is the default virtual next-hop pool.
var DefaultVNHBase = netip.MustParsePrefix("10.200.0.0/14")

// NewVNHPool returns a pool with the given mode and default base.
func NewVNHPool(mode AllocMode) *VNHPool {
	return &VNHPool{
		Mode:  mode,
		Base:  DefaultVNHBase,
		inUse: make(map[netip.Addr]string),
		byKey: make(map[string]netip.Addr),
	}
}

// Alloc assigns a (VNH, VMAC) to the ordered next-hop tuple. Allocations
// are stable: the same tuple always gets the same answer from one pool.
func (p *VNHPool) Alloc(nhs []netip.Addr) (netip.Addr, packet.MAC, error) {
	if p.inUse == nil {
		p.inUse = make(map[netip.Addr]string)
	}
	if p.byKey == nil {
		p.byKey = make(map[string]netip.Addr)
	}
	if !p.Base.IsValid() {
		p.Base = DefaultVNHBase
	}
	key := groupKeyOf(nhs)
	if addr, ok := p.byKey[key]; ok {
		return addr, vmacFor(nhs), nil
	}
	slots := p.slots()
	if len(p.inUse) >= slots {
		return netip.Addr{}, packet.MAC{}, fmt.Errorf("core: VNH pool %v exhausted (%d groups)", p.Base, len(p.inUse))
	}

	var start int
	switch p.Mode {
	case AllocDeterministic:
		start = int(hashTuple(nhs, 0) % uint64(slots))
	default:
		start = p.next % slots
	}
	for i := 0; i < slots; i++ {
		slot := (start + i) % slots
		addr := p.addrAt(slot)
		owner, taken := p.inUse[addr]
		if taken {
			if owner == key {
				return addr, vmacFor(nhs), nil
			}
			continue
		}
		p.inUse[addr] = key
		p.byKey[key] = addr
		if p.Mode == AllocSequential {
			p.next = slot + 1
		}
		return addr, vmacFor(nhs), nil
	}
	return netip.Addr{}, packet.MAC{}, fmt.Errorf("core: VNH pool %v exhausted", p.Base)
}

// Release returns a VNH to the pool (used when a backup-group dies).
func (p *VNHPool) Release(vnh netip.Addr) {
	if key, ok := p.inUse[vnh]; ok {
		delete(p.byKey, key)
	}
	delete(p.inUse, vnh)
}

// InUse returns the number of allocated VNHs.
func (p *VNHPool) InUse() int { return len(p.inUse) }

func (p *VNHPool) slots() int {
	bits := 32 - p.Base.Bits()
	if bits > 24 {
		bits = 24 // cap the scan space
	}
	// Avoid the all-zeros and broadcast-looking tail by skipping slot 0.
	return 1<<bits - 1
}

func (p *VNHPool) addrAt(slot int) netip.Addr {
	base := ipv4ToUint(p.Base.Addr())
	return uintToIPv4(base + uint32(slot) + 1)
}

// vmacFor derives the group's virtual MAC: locally administered unicast
// under 02:53 with 32 bits of tuple hash — deterministic across replicas
// in both allocation modes (the VMAC is what the data plane matches on, so
// replica agreement here is what makes §3's "no state sync" story work for
// the switch rules).
func vmacFor(nhs []netip.Addr) packet.MAC {
	h := hashTuple(nhs, 1)
	return packet.MAC{0x02, 0x53, byte(h >> 24), byte(h >> 16), byte(h >> 8), byte(h)}
}

func hashTuple(nhs []netip.Addr, salt byte) uint64 {
	h := fnv.New64a()
	for _, nh := range nhs {
		b := nh.As4()
		h.Write(b[:])
	}
	h.Write([]byte{salt})
	return h.Sum64()
}

func ipv4ToUint(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func uintToIPv4(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

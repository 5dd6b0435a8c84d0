package bgp

import (
	"fmt"
	"net/netip"
	"sort"
)

// Path is one route for a prefix as stored in the RIB: the advertising
// session's record and the route's interned attributes. It is a 16-byte
// value held inline in the RIB's ranked lists, so a route costs no heap
// object of its own. The RIB keeps one record per peer and gives a peer
// a fresh one when its metadata changes, so paths from the same session
// share the record and two paths with the same record and Attrs pointer
// are the same route. Neither pointer's target may be modified.
type Path struct {
	sess  *PeerMeta
	Attrs *Attrs
}

// Peer returns the record of the session that advertised the route.
func (p Path) Peer() *PeerMeta { return p.sess }

// NextHop returns the route's NEXT_HOP attribute.
func (p Path) NextHop() netip.Addr { return p.Attrs.NextHop }

// LocalPref returns LOCAL_PREF or the conventional default 100.
func (p Path) LocalPref() uint32 {
	if p.Attrs.HasLocalPref {
		return p.Attrs.LocalPref
	}
	return 100
}

// MED returns the MED or 0 (the RFC's "missing as best" convention).
func (p Path) MED() uint32 {
	if p.Attrs.HasMED {
		return p.Attrs.MED
	}
	return 0
}

func (p Path) String() string {
	return fmt.Sprintf("via %s (peer %s, lp %d, as-path [%s])", p.NextHop(), p.sess.Addr, p.LocalPref(), p.Attrs.ASPath)
}

// DecisionConfig tunes the decision process.
type DecisionConfig struct {
	// AlwaysCompareMED compares MED across neighbor ASes (the "med
	// always" knob); default is RFC behavior (same neighbor AS only).
	AlwaysCompareMED bool
}

// Compare implements the BGP decision process as a total order over paths:
// it returns a negative value when a is preferred over b, positive when b
// wins, and never 0 for distinct peers (router ID and peer address break
// ties), which is what makes the ranking — and hence the controller's
// backup-group computation — deterministic. The steps, in order:
//
//  1. highest Weight (local, Cisco-style)
//  2. highest LOCAL_PREF
//  3. shortest AS_PATH
//  4. lowest ORIGIN
//  5. lowest MED (same neighbor AS unless AlwaysCompareMED)
//  6. eBGP over iBGP
//  7. lowest IGP metric to the next-hop
//  8. lowest peer router ID
//  9. lowest peer address
func (cfg DecisionConfig) Compare(a, b Path) int {
	sa, sb := a.sess, b.sess
	if sa.Weight != sb.Weight {
		if sa.Weight > sb.Weight {
			return -1
		}
		return 1
	}
	if la, lb := a.LocalPref(), b.LocalPref(); la != lb {
		if la > lb {
			return -1
		}
		return 1
	}
	if la, lb := a.Attrs.ASPath.Length(), b.Attrs.ASPath.Length(); la != lb {
		return la - lb
	}
	if oa, ob := a.Attrs.Origin, b.Attrs.Origin; oa != ob {
		return int(oa) - int(ob)
	}
	if cfg.AlwaysCompareMED || a.Attrs.ASPath.First() == b.Attrs.ASPath.First() {
		if ma, mb := a.MED(), b.MED(); ma != mb {
			if ma < mb {
				return -1
			}
			return 1
		}
	}
	if sa.IBGP != sb.IBGP {
		if !sa.IBGP {
			return -1
		}
		return 1
	}
	if sa.IGPMetric != sb.IGPMetric {
		if sa.IGPMetric < sb.IGPMetric {
			return -1
		}
		return 1
	}
	if sa.ID != sb.ID {
		return sa.ID.Compare(sb.ID)
	}
	return sa.Addr.Compare(sb.Addr)
}

// Rank sorts paths best-first in place according to the decision process.
func (cfg DecisionConfig) Rank(paths []Path) {
	sort.SliceStable(paths, func(i, j int) bool {
		return cfg.Compare(paths[i], paths[j]) < 0
	})
}

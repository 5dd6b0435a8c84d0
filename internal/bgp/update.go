package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
)

// Update is a BGP UPDATE: withdrawn prefixes, path attributes, and the
// prefixes (NLRI) announced with those attributes. Attrs is nil for a pure
// withdraw.
type Update struct {
	Withdrawn []netip.Prefix
	Attrs     *Attrs
	NLRI      []netip.Prefix
}

// Type implements Message.
func (*Update) Type() MsgType { return MsgUpdate }

func (u *Update) String() string {
	var parts []string
	if len(u.Withdrawn) > 0 {
		parts = append(parts, fmt.Sprintf("withdraw %v", u.Withdrawn))
	}
	if len(u.NLRI) > 0 {
		parts = append(parts, fmt.Sprintf("announce %v {%s}", u.NLRI, u.Attrs))
	}
	if len(parts) == 0 {
		return "update(empty)"
	}
	return strings.Join(parts, "; ")
}

func (u *Update) marshal(c Codec) ([]byte, error) {
	withdrawn, err := marshalPrefixes(u.Withdrawn)
	if err != nil {
		return nil, err
	}
	var attrs []byte
	if u.Attrs != nil {
		attrs, err = u.Attrs.marshal(c)
		if err != nil {
			return nil, err
		}
	} else if len(u.NLRI) > 0 {
		return nil, fmt.Errorf("%w: NLRI without path attributes", ErrBadMessage)
	}
	nlri, err := marshalPrefixes(u.NLRI)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, 4+len(withdrawn)+len(attrs)+len(nlri))
	out = binary.BigEndian.AppendUint16(out, uint16(len(withdrawn)))
	out = append(out, withdrawn...)
	out = binary.BigEndian.AppendUint16(out, uint16(len(attrs)))
	out = append(out, attrs...)
	out = append(out, nlri...)
	return out, nil
}

func parseUpdate(b []byte, c Codec) (*Update, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: UPDATE body %d bytes", ErrBadLength, len(b))
	}
	wLen := int(binary.BigEndian.Uint16(b[0:2]))
	if len(b) < 2+wLen+2 {
		return nil, fmt.Errorf("%w: withdrawn routes overflow", ErrBadLength)
	}
	withdrawn, err := parsePrefixes(b[2 : 2+wLen])
	if err != nil {
		return nil, err
	}
	rest := b[2+wLen:]
	aLen := int(binary.BigEndian.Uint16(rest[0:2]))
	if len(rest) < 2+aLen {
		return nil, fmt.Errorf("%w: path attributes overflow", ErrBadLength)
	}
	u := &Update{Withdrawn: withdrawn}
	if aLen > 0 {
		u.Attrs, err = parseAttrs(rest[2:2+aLen], c)
		if err != nil {
			return nil, err
		}
	}
	u.NLRI, err = parsePrefixes(rest[2+aLen:])
	if err != nil {
		return nil, err
	}
	if len(u.NLRI) > 0 {
		if u.Attrs == nil {
			return nil, fmt.Errorf("%w: NLRI without path attributes", ErrBadMessage)
		}
		if len(u.Attrs.ASPath) == 0 && u.Attrs.NextHop.IsValid() {
			// Empty AS_PATH is legal only for iBGP-originated routes; accept.
			_ = u
		}
		if !u.Attrs.NextHop.IsValid() {
			return nil, fmt.Errorf("%w: announcement without NEXT_HOP", ErrBadMessage)
		}
	}
	return u, nil
}

// marshalPrefixes encodes prefixes in the NLRI wire form: one length octet
// followed by ceil(len/8) address octets.
func marshalPrefixes(ps []netip.Prefix) ([]byte, error) {
	var out []byte
	for _, p := range ps {
		if !p.IsValid() || !p.Addr().Unmap().Is4() {
			return nil, fmt.Errorf("%w: NLRI prefix %v is not IPv4", ErrBadMessage, p)
		}
		p = netip.PrefixFrom(p.Addr().Unmap(), p.Bits()).Masked()
		addr := p.Addr().As4()
		nBytes := (p.Bits() + 7) / 8
		out = append(out, byte(p.Bits()))
		out = append(out, addr[:nBytes]...)
	}
	return out, nil
}

func parsePrefixes(b []byte) ([]netip.Prefix, error) {
	var ps []netip.Prefix
	for len(b) > 0 {
		bits := int(b[0])
		if bits > 32 {
			return nil, fmt.Errorf("%w: prefix length %d", ErrBadMessage, bits)
		}
		nBytes := (bits + 7) / 8
		if len(b) < 1+nBytes {
			return nil, fmt.Errorf("%w: truncated prefix", ErrBadMessage)
		}
		var addr [4]byte
		copy(addr[:], b[1:1+nBytes])
		p := netip.PrefixFrom(netip.AddrFrom4(addr), bits).Masked()
		ps = append(ps, p)
		b = b[1+nBytes:]
	}
	return ps, nil
}

// NLRIBudget returns how many bytes of encoded prefixes fit in one UPDATE
// that carries attrs under c without exceeding MaxMsgLen: the NLRI of an
// announcement, or the withdrawn routes of a pure withdraw (attrs == nil).
// SplitUpdates and core.Processor's packer both cut messages by it, so
// the feed side and the router-facing side agree on where a message ends.
func NLRIBudget(attrs *Attrs, c Codec) (int, error) {
	budget := MaxMsgLen - HeaderLen - 4
	if attrs != nil {
		attrBytes, err := attrs.marshal(c)
		if err != nil {
			return 0, err
		}
		budget -= len(attrBytes)
	}
	if budget < 5 {
		return 0, fmt.Errorf("%w: attributes leave no room for NLRI", ErrBadLength)
	}
	return budget, nil
}

// PrefixWireLen returns the bytes p occupies in an UPDATE's NLRI or
// withdrawn-routes field — the unit NLRIBudget is spent in.
func PrefixWireLen(p netip.Prefix) int { return 1 + (p.Bits()+7)/8 }

// SplitUpdates splits announcements sharing one attribute set into as many
// UPDATE messages as needed to respect the 4096-byte message limit. The
// feed generator uses it to emit realistically batched full-table feeds.
// Each UPDATE's NLRI is a capacity-capped sub-slice of nlri, not a copy:
// the caller hands nlri over and must not reuse its array while the
// UPDATEs are live; an append to one UPDATE's NLRI reallocates instead
// of overwriting its neighbour's.
func SplitUpdates(attrs *Attrs, nlri []netip.Prefix, c Codec) ([]*Update, error) {
	if len(nlri) == 0 {
		return nil, nil
	}
	budget, err := NLRIBudget(attrs, c)
	if err != nil {
		return nil, err
	}
	var out []*Update
	first, used := 0, 0
	for i, p := range nlri {
		need := PrefixWireLen(p)
		if used+need > budget {
			out = append(out, &Update{Attrs: attrs, NLRI: nlri[first:i:i]})
			first, used = i, 0
		}
		used += need
	}
	out = append(out, &Update{Attrs: attrs, NLRI: nlri[first:len(nlri):len(nlri)]})
	return out, nil
}

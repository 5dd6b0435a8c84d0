package bgp

import (
	"bytes"
	"errors"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }
func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestOpenRoundTrip(t *testing.T) {
	c := Codec{}
	in := &Open{Version: 4, AS: 65001, HoldTime: 90, ID: addr("192.0.2.1"),
		Caps: []Capability{{Code: CapRouteRefresh}}}
	buf, err := c.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := c.Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	out := msg.(*Open)
	if out.Version != 4 || out.AS != 65001 || out.HoldTime != 90 || out.ID != addr("192.0.2.1") {
		t.Fatalf("open mismatch: %+v", out)
	}
	if _, ok := out.Cap(CapASN4); !ok {
		t.Fatal("ASN4 capability not auto-advertised")
	}
	if _, ok := out.Cap(CapRouteRefresh); !ok {
		t.Fatal("route-refresh capability lost")
	}
}

func TestOpen4ByteAS(t *testing.T) {
	c := Codec{}
	in := &Open{Version: 4, AS: 4200000001, HoldTime: 30, ID: addr("10.0.0.1")}
	buf, err := c.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	// On-wire 2-byte field must carry AS_TRANS.
	if got := uint16(buf[HeaderLen+1])<<8 | uint16(buf[HeaderLen+2]); got != ASTrans {
		t.Fatalf("wire AS %d, want AS_TRANS", got)
	}
	out, err := c.Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.(*Open).AS != 4200000001 {
		t.Fatalf("AS = %d after round trip", out.(*Open).AS)
	}
}

func TestKeepaliveRoundTrip(t *testing.T) {
	c := Codec{}
	buf, err := c.Marshal(&Keepalive{})
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != HeaderLen {
		t.Fatalf("keepalive length %d", len(buf))
	}
	if _, err := c.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	c := Codec{}
	in := &Notification{Code: NotifCease, Subcode: 2, Data: []byte{1, 2}}
	buf, _ := c.Marshal(in)
	msg, err := c.Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	out := msg.(*Notification)
	if out.Code != NotifCease || out.Subcode != 2 || !bytes.Equal(out.Data, []byte{1, 2}) {
		t.Fatalf("notification %+v", out)
	}
	if out.Error() == "" || out.String() == "" {
		t.Fatal("empty rendering")
	}
}

func fullAttrs() *Attrs {
	return &Attrs{
		Origin:  OriginIGP,
		ASPath:  Sequence(65001, 3356, 1299),
		NextHop: addr("203.0.113.1"),
		MED:     50, HasMED: true,
		LocalPref: 200, HasLocalPref: true,
		AtomicAggregate: true,
		Aggregator:      &Aggregator{AS: 65001, ID: addr("192.0.2.9")},
		Communities:     []Community{Community(65001<<16 | 100), Community(3356<<16 | 2)},
	}
}

func TestUpdateRoundTripAllAttrs(t *testing.T) {
	for _, asn4 := range []bool{false, true} {
		c := Codec{ASN4: asn4}
		in := &Update{
			Withdrawn: []netip.Prefix{pfx("10.1.0.0/16"), pfx("10.2.3.0/24")},
			Attrs:     fullAttrs(),
			NLRI:      []netip.Prefix{pfx("1.0.0.0/24"), pfx("100.0.0.0/8"), pfx("192.0.2.128/25")},
		}
		buf, err := c.Marshal(in)
		if err != nil {
			t.Fatalf("asn4=%v: %v", asn4, err)
		}
		msg, err := c.Unmarshal(buf)
		if err != nil {
			t.Fatalf("asn4=%v: %v", asn4, err)
		}
		out := msg.(*Update)
		if !reflect.DeepEqual(out.Withdrawn, in.Withdrawn) || !reflect.DeepEqual(out.NLRI, in.NLRI) {
			t.Fatalf("asn4=%v prefixes mismatch: %+v", asn4, out)
		}
		if !reflect.DeepEqual(out.Attrs, in.Attrs) {
			t.Fatalf("asn4=%v attrs mismatch:\n got %+v\nwant %+v", asn4, out.Attrs, in.Attrs)
		}
	}
}

func TestUpdatePureWithdraw(t *testing.T) {
	c := Codec{}
	in := &Update{Withdrawn: []netip.Prefix{pfx("10.0.0.0/8")}}
	buf, err := c.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	u := out.(*Update)
	if u.Attrs != nil || len(u.NLRI) != 0 || len(u.Withdrawn) != 1 {
		t.Fatalf("pure withdraw decoded as %+v", u)
	}
}

func TestUpdateNLRIWithoutAttrsRejected(t *testing.T) {
	c := Codec{}
	if _, err := c.Marshal(&Update{NLRI: []netip.Prefix{pfx("10.0.0.0/8")}}); err == nil {
		t.Fatal("marshal accepted NLRI without attributes")
	}
}

func TestUpdate2ByteASPathTruncatesLargeASN(t *testing.T) {
	c := Codec{ASN4: false}
	in := &Update{Attrs: &Attrs{Origin: OriginIGP, ASPath: Sequence(4200000001), NextHop: addr("10.0.0.1")},
		NLRI: []netip.Prefix{pfx("10.0.0.0/8")}}
	buf, err := c.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := c.Unmarshal(buf)
	if got := out.(*Update).Attrs.ASPath.First(); got != uint32(ASTrans) {
		t.Fatalf("2-byte AS path carried %d, want AS_TRANS", got)
	}
}

func TestUnknownTransitiveAttrPreserved(t *testing.T) {
	// The interposing controller must not drop attributes it does not
	// understand (e.g. LARGE_COMMUNITY, code 32).
	c := Codec{}
	in := &Update{Attrs: &Attrs{
		Origin: OriginIGP, ASPath: Sequence(65001), NextHop: addr("10.0.0.1"),
		Others: []RawAttr{{Flags: flagOptional | flagTransitive, Code: 32, Data: []byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}},
	}, NLRI: []netip.Prefix{pfx("10.0.0.0/8")}}
	buf, err := c.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	others := out.(*Update).Attrs.Others
	if len(others) != 1 || others[0].Code != 32 || len(others[0].Data) != 12 {
		t.Fatalf("unknown attr not preserved: %+v", others)
	}
	if others[0].Flags&flagPartial == 0 {
		t.Fatal("partial bit not set on re-advertised unknown attr")
	}
	// Round-trip again: still preserved.
	buf2, err := c.Marshal(out.(*Update))
	if err != nil {
		t.Fatal(err)
	}
	out2, err := c.Unmarshal(buf2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out2.(*Update).Attrs.Others) != 1 {
		t.Fatal("unknown attr lost on second hop")
	}
}

func TestBadMarkerRejected(t *testing.T) {
	c := Codec{}
	buf, _ := c.Marshal(&Keepalive{})
	buf[3] = 0
	if _, err := c.Unmarshal(buf); !errors.Is(err, ErrBadMarker) {
		t.Fatalf("err = %v", err)
	}
}

func TestLengthMismatchRejected(t *testing.T) {
	c := Codec{}
	buf, _ := c.Marshal(&Keepalive{})
	buf[17] = 200 // inflate claimed length
	if _, err := c.Unmarshal(buf); !errors.Is(err, ErrBadLength) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadMessageFromStream(t *testing.T) {
	c := Codec{}
	var stream bytes.Buffer
	msgs := []Message{
		&Keepalive{},
		&Update{Attrs: &Attrs{Origin: OriginIGP, ASPath: Sequence(1), NextHop: addr("10.0.0.1")}, NLRI: []netip.Prefix{pfx("10.0.0.0/8")}},
		&Notification{Code: NotifCease},
	}
	for _, m := range msgs {
		if err := c.WriteMessage(&stream, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := c.ReadMessage(&stream)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if got.Type() != want.Type() {
			t.Fatalf("msg %d type %s, want %s", i, got.Type(), want.Type())
		}
	}
}

func TestSplitUpdatesRespectsMessageLimit(t *testing.T) {
	c := Codec{}
	attrs := fullAttrs()
	var nlri []netip.Prefix
	for i := 0; i < 3000; i++ {
		nlri = append(nlri, netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(1 + i/65536), byte(i / 256), byte(i), 0}), 24))
	}
	ups, err := SplitUpdates(attrs, nlri, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) < 2 {
		t.Fatalf("3000 prefixes fit in %d message(s)", len(ups))
	}
	total := 0
	for _, u := range ups {
		// Each UPDATE's NLRI is the next run of the input, capped so an
		// append to it cannot overwrite its neighbour's.
		if !slices.Equal(u.NLRI, nlri[total:total+len(u.NLRI)]) || cap(u.NLRI) != len(u.NLRI) {
			t.Fatalf("UPDATE NLRI %d..%d (cap %d) is not the input's run", total, total+len(u.NLRI), cap(u.NLRI))
		}
		total += len(u.NLRI)
		buf, err := c.Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) > MaxMsgLen {
			t.Fatalf("message %d bytes exceeds limit", len(buf))
		}
	}
	if total != 3000 {
		t.Fatalf("split lost prefixes: %d", total)
	}
}

// Property: NLRI prefix encoding round-trips for arbitrary IPv4 prefixes.
func TestPrefixCodecQuick(t *testing.T) {
	f := func(a [4]byte, bitsRaw uint8) bool {
		bits := int(bitsRaw) % 33
		p := netip.PrefixFrom(netip.AddrFrom4(a), bits).Masked()
		enc, err := marshalPrefixes([]netip.Prefix{p})
		if err != nil {
			return false
		}
		dec, err := parsePrefixes(enc)
		if err != nil || len(dec) != 1 {
			return false
		}
		return dec[0] == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: update marshal/unmarshal is the identity for generated updates.
func TestUpdateRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		c := Codec{ASN4: rng.Intn(2) == 0}
		attrs := &Attrs{
			Origin:  Origin(rng.Intn(3)),
			ASPath:  Sequence(uint32(1+rng.Intn(65000)), uint32(1+rng.Intn(65000))),
			NextHop: netip.AddrFrom4([4]byte{byte(rng.Intn(223) + 1), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}),
		}
		if rng.Intn(2) == 0 {
			attrs.MED, attrs.HasMED = uint32(rng.Intn(1000)), true
		}
		if rng.Intn(2) == 0 {
			attrs.LocalPref, attrs.HasLocalPref = uint32(rng.Intn(1000)), true
		}
		var nlri, withdrawn []netip.Prefix
		for i := 0; i < 1+rng.Intn(5); i++ {
			nlri = append(nlri, netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(1 + rng.Intn(200)), byte(rng.Intn(256)), 0, 0}), 8+rng.Intn(17)).Masked())
		}
		for i := 0; i < rng.Intn(3); i++ {
			withdrawn = append(withdrawn, netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(1 + rng.Intn(200)), 0, 0, 0}), 8).Masked())
		}
		in := &Update{Withdrawn: withdrawn, Attrs: attrs, NLRI: nlri}
		buf, err := c.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Unmarshal(buf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		u := out.(*Update)
		if !reflect.DeepEqual(u.NLRI, in.NLRI) || !reflect.DeepEqual(u.Attrs, in.Attrs) {
			t.Fatalf("trial %d mismatch", trial)
		}
	}
}

// Property: Unmarshal never panics on random bytes with a valid header
// frame.
func TestUnmarshalNeverPanicsQuick(t *testing.T) {
	f := func(body []byte, msgType uint8) bool {
		if len(body) > MaxMsgLen-HeaderLen {
			body = body[:MaxMsgLen-HeaderLen]
		}
		buf := make([]byte, HeaderLen+len(body))
		for i := 0; i < MarkerLen; i++ {
			buf[i] = 0xff
		}
		buf[16] = byte(len(buf) >> 8)
		buf[17] = byte(len(buf))
		buf[18] = msgType
		copy(buf[HeaderLen:], body)
		c := Codec{ASN4: msgType%2 == 0}
		_, _ = c.Unmarshal(buf)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestASPathHelpers(t *testing.T) {
	p := Sequence(65001, 3356)
	if p.Length() != 2 || p.First() != 65001 {
		t.Fatalf("length/first of %v", p)
	}
	p2 := p.Prepend(65000)
	if p2.Length() != 3 || p2.First() != 65000 {
		t.Fatalf("prepend: %v", p2)
	}
	if p.First() != 65001 {
		t.Fatal("prepend mutated the original")
	}
	withSet := ASPath{{Type: SegSequence, ASNs: []uint32{1, 2}}, {Type: SegSet, ASNs: []uint32{3, 4, 5}}}
	if withSet.Length() != 3 { // 2 + 1 for the set
		t.Fatalf("set length = %d", withSet.Length())
	}
	if !withSet.Contains(4) || withSet.Contains(9) {
		t.Fatal("contains")
	}
	if withSet.String() != "1 2 {3 4 5}" {
		t.Fatalf("string %q", withSet.String())
	}
	var empty ASPath
	if empty.Length() != 0 || empty.First() != 0 || empty.Clone() != nil {
		t.Fatal("empty path helpers")
	}
}

func TestCommunityString(t *testing.T) {
	if Community(65001<<16|100).String() != "65001:100" {
		t.Fatal("community rendering")
	}
}

func TestAttrsCloneIsDeep(t *testing.T) {
	a := fullAttrs()
	a.Others = []RawAttr{{Flags: flagOptional | flagTransitive, Code: 32, Data: []byte{1}}}
	b := a.Clone()
	b.ASPath[0].ASNs[0] = 999
	b.Communities[0] = 0
	b.Others[0].Data[0] = 9
	b.Aggregator.AS = 1
	if a.ASPath[0].ASNs[0] == 999 || a.Communities[0] == 0 || a.Others[0].Data[0] == 9 || a.Aggregator.AS == 1 {
		t.Fatal("clone shares storage with the original")
	}
	var nilAttrs *Attrs
	if nilAttrs.Clone() != nil {
		t.Fatal("nil clone")
	}
}

func TestAttrsEqual(t *testing.T) {
	a := fullAttrs()
	a.Others = []RawAttr{{Flags: flagOptional | flagTransitive, Code: 32, Data: []byte{1}}}
	// A deep clone is semantically equal despite fresh storage — the churn
	// filter's case: re-parsed byte-identical attributes.
	if !a.Equal(a.Clone()) || !a.Equal(a) {
		t.Fatal("semantically identical attrs compare unequal")
	}
	mutations := []func(*Attrs){
		func(b *Attrs) { b.Origin = OriginIncomplete },
		func(b *Attrs) { b.NextHop = netip.MustParseAddr("10.9.9.9") },
		func(b *Attrs) { b.MED++ },
		func(b *Attrs) { b.HasMED = !b.HasMED },
		func(b *Attrs) { b.LocalPref++ },
		func(b *Attrs) { b.ASPath = b.ASPath.Prepend(999) },
		func(b *Attrs) { b.ASPath[0].ASNs[0] = 999 },
		func(b *Attrs) { b.Communities[0]++ },
		func(b *Attrs) { b.Communities = b.Communities[:len(b.Communities)-1] },
		func(b *Attrs) { b.Aggregator = nil },
		func(b *Attrs) { b.Aggregator.AS++ },
		func(b *Attrs) { b.Others[0].Data[0] = 9 },
		func(b *Attrs) { b.Others = nil },
	}
	for i, mutate := range mutations {
		b := a.Clone()
		mutate(b)
		if a.Equal(b) {
			t.Fatalf("mutation %d not detected by Equal", i)
		}
	}
	var nilAttrs *Attrs
	if nilAttrs.Equal(a) || a.Equal(nilAttrs) || !nilAttrs.Equal(nil) {
		t.Fatal("nil handling")
	}
}

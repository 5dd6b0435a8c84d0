package openflow

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"supercharged/internal/packet"
)

var (
	vmac  = packet.MustParseMAC("02:53:43:00:00:01")
	r2mac = packet.MustParseMAC("01:aa:00:00:00:01")
)

func roundTrip(t *testing.T, msg Message, xid uint32) Message {
	t.Helper()
	buf, err := Marshal(msg, xid)
	if err != nil {
		t.Fatalf("marshal %s: %v", msg.MsgType(), err)
	}
	out, gotXID, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("unmarshal %s: %v", msg.MsgType(), err)
	}
	if gotXID != xid {
		t.Fatalf("xid %d, want %d", gotXID, xid)
	}
	if out.MsgType() != msg.MsgType() {
		t.Fatalf("type %s, want %s", out.MsgType(), msg.MsgType())
	}
	return out
}

func TestHelloEchoBarrierRoundTrip(t *testing.T) {
	roundTrip(t, &Hello{}, 1)
	roundTrip(t, &BarrierRequest{}, 2)
	roundTrip(t, &BarrierReply{}, 3)
	echo := roundTrip(t, &EchoRequest{Data: []byte("ping")}, 4).(*EchoRequest)
	if string(echo.Data) != "ping" {
		t.Fatal("echo data lost")
	}
	reply := roundTrip(t, &EchoReply{Data: []byte("pong")}, 5).(*EchoReply)
	if string(reply.Data) != "pong" {
		t.Fatal("echo reply data lost")
	}
}

func TestErrorRoundTrip(t *testing.T) {
	e := roundTrip(t, &ErrorMsg{ErrType: ErrTypeFlowModFailed, Code: 2, Data: []byte{9}}, 7).(*ErrorMsg)
	if e.ErrType != ErrTypeFlowModFailed || e.Code != 2 || !bytes.Equal(e.Data, []byte{9}) {
		t.Fatalf("error %+v", e)
	}
	if e.Error() == "" {
		t.Fatal("empty error text")
	}
}

func TestFeaturesReplyRoundTrip(t *testing.T) {
	in := &FeaturesReply{
		DatapathID: 0xabcdef, NBuffers: 256, NTables: 2, Capabilities: 0x1, Actions: 0xfff,
		Ports: []PhyPort{
			{PortNo: 1, HWAddr: r2mac, Name: "r1"},
			{PortNo: 2, Name: "r2", State: PortStateLinkDown},
		},
	}
	out := roundTrip(t, in, 9).(*FeaturesReply)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("features mismatch:\n got %+v\nwant %+v", out, in)
	}
}

func TestPacketInOutRoundTrip(t *testing.T) {
	pi := roundTrip(t, &PacketIn{BufferID: BufferNone, TotalLen: 64, InPort: 3,
		Reason: PacketInReasonNoMatch, Data: []byte{1, 2, 3}}, 11).(*PacketIn)
	if pi.InPort != 3 || pi.BufferID != BufferNone || !bytes.Equal(pi.Data, []byte{1, 2, 3}) {
		t.Fatalf("packet-in %+v", pi)
	}
	po := roundTrip(t, &PacketOut{BufferID: BufferNone, InPort: PortNone,
		Actions: []Action{ActionSetDLDst(r2mac), ActionOutput(2)},
		Data:    []byte{4, 5, 6}}, 12).(*PacketOut)
	if len(po.Actions) != 2 || po.Actions[0].MAC != r2mac || po.Actions[1].Port != 2 {
		t.Fatalf("packet-out %+v", po)
	}
	if !bytes.Equal(po.Data, []byte{4, 5, 6}) {
		t.Fatal("packet-out data lost")
	}
}

func TestFlowModRoundTrip(t *testing.T) {
	in := &FlowMod{
		Match:  MatchDLDst(vmac),
		Cookie: 0x5343, Command: FlowModify, Priority: 100,
		BufferID: BufferNone, OutPort: PortNone,
		Actions: []Action{ActionSetDLDst(r2mac), ActionOutput(1)},
	}
	out := roundTrip(t, in, 20).(*FlowMod)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("flow-mod mismatch:\n got %+v\nwant %+v", out, in)
	}
}

func TestPortStatusRoundTrip(t *testing.T) {
	in := &PortStatus{Reason: PortReasonModify, Desc: PhyPort{PortNo: 2, State: PortStateLinkDown, Name: "uplink"}}
	out := roundTrip(t, in, 30).(*PortStatus)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("port-status mismatch: %+v", out)
	}
}

func TestMatchConversionAndString(t *testing.T) {
	m := MatchDLDst(vmac)
	dp := m.ToDataplane()
	if dp.DstMAC == nil || *dp.DstMAC != vmac || dp.InPort != nil || dp.EtherType != nil {
		t.Fatalf("conversion %+v", dp)
	}
	if m.String() != "dl_dst=02:53:43:00:00:01" {
		t.Fatalf("string %q", m.String())
	}
	if MatchAll().String() != "any" {
		t.Fatal("match-all string")
	}
	full := MatchAll()
	full.Wildcards &^= WildcardInPort | WildcardDLType | WildcardDLSrc
	full.InPort = 7
	full.DLType = packet.EtherTypeARP
	full.DLSrc = r2mac
	dp = full.ToDataplane()
	if dp.InPort == nil || *dp.InPort != 7 || dp.EtherType == nil || *dp.EtherType != packet.EtherTypeARP || dp.SrcMAC == nil {
		t.Fatalf("full conversion %+v", dp)
	}
}

func TestActionConversion(t *testing.T) {
	for _, a := range []Action{ActionOutput(3), ActionSetDLDst(vmac), ActionSetDLSrc(r2mac)} {
		if _, err := a.ToDataplane(); err != nil {
			t.Fatalf("convert %v: %v", a, err)
		}
	}
	if _, err := (Action{Type: 99}).ToDataplane(); err == nil {
		t.Fatal("unknown action converted")
	}
}

func TestUnsupportedVersionRejected(t *testing.T) {
	buf, _ := Marshal(&Hello{}, 1)
	buf[0] = 0x04 // OpenFlow 1.3
	if _, _, err := Unmarshal(buf); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v", err)
	}
}

func TestTruncatedRejected(t *testing.T) {
	buf, _ := Marshal(&FlowMod{Match: MatchAll(), BufferID: BufferNone, OutPort: PortNone}, 1)
	if _, _, err := Unmarshal(buf[:HeaderLen+10]); err == nil {
		t.Fatal("truncated flow-mod accepted")
	}
}

func TestReadWriteMessageStream(t *testing.T) {
	var stream bytes.Buffer
	msgs := []Message{&Hello{}, &FeaturesRequest{}, &BarrierRequest{}}
	for i, m := range msgs {
		if err := WriteMessage(&stream, m, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, xid, err := ReadMessage(&stream)
		if err != nil {
			t.Fatal(err)
		}
		if got.MsgType() != want.MsgType() || xid != uint32(i) {
			t.Fatalf("msg %d: %s/%d", i, got.MsgType(), xid)
		}
	}
}

// Property: Unmarshal never panics on framed random bytes.
func TestUnmarshalNeverPanicsQuick(t *testing.T) {
	f := func(body []byte, msgType uint8) bool {
		if len(body) > 2048 {
			body = body[:2048]
		}
		buf := make([]byte, HeaderLen+len(body))
		buf[0] = Version
		buf[1] = msgType % 20
		buf[2] = byte(len(buf) >> 8)
		buf[3] = byte(len(buf))
		copy(buf[HeaderLen:], body)
		_, _, _ = Unmarshal(buf)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMsgTypeString(t *testing.T) {
	if TypeFlowMod.String() != "FLOW_MOD" || MsgType(77).String() != "TYPE(77)" {
		t.Fatal("type strings")
	}
}

package dataplane

import (
	"net/netip"
	"testing"

	"supercharged/internal/packet"
)

var (
	vmac    = packet.MustParseMAC("02:53:43:00:00:01")
	r2mac   = packet.MustParseMAC("01:aa:00:00:00:01")
	r3mac   = packet.MustParseMAC("02:bb:00:00:00:01")
	someSrc = packet.MustParseMAC("00:ff:00:00:00:09")
)

func frameTo(dst packet.MAC) []byte {
	buf := packet.NewBuffer()
	f, err := packet.UDPFrame(buf, someSrc, dst,
		netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("1.0.0.1"), 5000, 9, []byte("x"))
	if err != nil {
		panic(err)
	}
	return append([]byte(nil), f...)
}

func TestFlowTableBackupGroupRewrite(t *testing.T) {
	// The paper's central rule: match VMAC, rewrite to the live next-hop
	// MAC and output on its port.
	tbl := NewFlowTable()
	tbl.Upsert(Flow{
		Priority: 100,
		Match:    MatchDstMAC(vmac),
		Actions:  []Action{SetDstMAC(r2mac), Output(1)},
	})

	out, ok := tbl.Process(0, frameTo(vmac))
	if !ok || len(out) != 1 {
		t.Fatalf("process = %v, %v", out, ok)
	}
	if out[0].Port != 1 {
		t.Fatalf("egress port %d", out[0].Port)
	}
	var eth packet.Ethernet
	if err := eth.DecodeFromBytes(out[0].Frame); err != nil {
		t.Fatal(err)
	}
	if eth.Dst != r2mac {
		t.Fatalf("dst not rewritten: %s", eth.Dst)
	}

	// Failure: modify the rule to point at the backup (Listing 2).
	tbl.Upsert(Flow{
		Priority: 100,
		Match:    MatchDstMAC(vmac),
		Actions:  []Action{SetDstMAC(r3mac), Output(2)},
	})
	if tbl.Len() != 1 {
		t.Fatalf("upsert duplicated the flow: len %d", tbl.Len())
	}
	out, _ = tbl.Process(0, frameTo(vmac))
	eth.DecodeFromBytes(out[0].Frame)
	if eth.Dst != r3mac || out[0].Port != 2 {
		t.Fatalf("after rewrite: dst %s port %d", eth.Dst, out[0].Port)
	}
}

func TestFlowTableMissCountsAndDrops(t *testing.T) {
	tbl := NewFlowTable()
	out, ok := tbl.Process(0, frameTo(r2mac))
	if ok || out != nil {
		t.Fatal("miss produced output")
	}
	if tbl.Misses() != 1 {
		t.Fatalf("misses %d", tbl.Misses())
	}
}

func TestFlowTablePriorityAndTieBreak(t *testing.T) {
	tbl := NewFlowTable()
	et := packet.EtherTypeIPv4
	tbl.Upsert(Flow{Priority: 10, Match: Match{EtherType: &et}, Actions: []Action{Output(1)}, Cookie: 1})
	tbl.Upsert(Flow{Priority: 200, Match: MatchDstMAC(vmac), Actions: []Action{Output(2)}, Cookie: 2})
	// Higher priority dst-MAC rule wins over wildcard.
	out, ok := tbl.Process(0, frameTo(vmac))
	if !ok || out[0].Port != 2 {
		t.Fatalf("priority not honored: %+v %v", out, ok)
	}
	// Non-VMAC traffic falls to the wildcard rule.
	out, ok = tbl.Process(0, frameTo(r2mac))
	if !ok || out[0].Port != 1 {
		t.Fatalf("wildcard miss: %+v %v", out, ok)
	}
	// Equal priority: earliest installed wins.
	tbl2 := NewFlowTable()
	tbl2.Upsert(Flow{Priority: 5, Match: MatchDstMAC(vmac), Actions: []Action{Output(7)}})
	tbl2.Upsert(Flow{Priority: 5, Match: Match{}, Actions: []Action{Output(8)}})
	out, _ = tbl2.Process(0, frameTo(vmac))
	if out[0].Port != 7 {
		t.Fatalf("tie break chose port %d", out[0].Port)
	}
}

func TestFlowTableInPortMatch(t *testing.T) {
	tbl := NewFlowTable()
	inp := uint16(3)
	tbl.Upsert(Flow{Priority: 1, Match: Match{InPort: &inp}, Actions: []Action{Output(9)}})
	if _, ok := tbl.Process(2, frameTo(vmac)); ok {
		t.Fatal("in_port mismatch matched")
	}
	if out, ok := tbl.Process(3, frameTo(vmac)); !ok || out[0].Port != 9 {
		t.Fatal("in_port match failed")
	}
}

func TestFlowTableMultipleOutputsSeeSequentialRewrites(t *testing.T) {
	// OpenFlow semantics: an Output emits the frame as rewritten so far.
	tbl := NewFlowTable()
	tbl.Upsert(Flow{Priority: 1, Match: MatchDstMAC(vmac), Actions: []Action{
		Output(1),        // original dst
		SetDstMAC(r3mac), // rewrite
		Output(2),        // rewritten dst
		SetSrcMAC(r2mac), // second rewrite
		Output(3),        // rewritten src too
	}})
	out, ok := tbl.Process(0, frameTo(vmac))
	if !ok || len(out) != 3 {
		t.Fatalf("out = %v", out)
	}
	var eth packet.Ethernet
	eth.DecodeFromBytes(out[0].Frame)
	if eth.Dst != vmac {
		t.Fatal("first output should carry original dst")
	}
	eth.DecodeFromBytes(out[1].Frame)
	if eth.Dst != r3mac || eth.Src != someSrc {
		t.Fatal("second output should carry rewritten dst only")
	}
	eth.DecodeFromBytes(out[2].Frame)
	if eth.Dst != r3mac || eth.Src != r2mac {
		t.Fatal("third output should carry both rewrites")
	}
}

func TestFlowTableDeleteStrict(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Upsert(Flow{Priority: 5, Match: MatchDstMAC(vmac), Actions: []Action{Output(1)}})
	if tbl.Delete(MatchDstMAC(vmac), 6) {
		t.Fatal("delete with wrong priority succeeded")
	}
	if !tbl.Delete(MatchDstMAC(vmac), 5) {
		t.Fatal("strict delete failed")
	}
	if tbl.Len() != 0 {
		t.Fatalf("len %d", tbl.Len())
	}
}

func TestFlowTableDeleteByCookie(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Upsert(Flow{Priority: 1, Match: MatchDstMAC(vmac), Cookie: 7, Actions: []Action{Output(1)}})
	tbl.Upsert(Flow{Priority: 1, Match: MatchDstMAC(r2mac), Cookie: 7, Actions: []Action{Output(1)}})
	tbl.Upsert(Flow{Priority: 1, Match: Match{}, Cookie: 8, Actions: []Action{Output(1)}})
	if n := tbl.DeleteByCookie(7); n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	if tbl.Len() != 1 {
		t.Fatalf("len %d", tbl.Len())
	}
}

func TestFlowTableCounters(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Upsert(Flow{Priority: 1, Match: MatchDstMAC(vmac), Actions: []Action{Output(1)}})
	f := frameTo(vmac)
	tbl.Process(0, f)
	tbl.Process(0, f)
	flows := tbl.Flows()
	if len(flows) != 1 {
		t.Fatalf("flows %d", len(flows))
	}
	pkts, bytes := flows[0].Stats()
	if pkts != 2 || bytes != uint64(2*len(f)) {
		t.Fatalf("stats %d/%d", pkts, bytes)
	}
}

func TestFlowTableFlowsSnapshotOrdering(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Upsert(Flow{Priority: 1, Match: MatchDstMAC(r2mac), Actions: []Action{Output(1)}})
	tbl.Upsert(Flow{Priority: 9, Match: MatchDstMAC(vmac), Actions: []Action{Output(2)}})
	tbl.Upsert(Flow{Priority: 9, Match: MatchDstMAC(r3mac), Actions: []Action{Output(3)}})
	fs := tbl.Flows()
	if len(fs) != 3 || fs[0].Priority != 9 || fs[2].Priority != 1 {
		t.Fatalf("snapshot order %+v", fs)
	}
	// Equal priority ordered by installation.
	if *fs[0].Match.DstMAC != vmac {
		t.Fatal("tie order wrong in snapshot")
	}
}

func TestMatchStringAndEqual(t *testing.T) {
	m := MatchDstMAC(vmac)
	if m.String() != "dl_dst=02:53:43:00:00:01" {
		t.Fatalf("String() = %q", m.String())
	}
	if (Match{}).String() != "any" {
		t.Fatal("empty match string")
	}
	if !m.Equal(MatchDstMAC(vmac)) || m.Equal(MatchDstMAC(r2mac)) || m.Equal(Match{}) {
		t.Fatal("Equal misbehaves")
	}
}

func TestActionString(t *testing.T) {
	if Output(3).String() != "output:3" || SetDstMAC(r2mac).String() != "set_dl_dst:01:aa:00:00:00:01" {
		t.Fatal("action strings")
	}
}

func TestFlowTableGarbageFrame(t *testing.T) {
	tbl := NewFlowTable()
	if _, ok := tbl.Process(0, []byte{1, 2, 3}); ok {
		t.Fatal("garbage frame matched")
	}
}

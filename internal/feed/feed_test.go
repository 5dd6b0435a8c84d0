package feed

import (
	"net/netip"
	"reflect"
	"testing"

	"supercharged/internal/bgp"
)

func TestGenerateCountAndUniqueness(t *testing.T) {
	tbl := Generate(Config{N: 5000, Seed: 1})
	if tbl.Len() != 5000 {
		t.Fatalf("len %d", tbl.Len())
	}
	seen := make(map[netip.Prefix]bool)
	for _, r := range tbl.Routes {
		if seen[r.Prefix] {
			t.Fatalf("duplicate prefix %v", r.Prefix)
		}
		seen[r.Prefix] = true
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{N: 2000, Seed: 42})
	b := Generate(Config{N: 2000, Seed: 42})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different tables")
	}
	c := Generate(Config{N: 2000, Seed: 43})
	if reflect.DeepEqual(a.Prefixes(), c.Prefixes()) {
		t.Fatal("different seeds produced identical prefixes")
	}
}

func TestGenerateAvoidsInfrastructureSpace(t *testing.T) {
	tbl := Generate(Config{N: 20000, Seed: 7})
	bad := []netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/8"),
		netip.MustParsePrefix("127.0.0.0/8"),
		netip.MustParsePrefix("192.0.0.0/8"),
		netip.MustParsePrefix("198.0.0.0/8"),
		netip.MustParsePrefix("203.0.0.0/8"),
		netip.MustParsePrefix("224.0.0.0/3"),
	}
	for _, r := range tbl.Routes {
		for _, b := range bad {
			if b.Contains(r.Prefix.Addr()) {
				t.Fatalf("prefix %v lands in excluded space %v", r.Prefix, b)
			}
		}
	}
}

func TestGenerateLengthDistribution(t *testing.T) {
	tbl := Generate(Config{N: 50000, Seed: 3})
	counts := map[int]int{}
	for _, r := range tbl.Routes {
		counts[r.Prefix.Bits()]++
	}
	// /24s must dominate (they are ~55% of the real table).
	if frac := float64(counts[24]) / 50000; frac < 0.45 || frac > 0.65 {
		t.Fatalf("/24 fraction %.2f outside [0.45,0.65]", frac)
	}
	for bits := range counts {
		if bits < 12 || bits > 24 {
			t.Fatalf("unexpected prefix length /%d", bits)
		}
	}
}

func TestAttrsForPrependsPeer(t *testing.T) {
	tbl := Generate(Config{N: 100, Seed: 5})
	nh := netip.MustParseAddr("203.0.113.1")
	attrs := tbl.AttrsFor(tbl.Routes[0].Template, 65002, nh)
	if attrs.NextHop != nh {
		t.Fatalf("next hop %v", attrs.NextHop)
	}
	if attrs.ASPath.First() != 65002 {
		t.Fatalf("as path %v does not start with peer AS", attrs.ASPath)
	}
}

func TestUpdatesCarryWholeTable(t *testing.T) {
	tbl := Generate(Config{N: 3000, Seed: 9})
	ups, err := tbl.Updates(65002, netip.MustParseAddr("203.0.113.1"), bgp.Codec{ASN4: true})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[netip.Prefix]bool)
	for _, u := range ups {
		if u.Attrs == nil || u.Attrs.NextHop != netip.MustParseAddr("203.0.113.1") {
			t.Fatal("update without proper attrs")
		}
		for _, p := range u.NLRI {
			if got[p] {
				t.Fatalf("prefix %v announced twice", p)
			}
			got[p] = true
		}
		buf, err := (bgp.Codec{ASN4: true}).Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) > bgp.MaxMsgLen {
			t.Fatal("oversized update")
		}
	}
	if len(got) != 3000 {
		t.Fatalf("updates cover %d prefixes", len(got))
	}
	// Realistic batching: far fewer messages than prefixes.
	if len(ups) >= 3000 {
		t.Fatalf("no batching: %d messages", len(ups))
	}
}

func TestSamplePrefixesIncludesFirstAndLast(t *testing.T) {
	tbl := Generate(Config{N: 1000, Seed: 11})
	sample := tbl.SamplePrefixes(100, 1)
	if len(sample) != 100 {
		t.Fatalf("sample size %d", len(sample))
	}
	first, last := tbl.Routes[0].Prefix, tbl.Routes[len(tbl.Routes)-1].Prefix
	hasFirst, hasLast := false, false
	seen := map[netip.Prefix]bool{}
	for _, p := range sample {
		if seen[p] {
			t.Fatalf("duplicate sample %v", p)
		}
		seen[p] = true
		if p == first {
			hasFirst = true
		}
		if p == last {
			hasLast = true
		}
	}
	if !hasFirst || !hasLast {
		t.Fatal("sample must include the first and last advertised prefix")
	}
	// Deterministic given the seed.
	again := tbl.SamplePrefixes(100, 1)
	if !reflect.DeepEqual(sample, again) {
		t.Fatal("sampling not deterministic")
	}
}

func TestSamplePrefixesClamps(t *testing.T) {
	tbl := Generate(Config{N: 5, Seed: 2})
	if got := tbl.SamplePrefixes(100, 1); len(got) != 5 {
		t.Fatalf("clamped sample %d", len(got))
	}
	if got := tbl.SamplePrefixes(0, 1); got != nil {
		t.Fatal("zero sample")
	}
}

func TestWindowWrapsAround(t *testing.T) {
	tbl := Generate(Config{N: 10, Seed: 3})
	w := tbl.Window(7, 5)
	if w.Len() != 5 {
		t.Fatalf("window len %d, want 5", w.Len())
	}
	want := append(append([]Route(nil), tbl.Routes[7:]...), tbl.Routes[:2]...)
	if !reflect.DeepEqual(w.Routes, want) {
		t.Fatal("wrapped window does not match routes 7,8,9,0,1")
	}
	// Offsets are modulo the table size; full-size windows are the table.
	if got := tbl.Window(17, 5); !reflect.DeepEqual(got.Routes, w.Routes) {
		t.Fatal("offset not taken modulo table size")
	}
	// A full-size window with an offset still rotates: announcement
	// order determines the standalone FIB-walk order, so dropping the
	// rotation would silently change what a staggered-full-feed spec
	// measures.
	if got := tbl.Window(3, 100); got.Len() != 10 {
		t.Fatalf("oversized window len %d, want full table", got.Len())
	} else if !reflect.DeepEqual(got.Routes[0], tbl.Routes[3]) {
		t.Fatal("oversized window dropped its rotation")
	}
	if got := tbl.Window(0, 100); !reflect.DeepEqual(got.Routes, tbl.Routes) {
		t.Fatal("zero-offset full window must be the table itself")
	}
	if got := tbl.Window(3, 0); got.Len() != 0 {
		t.Fatalf("empty window len %d", got.Len())
	}
}

func TestGeneratePanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Generate(Config{N: 0})
}

package dataplane

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func mustPfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func mustAddr(s string) netip.Addr  { return netip.MustParseAddr(s) }

func TestLPMBasicInsertLookup(t *testing.T) {
	var l LPM[string]
	l.Insert(mustPfx("10.0.0.0/8"), "eight")
	l.Insert(mustPfx("10.1.0.0/16"), "sixteen")
	l.Insert(mustPfx("10.1.2.0/24"), "twentyfour")

	cases := []struct {
		ip   string
		want string
		pfx  string
	}{
		{"10.9.9.9", "eight", "10.0.0.0/8"},
		{"10.1.9.9", "sixteen", "10.1.0.0/16"},
		{"10.1.2.3", "twentyfour", "10.1.2.0/24"},
	}
	for _, c := range cases {
		v, p, ok := l.Lookup(mustAddr(c.ip))
		if !ok || v != c.want || p != mustPfx(c.pfx) {
			t.Errorf("Lookup(%s) = %v,%v,%v; want %v,%v", c.ip, v, p, ok, c.want, c.pfx)
		}
	}
	if _, _, ok := l.Lookup(mustAddr("11.0.0.1")); ok {
		t.Error("lookup outside table succeeded")
	}
}

func TestLPMDefaultRoute(t *testing.T) {
	var l LPM[int]
	l.Insert(mustPfx("0.0.0.0/0"), 1)
	v, p, ok := l.Lookup(mustAddr("203.0.113.1"))
	if !ok || v != 1 || p.Bits() != 0 {
		t.Fatalf("default route lookup = %v,%v,%v", v, p, ok)
	}
}

func TestLPMHostRoute(t *testing.T) {
	var l LPM[int]
	l.Insert(mustPfx("192.0.2.7/32"), 7)
	if _, _, ok := l.Lookup(mustAddr("192.0.2.8")); ok {
		t.Fatal("host route matched wrong address")
	}
	v, _, ok := l.Lookup(mustAddr("192.0.2.7"))
	if !ok || v != 7 {
		t.Fatal("host route missed")
	}
}

func TestLPMInsertReplaces(t *testing.T) {
	var l LPM[int]
	if !l.Insert(mustPfx("10.0.0.0/8"), 1) {
		t.Fatal("first insert reported replace")
	}
	if l.Insert(mustPfx("10.0.0.0/8"), 2) {
		t.Fatal("second insert reported add")
	}
	if l.Len() != 1 {
		t.Fatalf("len %d", l.Len())
	}
	v, _ := l.Get(mustPfx("10.0.0.0/8"))
	if v != 2 {
		t.Fatalf("value %d after replace", v)
	}
}

func TestLPMMaskedCanonicalization(t *testing.T) {
	var l LPM[int]
	// Non-canonical prefix (host bits set) must behave as its masked form.
	l.Insert(netip.PrefixFrom(mustAddr("10.1.2.3"), 16), 5)
	v, ok := l.Get(mustPfx("10.1.0.0/16"))
	if !ok || v != 5 {
		t.Fatal("unmasked insert not canonicalized")
	}
}

func TestLPMDeleteAndPrune(t *testing.T) {
	var l LPM[int]
	l.Insert(mustPfx("10.0.0.0/8"), 1)
	l.Insert(mustPfx("10.1.0.0/16"), 2)
	if !l.Delete(mustPfx("10.1.0.0/16")) {
		t.Fatal("delete failed")
	}
	if l.Delete(mustPfx("10.1.0.0/16")) {
		t.Fatal("double delete succeeded")
	}
	if l.Len() != 1 {
		t.Fatalf("len %d", l.Len())
	}
	// The /8 must still match where the /16 used to.
	v, _, ok := l.Lookup(mustAddr("10.1.2.3"))
	if !ok || v != 1 {
		t.Fatal("covering route lost after delete")
	}
	// Deleting a never-inserted prefix on an empty subtree.
	if l.Delete(mustPfx("172.16.0.0/12")) {
		t.Fatal("delete of absent prefix succeeded")
	}
}

func TestLPMWalkOrderAndStop(t *testing.T) {
	var l LPM[int]
	ps := []string{"10.0.0.0/8", "10.0.0.0/16", "10.128.0.0/9", "192.168.0.0/16"}
	for i, s := range ps {
		l.Insert(mustPfx(s), i)
	}
	var got []string
	l.Walk(func(p netip.Prefix, v int) bool {
		got = append(got, p.String())
		return true
	})
	want := []string{"10.0.0.0/8", "10.0.0.0/16", "10.128.0.0/9", "192.168.0.0/16"}
	if len(got) != len(want) {
		t.Fatalf("walk visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk order %v, want %v", got, want)
		}
	}
	count := 0
	l.Walk(func(netip.Prefix, int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestLPMPanicsOnIPv6(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for IPv6 prefix")
		}
	}()
	var l LPM[int]
	l.Insert(netip.MustParsePrefix("2001:db8::/32"), 1)
}

func TestLPMLookupIPv6ReturnsFalse(t *testing.T) {
	var l LPM[int]
	l.Insert(mustPfx("0.0.0.0/0"), 1)
	if _, _, ok := l.Lookup(netip.MustParseAddr("2001:db8::1")); ok {
		t.Fatal("IPv6 lookup matched IPv4 table")
	}
}

// Property: Lookup agrees with a brute-force scan over the inserted
// prefixes, for random tables and random probe addresses.
func TestLPMAgreesWithBruteForceQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var l LPM[int]
		type entry struct {
			p netip.Prefix
			v int
		}
		var entries []entry
		n := 1 + r.Intn(200)
		for i := 0; i < n; i++ {
			bits := r.Intn(33)
			raw := [4]byte{byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))}
			p := netip.PrefixFrom(netip.AddrFrom4(raw), bits).Masked()
			l.Insert(p, i)
			replaced := false
			for j := range entries {
				if entries[j].p == p {
					entries[j].v = i
					replaced = true
					break
				}
			}
			if !replaced {
				entries = append(entries, entry{p, i})
			}
		}
		for probe := 0; probe < 100; probe++ {
			ip := netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
			bestLen, bestVal, found := -1, 0, false
			for _, e := range entries {
				if e.p.Contains(ip) && e.p.Bits() > bestLen {
					bestLen, bestVal, found = e.p.Bits(), e.v, true
				}
			}
			v, p, ok := l.Lookup(ip)
			if ok != found {
				return false
			}
			if ok && (v != bestVal || p.Bits() != bestLen) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: after inserting then deleting everything, the table is empty
// and lookups miss.
func TestLPMInsertDeleteAllQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var l LPM[int]
		var ps []netip.Prefix
		for i := 0; i < 100; i++ {
			bits := 1 + r.Intn(32)
			raw := [4]byte{byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))}
			p := netip.PrefixFrom(netip.AddrFrom4(raw), bits).Masked()
			if l.Insert(p, i) {
				ps = append(ps, p)
			}
		}
		for _, p := range ps {
			if !l.Delete(p) {
				return false
			}
		}
		if l.Len() != 0 {
			return false
		}
		_, _, ok := l.Lookup(netip.AddrFrom4([4]byte{1, 2, 3, 4}))
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Package feed generates deterministic synthetic Internet routing tables,
// standing in for the RIPE RIS dumps the paper loads into R2 and R3 (§4):
// realistic prefix-length mix, shared AS-path templates (so UPDATEs batch
// like real feeds), MEDs and communities. The same Table rendered for two
// different peers yields the same prefix set with different next-hops —
// exactly the experiment's setup.
package feed

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"

	"supercharged/internal/bgp"
)

// Config parameterizes table generation.
type Config struct {
	// N is the number of distinct prefixes (the paper sweeps 1k..500k).
	N int
	// Seed makes generation reproducible; same seed, same table.
	Seed int64
	// Templates is the number of distinct attribute templates (0 = N/50,
	// min 1). Routes sharing a template batch into shared UPDATEs.
	Templates int
}

// Route is one prefix with its attribute template index.
type Route struct {
	Prefix   netip.Prefix
	Template int
}

// Template is a shareable attribute set (before per-peer rewriting).
type Template struct {
	ASPath      bgp.ASPath
	Origin      bgp.Origin
	MED         uint32
	HasMED      bool
	Communities []bgp.Community
}

// Table is a generated routing table.
type Table struct {
	Routes    []Route
	Templates []Template
}

// excludedFirstOctets are /8s never generated: test-bed infrastructure
// (10/8 hosts the virtual next-hop pool; 192.0.2, 198.51.100, 203.0.113
// live inside 192/198/203 but excluding the whole /8 keeps it simple),
// loopback, link-local carriers and multicast.
var excludedFirstOctets = map[int]bool{
	0: true, 10: true, 127: true, 169: true, 172: true,
	192: true, 198: true, 203: true,
}

// prefixLengthWeights approximates the real table's length distribution.
var prefixLengthWeights = []struct {
	bits   int
	weight int
}{
	{24, 550}, {23, 80}, {22, 100}, {21, 60}, {20, 70},
	{19, 50}, {18, 30}, {17, 20}, {16, 30}, {15, 4}, {14, 3}, {13, 2}, {12, 1},
}

// Generate builds a table of cfg.N unique prefixes. It panics on N <= 0.
func Generate(cfg Config) *Table {
	if cfg.N <= 0 {
		panic(fmt.Sprintf("feed: invalid N %d", cfg.N))
	}
	nTemplates := cfg.Templates
	if nTemplates <= 0 {
		nTemplates = cfg.N / 50
	}
	if nTemplates < 1 {
		nTemplates = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	t := &Table{Templates: make([]Template, nTemplates)}
	for i := range t.Templates {
		t.Templates[i] = genTemplate(rng)
	}

	totalWeight := 0
	for _, w := range prefixLengthWeights {
		totalWeight += w.weight
	}

	// Every generated prefix is IPv4, so one uint64 (address, length)
	// keys it: netip.Prefix carries a pointer, which the collector scans
	// and the map hashes generically.
	seen := make(map[uint64]struct{}, cfg.N)
	t.Routes = make([]Route, 0, cfg.N)
	// Templates are assigned in bursty runs, the way real feeds arrive:
	// consecutive routes of one template render as one batched UPDATE
	// (Updates/StreamUpdates flush per run). Per-route random templates
	// would shred a 1M-prefix feed into a million single-prefix messages.
	template, runLeft := 0, 0
	for len(t.Routes) < cfg.N {
		p := genPrefix(rng, totalWeight)
		a := p.Addr().As4()
		k := uint64(binary.BigEndian.Uint32(a[:]))<<8 | uint64(p.Bits())
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		if runLeft == 0 {
			template = rng.Intn(nTemplates)
			runLeft = 16 + rng.Intn(69) // run length 16..84, mean ~50
		}
		runLeft--
		t.Routes = append(t.Routes, Route{Prefix: p, Template: template})
	}
	return t
}

func genPrefix(rng *rand.Rand, totalWeight int) netip.Prefix {
	bits := 24
	w := rng.Intn(totalWeight)
	for _, lw := range prefixLengthWeights {
		if w < lw.weight {
			bits = lw.bits
			break
		}
		w -= lw.weight
	}
	for {
		first := 1 + rng.Intn(223)
		if excludedFirstOctets[first] {
			continue
		}
		raw := [4]byte{byte(first), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
		return netip.PrefixFrom(netip.AddrFrom4(raw), bits).Masked()
	}
}

func genTemplate(rng *rand.Rand) Template {
	tmpl := Template{Origin: bgp.OriginIGP}
	if rng.Intn(10) == 0 {
		tmpl.Origin = bgp.OriginIncomplete
	}
	pathLen := 1 + rng.Intn(5)
	asns := make([]uint32, pathLen)
	for i := range asns {
		asns[i] = uint32(1000 + rng.Intn(64000))
	}
	tmpl.ASPath = bgp.Sequence(asns...)
	if rng.Intn(10) < 3 {
		tmpl.MED, tmpl.HasMED = uint32(rng.Intn(200)), true
	}
	for i := rng.Intn(3); i > 0; i-- {
		tmpl.Communities = append(tmpl.Communities,
			bgp.Community(uint32(1000+rng.Intn(64000))<<16|uint32(rng.Intn(1000))))
	}
	return tmpl
}

// Prefixes returns the prefixes in announcement order. Index 0 is "the
// first prefix advertised" and index len-1 the last, which the paper's
// probe selection explicitly includes.
func (t *Table) Prefixes() []netip.Prefix {
	out := make([]netip.Prefix, len(t.Routes))
	for i, r := range t.Routes {
		out[i] = r.Prefix
	}
	return out
}

// Len returns the number of routes.
func (t *Table) Len() int { return len(t.Routes) }

// AttrsFor renders a template as announced by a peer: the peer's AS is
// prepended and the next-hop set to the peer's address.
func (t *Table) AttrsFor(template int, peerAS uint32, nextHop netip.Addr) *bgp.Attrs {
	tmpl := t.Templates[template]
	return &bgp.Attrs{
		Origin:      tmpl.Origin,
		ASPath:      tmpl.ASPath.Prepend(peerAS),
		NextHop:     nextHop,
		MED:         tmpl.MED,
		HasMED:      tmpl.HasMED,
		Communities: append([]bgp.Community(nil), tmpl.Communities...),
	}
}

// Updates renders the full table as the batched UPDATE stream peer (AS,
// nextHop) would send, preserving announcement order within each template
// batch and respecting the 4096-byte message limit.
//
// The whole stream is materialized at once: at full-table scale (~1M
// prefixes) prefer StreamUpdates, which yields the same messages one at a
// time in the same order without holding the entire rendered feed in
// memory.
func (t *Table) Updates(peerAS uint32, nextHop netip.Addr, codec bgp.Codec) ([]*bgp.Update, error) {
	var out []*bgp.Update
	err := t.StreamUpdates(peerAS, nextHop, codec, func(u *bgp.Update) error {
		out = append(out, u)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// StreamUpdates renders the feed as Updates does — same batching, same
// order, same messages — but hands each UPDATE to fn as soon as it is
// built instead of materializing the whole stream. Only one template
// batch is ever in memory at a time, which is what lets the simulator
// load 1M-prefix per-peer feeds without a per-peer copy of the rendered
// table. fn must not retain the update's slices beyond its own call
// unless it owns them (the simulator applies each update synchronously).
// A non-nil error from fn aborts the stream and is returned.
func (t *Table) StreamUpdates(peerAS uint32, nextHop netip.Addr, codec bgp.Codec, fn func(*bgp.Update) error) error {
	// Group consecutive routes by template to mimic real feed batching
	// while keeping a deterministic global order. Rendered attributes are
	// cached per template for the duration of this stream, so a template
	// recurring across many runs is rendered once — and downstream
	// interners recognize it by pointer.
	attrsCache := make(map[int]*bgp.Attrs)
	var runStart int
	flush := func(end int) error {
		if runStart >= end {
			return nil
		}
		tmplIdx := t.Routes[runStart].Template
		attrs := attrsCache[tmplIdx]
		if attrs == nil {
			attrs = t.AttrsFor(tmplIdx, peerAS, nextHop)
			attrsCache[tmplIdx] = attrs
		}
		nlri := make([]netip.Prefix, 0, end-runStart)
		for _, r := range t.Routes[runStart:end] {
			nlri = append(nlri, r.Prefix)
		}
		ups, err := bgp.SplitUpdates(attrs, nlri, codec)
		if err != nil {
			return err
		}
		for _, u := range ups {
			if err := fn(u); err != nil {
				return err
			}
		}
		runStart = end
		return nil
	}
	for i := 1; i <= len(t.Routes); i++ {
		if i == len(t.Routes) || t.Routes[i].Template != t.Routes[i-1].Template {
			if err := flush(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// Head returns a view of the first n routes as a Table sharing the
// receiver's templates — a smaller peer feed over the same prefix space,
// used for topologies where providers advertise tables of different
// sizes. n outside [0, Len] is clamped; the view must not be mutated.
func (t *Table) Head(n int) *Table {
	if n <= 0 {
		n = 0
	}
	if n > len(t.Routes) {
		n = len(t.Routes)
	}
	return &Table{Routes: t.Routes[:n], Templates: t.Templates}
}

// Window returns a view of n routes starting at offset, wrapping around
// the end of the table, as a Table sharing the receiver's templates. Two
// peers with staggered windows cover overlapping-but-different slices of
// the prefix space — the per-prefix path-set diversity that makes a
// many-peer fabric allocate many distinct backup-groups (nested Head
// views can never produce more than one group per topology position).
// n outside [0, Len] is clamped; offset is taken modulo Len; the view
// must not be mutated.
func (t *Table) Window(offset, n int) *Table {
	if len(t.Routes) == 0 || n <= 0 {
		return &Table{Templates: t.Templates}
	}
	if n > len(t.Routes) {
		n = len(t.Routes)
	}
	offset %= len(t.Routes)
	if offset < 0 {
		offset += len(t.Routes)
	}
	if offset == 0 && n == len(t.Routes) {
		return &Table{Routes: t.Routes, Templates: t.Templates}
	}
	if offset+n <= len(t.Routes) {
		return &Table{Routes: t.Routes[offset : offset+n], Templates: t.Templates}
	}
	routes := make([]Route, 0, n)
	routes = append(routes, t.Routes[offset:]...)
	routes = append(routes, t.Routes[:n-(len(t.Routes)-offset)]...)
	return &Table{Routes: routes, Templates: t.Templates}
}

// SamplePrefixes picks n probe prefixes the way the paper does: "randomly
// selected among the IP prefixes advertised, and including the first and
// last prefix advertised". Deterministic for a given seed.
func (t *Table) SamplePrefixes(n int, seed int64) []netip.Prefix {
	if n <= 0 || len(t.Routes) == 0 {
		return nil
	}
	if n > len(t.Routes) {
		n = len(t.Routes)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]netip.Prefix, 0, n)
	seen := make(map[int]bool, n)
	pick := func(i int) {
		if !seen[i] {
			seen[i] = true
			out = append(out, t.Routes[i].Prefix)
		}
	}
	pick(0)
	if n > 1 {
		pick(len(t.Routes) - 1)
	}
	for len(out) < n {
		pick(rng.Intn(len(t.Routes)))
	}
	return out
}

package core

import (
	"net/netip"
	"testing"

	"supercharged/internal/bgp"
	"supercharged/internal/packet"
)

func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }
func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

var (
	r2 = addr("203.0.113.1")   // primary provider (cheap)
	r3 = addr("198.51.100.2")  // backup provider
	r4 = addr("198.51.100.77") // third provider for k=3 tests

	peerR2 = bgp.PeerMeta{Addr: r2, AS: 65002, ID: r2, Weight: 100}
	peerR3 = bgp.PeerMeta{Addr: r3, AS: 65003, ID: r3, Weight: 50}
	peerR4 = bgp.PeerMeta{Addr: r4, AS: 65004, ID: r4, Weight: 10}

	r2mac = packet.MustParseMAC("01:aa:00:00:00:01")
	r3mac = packet.MustParseMAC("02:bb:00:00:00:01")
	r4mac = packet.MustParseMAC("03:cc:00:00:00:01")
)

func announceFrom(nh netip.Addr, as uint32, prefixes ...string) *bgp.Update {
	u := &bgp.Update{Attrs: &bgp.Attrs{Origin: bgp.OriginIGP, ASPath: bgp.Sequence(as), NextHop: nh}}
	for _, s := range prefixes {
		u.NLRI = append(u.NLRI, pfx(s))
	}
	return u
}

func withdrawFrom(prefixes ...string) *bgp.Update {
	u := &bgp.Update{}
	for _, s := range prefixes {
		u.Withdrawn = append(u.Withdrawn, pfx(s))
	}
	return u
}

// --- VNH pool ---

func TestVNHPoolSequentialAssignsDistinct(t *testing.T) {
	p := NewVNHPool(AllocSequential)
	a1, m1, err := p.Alloc([]netip.Addr{r2, r3})
	if err != nil {
		t.Fatal(err)
	}
	a2, m2, err := p.Alloc([]netip.Addr{r3, r2})
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 || m1 == m2 {
		t.Fatal("distinct tuples share VNH/VMAC")
	}
	// Same tuple: stable result.
	a1b, m1b, _ := p.Alloc([]netip.Addr{r2, r3})
	if a1b != a1 || m1b != m1 {
		t.Fatal("repeat alloc not stable")
	}
	if p.InUse() != 2 {
		t.Fatalf("in use %d", p.InUse())
	}
	if !DefaultVNHBase.Contains(a1) {
		t.Fatalf("VNH %v outside pool", a1)
	}
}

func TestVNHPoolDeterministicAgreesAcrossOrder(t *testing.T) {
	// Two replicas see the same groups in different order; deterministic
	// mode must assign identical VNHs, sequential mode must not (in
	// general) — the paper's §3 no-state-sync argument, hardened.
	tuples := [][]netip.Addr{{r2, r3}, {r3, r2}, {r2, r4}, {r4, r2}, {r3, r4}, {r4, r3}}

	allocAll := func(mode AllocMode, order []int) map[string]netip.Addr {
		p := NewVNHPool(mode)
		out := make(map[string]netip.Addr)
		for _, i := range order {
			a, _, err := p.Alloc(tuples[i])
			if err != nil {
				t.Fatal(err)
			}
			out[groupKeyOf(tuples[i])] = a
		}
		return out
	}
	fwd := []int{0, 1, 2, 3, 4, 5}
	rev := []int{5, 4, 3, 2, 1, 0}

	detA, detB := allocAll(AllocDeterministic, fwd), allocAll(AllocDeterministic, rev)
	for k, v := range detA {
		if detB[k] != v {
			t.Fatalf("deterministic replicas disagree on %s: %v vs %v", k, v, detB[k])
		}
	}
	seqA, seqB := allocAll(AllocSequential, fwd), allocAll(AllocSequential, rev)
	same := true
	for k, v := range seqA {
		if seqB[k] != v {
			same = false
		}
	}
	if same {
		t.Fatal("sequential replicas agreed under reversed order — test topology too small?")
	}
}

func TestVMACIsLocalUnicastAndDeterministic(t *testing.T) {
	_, m1, _ := NewVNHPool(AllocSequential).Alloc([]netip.Addr{r2, r3})
	_, m2, _ := NewVNHPool(AllocDeterministic).Alloc([]netip.Addr{r2, r3})
	if m1 != m2 {
		t.Fatal("VMAC must not depend on allocation mode")
	}
	if !m1.IsLocal() || m1.IsMulticast() {
		t.Fatalf("VMAC %s not locally-administered unicast", m1)
	}
}

func TestVNHPoolExhaustion(t *testing.T) {
	p := &VNHPool{Mode: AllocSequential, Base: netip.MustParsePrefix("10.200.0.0/30")}
	// /30 → 3 usable slots.
	seen := map[netip.Addr]bool{}
	for i := 0; i < 3; i++ {
		nh := netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
		a, _, err := p.Alloc([]netip.Addr{nh, r3})
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if seen[a] {
			t.Fatal("duplicate VNH")
		}
		seen[a] = true
	}
	if _, _, err := p.Alloc([]netip.Addr{addr("10.9.9.9"), r3}); err == nil {
		t.Fatal("exhausted pool allocated")
	}
	// Release frees a slot.
	for a := range seen {
		p.Release(a)
		break
	}
	if _, _, err := p.Alloc([]netip.Addr{addr("10.9.9.9"), r3}); err != nil {
		t.Fatalf("alloc after release: %v", err)
	}
}

// --- group table ---

func TestGroupTableEnsureAndLookups(t *testing.T) {
	gt := NewGroupTable(nil)
	g, err := gt.Ensure(r2, r3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Primary() != r2 || g.Backup() != r3 {
		t.Fatalf("group %v", g)
	}
	byVNH, ok := gt.ByVNH(g.VNH)
	if !ok || byVNH.VMAC != g.VMAC {
		t.Fatal("ByVNH lookup failed")
	}
	if _, ok := gt.ByVNH(addr("10.200.99.99")); ok {
		t.Fatal("phantom VNH resolved")
	}
	if got, ok := gt.Get(r2, r3); !ok || got.VNH != g.VNH {
		t.Fatal("Get failed")
	}
	// A hand-built Group (no cached key) renders the minted group's key.
	if hand := (Group{NHs: []netip.Addr{r2, r3}}); hand.Key() != g.Key() {
		t.Fatalf("cached key %q != computed key %q", g.Key(), hand.Key())
	}
	if gt.Len() != 1 {
		t.Fatalf("len %d", gt.Len())
	}
	if _, err := gt.Ensure(r2); err == nil {
		t.Fatal("singleton tuple accepted")
	}
}

func TestGroupTableWithPrimaryAndContaining(t *testing.T) {
	gt := NewGroupTable(nil)
	gt.Ensure(r2, r3)
	gt.Ensure(r2, r4)
	gt.Ensure(r3, r2)
	if got := gt.WithPrimary(r2); len(got) != 2 {
		t.Fatalf("WithPrimary(r2) = %d groups", len(got))
	}
	if got := gt.Containing(r2); len(got) != 3 {
		t.Fatalf("Containing(r2) = %d groups", len(got))
	}
	if got := gt.WithPrimary(r4); len(got) != 0 {
		t.Fatalf("WithPrimary(r4) = %d groups", len(got))
	}
}

func TestGroupCountMatchesPaperFormula(t *testing.T) {
	// §2: with n peers the number of possible backup-groups is
	// n!/(n-2)! = n(n-1); e.g. 90 for 10 peers.
	for _, n := range []int{2, 3, 5, 10} {
		gt := NewGroupTable(NewVNHPool(AllocDeterministic))
		peers := make([]netip.Addr, n)
		for i := range peers {
			peers[i] = netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)})
		}
		for _, a := range peers {
			for _, b := range peers {
				if a != b {
					if _, err := gt.Ensure(a, b); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if want := n * (n - 1); gt.Len() != want {
			t.Fatalf("n=%d: %d groups, want %d", n, gt.Len(), want)
		}
	}
}

// --- processor (Listing 1) ---

func TestProcessorSinglePathAnnouncedAsIs(t *testing.T) {
	p := NewProcessor(nil, nil)
	out, err := p.Process(peerR2, announceFrom(r2, 65002, "1.0.0.0/24"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0].NLRI) != 1 {
		t.Fatalf("out %v", out)
	}
	if out[0].Attrs.NextHop != r2 {
		t.Fatalf("single-path NH rewritten to %v", out[0].Attrs.NextHop)
	}
	if p.Groups().Len() != 0 {
		t.Fatal("group allocated for single-path prefix")
	}
}

func TestProcessorSecondPathTriggersVNHRewrite(t *testing.T) {
	p := NewProcessor(nil, nil)
	var newGroups []Group
	p.OnNewGroup = func(g Group) error { newGroups = append(newGroups, g); return nil }

	p.Process(peerR2, announceFrom(r2, 65002, "1.0.0.0/24"))
	out, err := p.Process(peerR3, announceFrom(r3, 65003, "1.0.0.0/24"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("out %v", out)
	}
	if len(newGroups) != 1 {
		t.Fatalf("groups created: %d", len(newGroups))
	}
	g := newGroups[0]
	if g.Primary() != r2 || g.Backup() != r3 {
		t.Fatalf("group %v; want primary R2 (higher weight)", g)
	}
	if out[0].Attrs.NextHop != g.VNH {
		t.Fatalf("announced NH %v, want VNH %v", out[0].Attrs.NextHop, g.VNH)
	}
	// The original attributes must otherwise survive (transparent
	// interposition).
	if out[0].Attrs.ASPath.First() != 65002 {
		t.Fatalf("as-path %v lost", out[0].Attrs.ASPath)
	}
	nh, virtual, ok := p.Advertised(pfx("1.0.0.0/24"))
	if !ok || !virtual || nh != g.VNH {
		t.Fatalf("advertised state %v %v %v", nh, virtual, ok)
	}
}

func TestProcessorSharedGroupAcrossPrefixes(t *testing.T) {
	// All 512k prefixes in Fig. 2 share ONE backup-group; verify the
	// group is allocated once and refcounted per prefix.
	p := NewProcessor(nil, nil)
	p.Process(peerR2, announceFrom(r2, 65002, "1.0.0.0/24", "2.0.0.0/24", "3.0.0.0/24"))
	out, err := p.Process(peerR3, announceFrom(r3, 65003, "1.0.0.0/24", "2.0.0.0/24", "3.0.0.0/24"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Groups().Len() != 1 {
		t.Fatalf("%d groups, want 1", p.Groups().Len())
	}
	g := p.Groups().All()[0]
	if g.Prefixes != 3 {
		t.Fatalf("group refcount %d, want 3", g.Prefixes)
	}
	// Batching: the three same-attrs announcements collapse.
	total := 0
	for _, u := range out {
		total += len(u.NLRI)
	}
	if total != 3 {
		t.Fatalf("announced %d prefixes", total)
	}
	if len(out) != 1 {
		t.Fatalf("expected 1 batched update, got %d", len(out))
	}
}

func TestProcessorSuppressesNoOpUpdates(t *testing.T) {
	p := NewProcessor(nil, nil)
	p.Process(peerR2, announceFrom(r2, 65002, "1.0.0.0/24"))
	p.Process(peerR3, announceFrom(r3, 65003, "1.0.0.0/24"))
	// R3 re-announces the identical route: ranking unchanged, best path
	// object unchanged → nothing to send.
	out, err := p.Process(peerR3, announceFrom(r3, 65003, "1.0.0.0/24"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		// The replacement path object differs, so one re-announcement is
		// acceptable; what matters is the NH stays the same VNH.
		t.Logf("note: %d updates emitted", len(out))
	}
	if len(out) > 0 && out[0].Attrs != nil {
		g, _ := p.Groups().Get(r2, r3)
		if out[0].Attrs.NextHop != g.VNH {
			t.Fatal("re-announcement changed the VNH")
		}
	}
}

func TestProcessorWithdrawBackupKeepsPlainAnnouncement(t *testing.T) {
	p := NewProcessor(nil, nil)
	p.Process(peerR2, announceFrom(r2, 65002, "1.0.0.0/24"))
	p.Process(peerR3, announceFrom(r3, 65003, "1.0.0.0/24"))
	// Backup disappears: back to single path, announced with the real NH.
	out, err := p.Process(peerR3, withdrawFrom("1.0.0.0/24"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Attrs == nil {
		t.Fatalf("out %v", out)
	}
	if out[0].Attrs.NextHop != r2 {
		t.Fatalf("NH %v, want real R2", out[0].Attrs.NextHop)
	}
	// Group stays allocated (stable VNH) but with zero members.
	g, _ := p.Groups().Get(r2, r3)
	if g.Prefixes != 0 {
		t.Fatalf("refcount %d", g.Prefixes)
	}
}

func TestProcessorFullWithdrawSendsWithdraw(t *testing.T) {
	p := NewProcessor(nil, nil)
	p.Process(peerR2, announceFrom(r2, 65002, "1.0.0.0/24"))
	out, err := p.Process(peerR2, withdrawFrom("1.0.0.0/24"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0].Withdrawn) != 1 || out[0].Attrs != nil {
		t.Fatalf("out %v", out)
	}
	if p.AdvertisedCount() != 0 {
		t.Fatal("state leaked")
	}
}

func TestProcessorBackupChangeReallocatesGroup(t *testing.T) {
	p := NewProcessor(nil, nil)
	p.Process(peerR2, announceFrom(r2, 65002, "1.0.0.0/24"))
	p.Process(peerR3, announceFrom(r3, 65003, "1.0.0.0/24"))
	g1, _ := p.Groups().Get(r2, r3)

	// A better backup appears (r4 with weight 10 < r3's 50 — r3 stays
	// backup). Then r3 withdraws: the backup becomes r4 → new group, new
	// VNH announced.
	p.Process(peerR4, announceFrom(r4, 65004, "1.0.0.0/24"))
	out, err := p.Process(peerR3, withdrawFrom("1.0.0.0/24"))
	if err != nil {
		t.Fatal(err)
	}
	g2, ok := p.Groups().Get(r2, r4)
	if !ok {
		t.Fatal("new group not created")
	}
	if g2.VNH == g1.VNH {
		t.Fatal("distinct groups share a VNH")
	}
	if len(out) != 1 || out[0].Attrs.NextHop != g2.VNH {
		t.Fatalf("router not repointed to new VNH: %v", out)
	}
}

func TestProcessorPeerDownWithdrawsEverything(t *testing.T) {
	p := NewProcessor(nil, nil)
	p.Process(peerR2, announceFrom(r2, 65002, "1.0.0.0/24", "2.0.0.0/24"))
	p.Process(peerR3, announceFrom(r3, 65003, "1.0.0.0/24"))
	out, err := p.PeerDown(r2)
	if err != nil {
		t.Fatal(err)
	}
	// 1.0.0.0/24 falls back to plain R3; 2.0.0.0/24 is withdrawn.
	var sawPlain, sawWithdraw bool
	for _, u := range out {
		if u.Attrs != nil && u.Attrs.NextHop == r3 {
			sawPlain = true
		}
		if len(u.Withdrawn) == 1 && u.Withdrawn[0] == pfx("2.0.0.0/24") {
			sawWithdraw = true
		}
	}
	if !sawPlain || !sawWithdraw {
		t.Fatalf("peer-down stream wrong: %v", out)
	}
}

func TestProcessorGroupSize3(t *testing.T) {
	p := NewProcessor(nil, nil)
	p.GroupSize = 3
	p.Process(peerR2, announceFrom(r2, 65002, "1.0.0.0/24"))
	p.Process(peerR3, announceFrom(r3, 65003, "1.0.0.0/24"))
	p.Process(peerR4, announceFrom(r4, 65004, "1.0.0.0/24"))
	gs := p.Groups().All()
	// The final group must be the k=3 tuple (r2, r3, r4).
	var found bool
	for _, g := range gs {
		if len(g.NHs) == 3 && g.NHs[0] == r2 && g.NHs[1] == r3 && g.NHs[2] == r4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no k=3 group: %v", gs)
	}
}

// --- engine (Listing 2) ---

type recordingPusher struct {
	pushes []RuleTarget
}

func (r *recordingPusher) PushGroupRule(g Group, target PeerPort) error {
	r.pushes = append(r.pushes, RuleTarget{Group: g, Target: target})
	return nil
}

func newEngineFixture(t *testing.T) (*GroupTable, *Engine, *recordingPusher) {
	t.Helper()
	gt := NewGroupTable(nil)
	rec := &recordingPusher{}
	e := NewEngine(gt, rec)
	e.RegisterPeer(PeerPort{NH: r2, MAC: r2mac, Port: 1})
	e.RegisterPeer(PeerPort{NH: r3, MAC: r3mac, Port: 2})
	e.RegisterPeer(PeerPort{NH: r4, MAC: r4mac, Port: 3})
	return gt, e, rec
}

func TestEngineInstallsPrimaryRule(t *testing.T) {
	gt, e, rec := newEngineFixture(t)
	g, _ := gt.Ensure(r2, r3)
	if err := e.InstallGroup(g); err != nil {
		t.Fatal(err)
	}
	if len(rec.pushes) != 1 {
		t.Fatalf("pushes %d", len(rec.pushes))
	}
	got := rec.pushes[0]
	if got.Target.MAC != r2mac || got.Target.Port != 1 {
		t.Fatalf("initial rule targets %+v, want R2", got.Target)
	}
	if cur, _ := e.CurrentTarget(g); cur != r2 {
		t.Fatalf("current target %v", cur)
	}
}

func TestEnginePeerDownRewritesToBackup(t *testing.T) {
	// Listing 2: upon failure of R2, rewrite (00:ff) to (02:bb, 2).
	gt, e, rec := newEngineFixture(t)
	g, _ := gt.Ensure(r2, r3)
	e.InstallGroup(g)
	rec.pushes = nil

	n, err := e.PeerDown(r2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || len(rec.pushes) != 1 {
		t.Fatalf("rewrites %d pushes %d", n, len(rec.pushes))
	}
	got := rec.pushes[0]
	if got.Target.MAC != r3mac || got.Target.Port != 2 {
		t.Fatalf("failover rule targets %+v, want R3", got.Target)
	}
	if e.Rewrites() != 1 {
		t.Fatalf("rewrite counter %d", e.Rewrites())
	}
	// Idempotent: second PeerDown is a no-op.
	if n, _ := e.PeerDown(r2); n != 0 {
		t.Fatalf("duplicate PeerDown rewrote %d rules", n)
	}
}

func TestEngineRewritesOnlyAffectedGroups(t *testing.T) {
	// Worst case rewrite count is the number of peers, not prefixes.
	gt, e, rec := newEngineFixture(t)
	g1, _ := gt.Ensure(r2, r3)
	g2, _ := gt.Ensure(r3, r2) // primary r3: unaffected by r2 failure
	g3, _ := gt.Ensure(r2, r4)
	for _, g := range []Group{g1, g2, g3} {
		e.InstallGroup(g)
	}
	rec.pushes = nil
	n, err := e.PeerDown(r2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("rewrote %d groups, want 2 (g1, g3)", n)
	}
	for _, p := range rec.pushes {
		if p.Target.NH == r2 {
			t.Fatal("rule still targets the dead peer")
		}
	}
	if cur, _ := e.CurrentTarget(g2); cur != r3 {
		t.Fatal("unaffected group was touched")
	}
}

func TestEnginePeerUpRestoresPrimary(t *testing.T) {
	gt, e, rec := newEngineFixture(t)
	g, _ := gt.Ensure(r2, r3)
	e.InstallGroup(g)
	e.PeerDown(r2)
	rec.pushes = nil
	n, err := e.PeerUp(r2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d rules", n)
	}
	if rec.pushes[0].Target.NH != r2 {
		t.Fatalf("restore target %v", rec.pushes[0].Target.NH)
	}
	if n, _ := e.PeerUp(r2); n != 0 {
		t.Fatal("duplicate PeerUp not idempotent")
	}
}

func TestEngineK3DoubleFailure(t *testing.T) {
	// Ablation A2: with k=3 the group survives primary AND first backup
	// failing.
	gt, e, rec := newEngineFixture(t)
	g, _ := gt.Ensure(r2, r3, r4)
	e.InstallGroup(g)
	e.PeerDown(r2)
	rec.pushes = nil
	n, err := e.PeerDown(r3)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || rec.pushes[0].Target.NH != r4 {
		t.Fatalf("double failure: %d rewrites, target %v", n, rec.pushes)
	}
	// All three down: no live target; rule left as-is.
	if n, _ := e.PeerDown(r4); n != 0 {
		t.Fatalf("rewrote %d rules with no live target", n)
	}
}

func TestEngineAllNextHopsDownInstallDeferred(t *testing.T) {
	// A group can form out of peers whose failures are still being cleaned
	// up. Installing a rule at a dead peer would blackhole identically, so
	// nothing is pushed — the first PeerUp of a member installs the rule.
	gt, e, rec := newEngineFixture(t)
	e.PeerDown(r2)
	e.PeerDown(r3)
	g, _ := gt.Ensure(r2, r3)
	if err := e.InstallGroup(g); err != nil {
		t.Fatalf("deferred install errored: %v", err)
	}
	if len(rec.pushes) != 0 {
		t.Fatalf("pushed %d rules with no live next-hop", len(rec.pushes))
	}
	if _, has := e.CurrentTarget(g); has {
		t.Fatal("dead group acquired a target")
	}
	if !e.PeerIsDown(r2) || e.PeerIsDown(r4) {
		t.Fatal("down bookkeeping")
	}
	// The backup recovering pushes the deferred rule.
	if n, err := e.PeerUp(r3); err != nil || n != 1 {
		t.Fatalf("PeerUp pushed %d rules (err %v), want 1", n, err)
	}
	if got := rec.pushes[len(rec.pushes)-1]; got.Target.NH != r3 {
		t.Fatalf("deferred rule targets %v, want r3", got.Target.NH)
	}
}

// --- ARP responder ---

func TestARPResponderAnswersVNH(t *testing.T) {
	gt := NewGroupTable(nil)
	g, _ := gt.Ensure(r2, r3)
	resp := NewARPResponder(gt)

	routerMAC := packet.MustParseMAC("00:ff:00:00:00:01")
	routerIP := addr("203.0.113.254")
	buf := packet.NewBuffer()
	req, err := packet.ARPRequestFrame(buf, routerMAC, routerIP, g.VNH)
	if err != nil {
		t.Fatal(err)
	}
	reply, handled, err := resp.Respond(req, packet.NewBuffer())
	if err != nil || !handled {
		t.Fatalf("respond: handled=%v err=%v", handled, err)
	}
	var eth packet.Ethernet
	if err := eth.DecodeFromBytes(reply); err != nil {
		t.Fatal(err)
	}
	if eth.Dst != routerMAC || eth.Src != g.VMAC {
		t.Fatalf("reply header %+v", eth)
	}
	var arp packet.ARP
	if err := arp.DecodeFromBytes(eth.Payload); err != nil {
		t.Fatal(err)
	}
	if arp.Op != packet.ARPReply || arp.SenderHW != g.VMAC || arp.SenderIP != g.VNH {
		t.Fatalf("reply arp %+v", arp)
	}
}

func TestARPResponderIgnoresForeignTraffic(t *testing.T) {
	gt := NewGroupTable(nil)
	gt.Ensure(r2, r3)
	resp := NewARPResponder(gt)

	// ARP request for a non-VNH address.
	buf := packet.NewBuffer()
	req, _ := packet.ARPRequestFrame(buf, r2mac, r2, addr("203.0.113.99"))
	if _, handled, _ := resp.Respond(req, nil); handled {
		t.Fatal("answered ARP for a real host")
	}
	// Non-ARP frame.
	udp, _ := packet.UDPFrame(packet.NewBuffer(), r2mac, r3mac, r2, r3, 1, 2, nil)
	if _, handled, _ := resp.Respond(udp, nil); handled {
		t.Fatal("handled a UDP frame")
	}
	// ARP reply (not a request).
	var reqARP packet.ARP
	var eth packet.Ethernet
	eth.DecodeFromBytes(req)
	reqARP.DecodeFromBytes(eth.Payload)
	rep, _ := packet.ARPReplyFrame(packet.NewBuffer(), r3mac, r3, reqARP)
	if _, handled, _ := resp.Respond(rep, nil); handled {
		t.Fatal("handled an ARP reply")
	}
	// Garbage.
	if _, handled, _ := resp.Respond([]byte{1, 2}, nil); handled {
		t.Fatal("handled garbage")
	}
}

// --- end-to-end control-plane slice ---

func TestProcessorEngineEndToEnd(t *testing.T) {
	// Wire processor → engine the way the controller does and replay the
	// paper's scenario on 3 prefixes.
	gt := NewGroupTable(nil)
	rec := &recordingPusher{}
	e := NewEngine(gt, rec)
	e.RegisterPeer(PeerPort{NH: r2, MAC: r2mac, Port: 1})
	e.RegisterPeer(PeerPort{NH: r3, MAC: r3mac, Port: 2})
	p := NewProcessor(nil, gt)
	p.OnNewGroup = e.InstallGroup

	p.Process(peerR2, announceFrom(r2, 65002, "1.0.0.0/24", "2.0.0.0/24", "3.0.0.0/24"))
	p.Process(peerR3, announceFrom(r3, 65003, "1.0.0.0/24", "2.0.0.0/24", "3.0.0.0/24"))

	if gt.Len() != 1 {
		t.Fatalf("groups %d", gt.Len())
	}
	if len(rec.pushes) != 1 {
		t.Fatalf("initial installs %d, want 1 (one rule for all prefixes)", len(rec.pushes))
	}

	// Failure: one rewrite converges all three prefixes.
	rec.pushes = nil
	n, _ := e.PeerDown(r2)
	if n != 1 || rec.pushes[0].Target.NH != r3 {
		t.Fatalf("failover: %d rewrites to %v", n, rec.pushes)
	}
}

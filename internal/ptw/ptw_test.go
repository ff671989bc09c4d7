package ptw

import (
	"testing"

	"morrigan/internal/arch"
	"morrigan/internal/cache"
	"morrigan/internal/pagetable"
)

func newTestWalker(asap bool) (*Walker, *pagetable.Table, *cache.Hierarchy) {
	pt := pagetable.New(1)
	cacheCfg := cache.DefaultConfig()
	cacheCfg.L2StridePrefetch = false
	mem := cache.NewHierarchy(cacheCfg)
	cfg := DefaultConfig()
	cfg.ASAP = asap
	return New(pt, mem, cfg), pt, mem
}

func TestDemandWalkResolves(t *testing.T) {
	w, pt, _ := newTestWalker(false)
	res := w.Walk(0, 0x400, 0, true)
	if !res.Present {
		t.Fatal("demand walk failed")
	}
	if res.MemRefs != arch.RadixLevels {
		t.Fatalf("cold walk MemRefs = %d, want %d", res.MemRefs, arch.RadixLevels)
	}
	if res.Latency <= w.psc.Latency() {
		t.Fatal("walk latency must include memory references")
	}
	pte, ok := pt.Lookup(0x400)
	if !ok || pte.PFN != res.PFN {
		t.Fatal("walk result inconsistent with page table")
	}
	if !pte.Accessed {
		t.Fatal("demand walk must set the accessed bit")
	}
	if w.DemandWalks() != 1 || w.DemandRefs() != uint64(arch.RadixLevels) {
		t.Fatalf("stats: walks=%d refs=%d", w.DemandWalks(), w.DemandRefs())
	}
}

func TestPSCSkipsLevels(t *testing.T) {
	w, _, _ := newTestWalker(false)
	w.Walk(0, 0x400, 0, true)
	// Second walk to an adjacent page: PD-level PSC hit leaves only the
	// leaf reference.
	res := w.Walk(0, 0x401, 1000, true)
	if res.MemRefs != 1 {
		t.Fatalf("PSC-accelerated walk MemRefs = %d, want 1", res.MemRefs)
	}
	if w.RefsPerDemandWalk() != 2.5 {
		t.Fatalf("RefsPerDemandWalk = %v, want 2.5", w.RefsPerDemandWalk())
	}
}

func TestPrefetchWalkNonFaulting(t *testing.T) {
	w, pt, _ := newTestWalker(false)
	w.Walk(0, 0x400, 0, true)
	// Prefetch walk for an unmapped neighbour: must not map it.
	res := w.Walk(0, 0x401, 1000, false)
	if res.Present {
		t.Fatal("prefetch walk resolved an unmapped page")
	}
	if res.MemRefs == 0 {
		t.Fatal("prefetch walk should still read the absent leaf PTE")
	}
	if _, ok := pt.Lookup(0x401); ok {
		t.Fatal("prefetch walk mapped a page")
	}
	if w.PrefetchWalks() != 1 {
		t.Fatalf("PrefetchWalks = %d", w.PrefetchWalks())
	}
}

func TestPrefetchWalkFindsMappedPage(t *testing.T) {
	w, pt, _ := newTestWalker(false)
	pt.EnsureMapped(0x500)
	res := w.Walk(0, 0x500, 0, false)
	if !res.Present {
		t.Fatal("prefetch walk missed a mapped page")
	}
	pte, _ := pt.Lookup(0x500)
	if !pte.Accessed {
		t.Fatal("prefetch walk must set the accessed bit (x86 rule)")
	}
}

// freeVPNs lists the mapped pages a walk of vpn gets for free when it
// fetched the leaf line: the other present entries of vpn's line group, in
// VPN order.
func freeVPNs(pt pagetable.Translator, res WalkResult, vpn arch.VPN) []arch.VPN {
	if !res.LeafFetched {
		return nil
	}
	var out []arch.VPN
	for i, pte := range pt.LineGroup(vpn) {
		if v := vpn.LineGroup() + arch.VPN(i); pte.Present && v != vpn {
			out = append(out, v)
		}
	}
	return out
}

func TestFreeVPNsFromLeafLine(t *testing.T) {
	w, pt, _ := newTestWalker(false)
	// Map three pages in one PTE line group.
	base := arch.VPN(0x800)
	pt.EnsureMapped(base)
	pt.EnsureMapped(base + 2)
	pt.EnsureMapped(base + 7)
	res := w.Walk(0, base, 0, true)
	want := map[arch.VPN]bool{base + 2: true, base + 7: true}
	free := freeVPNs(pt, res, base)
	if len(free) != 2 {
		t.Fatalf("free VPNs = %v", free)
	}
	for _, v := range free {
		if !want[v] {
			t.Errorf("unexpected free VPN %#x", v)
		}
	}
}

func TestWalkerMSHRDropsPrefetches(t *testing.T) {
	w, pt, _ := newTestWalker(false)
	for i := arch.VPN(0); i < 16; i++ {
		pt.EnsureMapped(0x1000 + i*512) // distinct leaf nodes
	}
	// Saturate the 4 MSHRs with long walks at cycle 0.
	occupied := 0
	for i := arch.VPN(0); i < 8; i++ {
		res := w.Walk(0, 0x1000+i*512, 0, false)
		if res.MemRefs > 0 {
			occupied++
		}
	}
	if occupied != 4 {
		t.Fatalf("completed prefetch walks = %d, want 4 (MSHR limit)", occupied)
	}
	if w.DroppedWalks() != 4 {
		t.Fatalf("DroppedWalks = %d, want 4", w.DroppedWalks())
	}
}

func TestWalkerMSHRQueuesDemand(t *testing.T) {
	w, pt, _ := newTestWalker(false)
	for i := arch.VPN(0); i < 8; i++ {
		pt.EnsureMapped(0x2000 + i*512)
	}
	for i := arch.VPN(0); i < 4; i++ {
		w.Walk(0, 0x2000+i*512, 0, false)
	}
	res := w.Walk(0, 0x2000+4*512, 0, true)
	if res.Queued == 0 {
		t.Fatal("demand walk behind full MSHRs should queue")
	}
	if !res.Present {
		t.Fatal("queued demand walk must still resolve")
	}
}

func TestASAPShortensWalks(t *testing.T) {
	serial, ptS, _ := newTestWalker(false)
	parallel, ptP, _ := newTestWalker(true)
	ptS.EnsureMapped(0x123456)
	ptP.EnsureMapped(0x123456)
	rs := serial.Walk(0, 0x123456, 0, true)
	rp := parallel.Walk(0, 0x123456, 0, true)
	if rp.Latency >= rs.Latency {
		t.Fatalf("ASAP latency %d not better than serial %d", rp.Latency, rs.Latency)
	}
	if rp.MemRefs != rs.MemRefs {
		t.Fatalf("ASAP changed MemRefs: %d vs %d", rp.MemRefs, rs.MemRefs)
	}
}

func TestPSCThreadIsolation(t *testing.T) {
	cfg := DefaultPSCConfig()
	p := NewPSC(cfg, 4)
	p.Fill(0, 0x400, 0, 3)
	if p.Lookup(0, 0x400) != 3 {
		t.Fatal("thread 0 should hit at PD level")
	}
	if p.Lookup(1, 0x400) != 0 {
		t.Fatal("thread 1 should miss")
	}
}

func TestPSCFlush(t *testing.T) {
	p := NewPSC(DefaultPSCConfig(), 4)
	p.Fill(0, 0x400, 0, 3)
	p.Flush()
	if p.Lookup(0, 0x400) != 0 {
		t.Fatal("PSC entries survived flush")
	}
}

func TestPSCPartialHitLevels(t *testing.T) {
	p := NewPSC(DefaultPSCConfig(), 4)
	// Cache only PML4 and PDP levels.
	p.Fill(0, 0x400, 0, 2)
	if got := p.Lookup(0, 0x400); got != 2 {
		t.Fatalf("start level = %d, want 2 (PDP hit)", got)
	}
	// A page sharing the PML4 prefix but differing below starts at 1.
	other := arch.VPN(0x400) ^ (1 << 18) // flip a PDP-index bit
	if got := p.Lookup(0, other); got != 1 {
		t.Fatalf("start level = %d, want 1 (PML4 hit only)", got)
	}
	if p.HitRate() <= 0 {
		t.Fatal("hit rate should be positive")
	}
}

func TestWalkerResetStats(t *testing.T) {
	w, _, _ := newTestWalker(false)
	w.Walk(0, 0x1, 0, true)
	w.ResetStats()
	if w.DemandWalks() != 0 || w.DemandRefs() != 0 || w.RefsPerDemandWalk() != 0 {
		t.Fatal("stats not reset")
	}
}

func TestWalkLatencyVariesWithCacheLocality(t *testing.T) {
	w, pt, _ := newTestWalker(false)
	pt.EnsureMapped(0x400)
	cold := w.Walk(0, 0x400, 0, true)
	warm := w.Walk(0, 0x400, 100000, true)
	if warm.Latency >= cold.Latency {
		t.Fatalf("warm walk (%d) not faster than cold (%d)", warm.Latency, cold.Latency)
	}
}

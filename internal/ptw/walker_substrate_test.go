package ptw

import (
	"testing"

	"morrigan/internal/arch"
	"morrigan/internal/cache"
	"morrigan/internal/pagetable"
)

func newSubstrateWalker(pt pagetable.Translator) (*Walker, *cache.Hierarchy) {
	cacheCfg := cache.DefaultConfig()
	cacheCfg.L2StridePrefetch = false
	mem := cache.NewHierarchy(cacheCfg)
	return New(pt, mem, DefaultConfig()), mem
}

func TestWalkerOverHashedTable(t *testing.T) {
	pt := pagetable.NewHashed(1, 1<<14)
	w, _ := newSubstrateWalker(pt)
	res := w.Walk(0, 0x400, 0, true)
	if !res.Present {
		t.Fatal("hashed demand walk failed")
	}
	// A collision-free hashed walk is a single bucket reference with no
	// PSC lookup latency.
	if res.MemRefs != 1 {
		t.Fatalf("hashed walk MemRefs = %d, want 1", res.MemRefs)
	}
	// PSC must stay idle.
	if w.PSC().HitRate() != 0 {
		t.Fatal("PSC consulted on a hashed walk")
	}
}

func TestWalkerHashedPreservesPageTableLocality(t *testing.T) {
	pt := pagetable.NewHashed(1, 1<<14)
	w, _ := newSubstrateWalker(pt)
	base := arch.VPN(0x800)
	pt.EnsureMapped(base + 1)
	pt.EnsureMapped(base + 5)
	res := w.Walk(0, base, 0, true)
	if free := freeVPNs(pt, res, base); len(free) != 2 {
		t.Fatalf("free VPNs = %v: hashed tables must preserve page table locality (Section 4.3)", free)
	}
}

func TestWalkerOverRadix5(t *testing.T) {
	pt4 := pagetable.New(1)
	pt5 := pagetable.NewWithLevels(1, 5)
	w4, _ := newSubstrateWalker(pt4)
	w5, _ := newSubstrateWalker(pt5)
	r4 := w4.Walk(0, 0x123456, 0, true)
	r5 := w5.Walk(0, 0x123456, 0, true)
	if r5.MemRefs != r4.MemRefs+1 {
		t.Fatalf("cold 5-level walk refs = %d, want %d", r5.MemRefs, r4.MemRefs+1)
	}
	// After warmup the PSC hides the upper levels on both.
	r4b := w4.Walk(0, 0x123457, 100000, true)
	r5b := w5.Walk(0, 0x123457, 100000, true)
	if r4b.MemRefs != 1 || r5b.MemRefs != 1 {
		t.Fatalf("PSC-warm walks: 4-level %d refs, 5-level %d refs, want 1 each", r4b.MemRefs, r5b.MemRefs)
	}
}

func TestWalkerRadix5PSCCoversDeepLevels(t *testing.T) {
	pt := pagetable.NewWithLevels(1, 5)
	w, _ := newSubstrateWalker(pt)
	w.Walk(0, 0x400, 0, true)
	// A far page shares only the (uncached) PML5 level: full walk.
	far := arch.VPN(1) << 35
	res := w.Walk(0, far, 1000, true)
	if res.MemRefs != 5 {
		t.Fatalf("far 5-level walk refs = %d, want 5", res.MemRefs)
	}
}

func TestHashedWalkerFreeVPNsWithoutExtraRefs(t *testing.T) {
	pt := pagetable.NewHashed(1, 1<<14)
	w, mem := newSubstrateWalker(pt)
	base := arch.VPN(0x1000)
	for i := arch.VPN(0); i < 8; i++ {
		pt.EnsureMapped(base + i)
	}
	before := mem.ServedTotal(cache.KindPTWDemand)
	res := w.Walk(0, base, 0, true)
	free := freeVPNs(pt, res, base)
	after := mem.ServedTotal(cache.KindPTWDemand)
	if len(free) != 7 {
		t.Fatalf("free VPNs = %d, want 7", len(free))
	}
	if after-before != uint64(res.MemRefs) {
		t.Fatal("free neighbours must not cost extra memory references")
	}
}

// groupSink keeps TestWalkAllocationFree's group reads observable.
var groupSink [arch.PTEsPerLine]pagetable.PTE

// TestWalkAllocationFree requires a demand walk, a prefetch walk and the
// read of the leaf line's PTEs to allocate nothing once the page is mapped,
// on every page-table kind.
func TestWalkAllocationFree(t *testing.T) {
	const huge = arch.VPN(0x100000)
	kinds := []struct {
		name string
		pt   pagetable.Translator
		vpn  arch.VPN
	}{
		{"radix4", pagetable.New(1), 0x123456},
		{"radix5", pagetable.NewWithLevels(1, 5), 0x123456},
		{"hashed", pagetable.NewHashed(1, 1<<14), 0x123456},
		{"huge", func() pagetable.Translator {
			pt := pagetable.New(1)
			pt.AddHugeRegion(huge, huge+1<<15)
			return pt
		}(), huge + 3},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			w, _ := newSubstrateWalker(k.pt)
			for i := arch.VPN(0); i < arch.PTEsPerLine; i += 3 {
				k.pt.EnsureMapped(k.vpn.LineGroup() + i)
			}
			k.pt.EnsureMapped(k.vpn)
			now := arch.Cycle(0)
			for _, demand := range []bool{true, false} {
				var res WalkResult
				allocs := testing.AllocsPerRun(100, func() {
					// Far apart, so no prefetch walk is dropped.
					now += 1 << 20
					res = w.Walk(0, k.vpn, now, demand)
				})
				if !res.Present || !res.LeafFetched {
					t.Fatalf("demand=%v: walk %+v did not resolve", demand, res)
				}
				if allocs != 0 {
					t.Errorf("demand=%v: walk allocates %.1f times", demand, allocs)
				}
			}
			if allocs := testing.AllocsPerRun(100, func() { groupSink = k.pt.LineGroup(k.vpn) }); allocs != 0 {
				t.Errorf("LineGroup allocates %.1f times", allocs)
			}
		})
	}
}

func TestCorrectAccessed(t *testing.T) {
	pt := pagetable.New(1)
	w, _ := newSubstrateWalker(pt)
	pt.EnsureMapped(0x400)
	pt.MarkAccessed(0x400)
	if !w.CorrectAccessed(0, 0x400, 1000) {
		t.Fatal("correction refused with free MSHRs")
	}
	pte, _ := pt.Lookup(0x400)
	if pte.Accessed {
		t.Fatal("accessed bit not cleared")
	}
	if w.CorrectingWalks() != 1 {
		t.Fatalf("CorrectingWalks = %d", w.CorrectingWalks())
	}
	// A second correction is a no-op (bit already clear).
	if w.CorrectAccessed(0, 0x400, 2000) {
		t.Fatal("correction of a clear bit should be refused")
	}
	// Unmapped page: no-op.
	if w.CorrectAccessed(0, 0x999999, 3000) {
		t.Fatal("correction of an unmapped page should be refused")
	}
}

func TestCorrectAccessedRespectsMSHRs(t *testing.T) {
	pt := pagetable.New(1)
	w, _ := newSubstrateWalker(pt)
	for i := arch.VPN(0); i < 8; i++ {
		pt.EnsureMapped(0x3000 + i*512)
	}
	// Saturate all 4 MSHRs with prefetch walks at cycle 0.
	for i := arch.VPN(0); i < 4; i++ {
		w.Walk(0, 0x3000+i*512, 0, false)
	}
	pt.MarkAccessed(0x3000 + 5*512)
	if w.CorrectAccessed(0, 0x3000+5*512, 0) {
		t.Fatal("correction should yield to busy MSHRs")
	}
}

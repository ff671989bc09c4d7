package pagetable

import (
	"runtime"
	"testing"
	"testing/quick"

	"morrigan/internal/arch"
)

func TestHashedDemandWalkMaps(t *testing.T) {
	h := NewHashed(1, 1<<12)
	p := h.Walk(0x400, true)
	if !p.Present || p.Depth < 1 {
		t.Fatalf("walk: %+v", p)
	}
	pte, ok := h.Lookup(0x400)
	if !ok || pte.PFN != p.Leaf {
		t.Fatal("lookup inconsistent with walk")
	}
	if h.MappedPages() != 1 {
		t.Fatalf("MappedPages = %d", h.MappedPages())
	}
	// Collision-free home-bucket hit: one probe.
	if h.AvgProbes() != 1 {
		t.Fatalf("AvgProbes = %v", h.AvgProbes())
	}
}

func TestHashedPrefetchWalkNonFaulting(t *testing.T) {
	h := NewHashed(1, 1<<12)
	p := h.Walk(0x500, false)
	if p.Present {
		t.Fatal("prefetch walk mapped a page")
	}
	if p.Depth < 1 {
		t.Fatal("prefetch walk must still probe the home bucket")
	}
	if _, ok := h.Lookup(0x500); ok {
		t.Fatal("side effects from prefetch walk")
	}
}

func TestHashedGroupSharesBucket(t *testing.T) {
	h := NewHashed(1, 1<<12)
	base := arch.VPN(0x800) // line-group aligned
	var addrs []arch.PAddr
	for i := arch.VPN(0); i < 8; i++ {
		p := h.Walk(base+i, true)
		addrs = append(addrs, p.Addrs[p.Depth-1])
	}
	for _, a := range addrs[1:] {
		if a != addrs[0] {
			t.Fatalf("group PTEs in different buckets: %#x vs %#x", a, addrs[0])
		}
	}
}

func TestHashedLineNeighbors(t *testing.T) {
	h := NewHashed(1, 1<<12)
	base := arch.VPN(0x800)
	h.EnsureMapped(base)
	h.EnsureMapped(base + 3)
	h.EnsureMapped(base + 7)
	got := neighbors(h, base+3)
	want := map[arch.VPN]bool{base: true, base + 7: true}
	if len(got) != 2 {
		t.Fatalf("LineGroup neighbours = %v", got)
	}
	for _, v := range got {
		if !want[v] {
			t.Errorf("unexpected neighbor %#x", v)
		}
	}
	if h.LineGroup(0x10000) != [arch.PTEsPerLine]PTE{} {
		t.Fatal("neighbors for unmapped group")
	}
}

// TestHashedProbeChainCapped fills a small table so that probe chains grow
// past arch.MaxRadixLevels, and checks each walk's references against the
// chain computed from the bucket tags of the dense reference filled the
// same way: the home bucket and its linear successors up to the tag's
// bucket, capped at arch.MaxRadixLevels.
func TestHashedProbeChainCapped(t *testing.T) {
	const buckets = 16
	h, ref := NewHashed(1, buckets), newDenseHashed(1, buckets)
	var vpns []arch.VPN
	for i := 0; i < buckets; i++ {
		vpn := arch.VPN(i * 8 * 977) // distinct groups
		h.EnsureMapped(vpn)
		ref.EnsureMapped(vpn)
		vpns = append(vpns, vpn)
	}
	longest := 0
	for _, vpn := range append(vpns, 0x7777_0000) { // the last is absent
		home, chain := ref.chain(vpn) // an absent group probes the whole full table
		if home != h.hash(groupTag(vpn)) {
			t.Fatalf("vpn %#x: home bucket %d, reference %d", vpn, h.hash(groupTag(vpn)), home)
		}
		longest = max(longest, chain)
		p := h.Walk(vpn, false)
		if want := min(chain, arch.MaxRadixLevels); p.Depth != want {
			t.Fatalf("vpn %#x: Depth = %d, want %d (chain %d)", vpn, p.Depth, want, chain)
		}
		for i := 0; i < p.Depth; i++ {
			if want := h.bucketAddr((home + i) % buckets); p.Addrs[i] != want {
				t.Fatalf("vpn %#x: Addrs[%d] = %#x, want %#x", vpn, i, p.Addrs[i], want)
			}
		}
		if _, ok := h.Lookup(vpn); p.Present != ok {
			t.Fatalf("vpn %#x: Present = %v, Lookup %v", vpn, p.Present, ok)
		}
	}
	if longest <= arch.MaxRadixLevels {
		t.Fatalf("longest chain %d never exceeded the cap", longest)
	}
}

// TestNewHashedHostMemory requires a table of the default geometry, 64 MB
// of simulated memory, to cost at most 256 KiB of host memory before it maps
// anything: the occupancy bits and the frame allocator's random source, not
// a host array of every bucket.
func TestNewHashedHostMemory(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := NewHashed(1, DefaultHashedBuckets)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(h)
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(256<<10)
	t.Logf("NewHashed(1, DefaultHashedBuckets) allocated %d bytes", got)
	if got > limit {
		t.Errorf("NewHashed(1, DefaultHashedBuckets) allocated %d bytes, want at most %d", got, limit)
	}
}

func TestHashedMarkAccessed(t *testing.T) {
	h := NewHashed(1, 1<<12)
	if h.MarkAccessed(0x99) {
		t.Fatal("unmapped page marked")
	}
	h.EnsureMapped(0x99)
	if !h.MarkAccessed(0x99) {
		t.Fatal("first mark should transition")
	}
	if h.MarkAccessed(0x99) {
		t.Fatal("second mark should be a no-op")
	}
}

func TestHashedCollisionsProbeFurther(t *testing.T) {
	// A 4-bucket table forces collisions quickly.
	h := NewHashed(1, 4)
	for i := 0; i < 4; i++ {
		vpn := arch.VPN(i * 8 * 1024) // distinct groups
		if p := h.Walk(vpn, true); !p.Present {
			t.Fatalf("walk %d failed", i)
		}
	}
	if h.AvgProbes() <= 1 {
		t.Fatalf("AvgProbes = %v, expected collisions in a 4-bucket table", h.AvgProbes())
	}
	// All four groups must still resolve.
	for i := 0; i < 4; i++ {
		vpn := arch.VPN(i * 8 * 1024)
		if _, ok := h.Lookup(vpn); !ok {
			t.Fatalf("group %d lost", i)
		}
	}
}

func TestHashedFullTablePanics(t *testing.T) {
	h := NewHashed(1, 2)
	h.EnsureMapped(0)
	h.EnsureMapped(8 * 100)
	defer func() {
		if recover() == nil {
			t.Fatal("full table should panic")
		}
	}()
	h.EnsureMapped(8 * 200)
}

func TestHashedGeometryValidation(t *testing.T) {
	for _, bad := range []int{0, 3, -4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("buckets=%d accepted", bad)
				}
			}()
			NewHashed(1, bad)
		}()
	}
}

func TestHashedInterfaceProperties(t *testing.T) {
	h := NewHashed(7, 1<<14)
	if h.InteriorLevels() != 0 {
		t.Fatal("hashed table has no interior levels")
	}
	seen := map[arch.PFN]arch.VPN{}
	f := func(raw uint32) bool {
		vpn := arch.VPN(raw)
		pfn := h.EnsureMapped(vpn)
		if prev, dup := seen[pfn]; dup && prev != vpn {
			return false
		}
		seen[pfn] = vpn
		// Idempotent.
		return h.EnsureMapped(vpn) == pfn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestRadix5Levels(t *testing.T) {
	pt := NewWithLevels(1, 5)
	if pt.Levels() != 5 || pt.InteriorLevels() != 4 {
		t.Fatal("level accounting wrong")
	}
	p := pt.Walk(0x12345, true)
	if !p.Present || p.Depth != 5 {
		t.Fatalf("5-level walk: %+v", p)
	}
	// Same page resolves consistently.
	if q := pt.Walk(0x12345, true); q.Leaf != p.Leaf {
		t.Fatal("remapping changed translation")
	}
	// Leaf line grouping still holds.
	base := arch.VPN(0x4000)
	a := pt.Walk(base, true)
	b := pt.Walk(base+7, true)
	if a.Addrs[4].Line() != b.Addrs[4].Line() {
		t.Fatal("5-level leaf PTEs should share a line")
	}
}

func TestRadix5MoreReferencesThanRadix4(t *testing.T) {
	p4 := New(1).Walk(0x777777, true)
	p5 := NewWithLevels(1, 5).Walk(0x777777, true)
	if p5.Depth != p4.Depth+1 {
		t.Fatalf("depths: 4-level %d, 5-level %d", p4.Depth, p5.Depth)
	}
}

func TestLevelsValidation(t *testing.T) {
	for _, bad := range []int{3, 6, 0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("levels=%d accepted", bad)
				}
			}()
			NewWithLevels(1, bad)
		}()
	}
}

func TestHugeRegionWalks(t *testing.T) {
	pt := New(1)
	pt.AddHugeRegion(0x100000, 0x100000+1<<15)
	vpn := arch.VPN(0x100000 + 777)
	if !pt.IsHuge(vpn) || pt.IsHuge(0x400) {
		t.Fatal("IsHuge wrong")
	}
	p := pt.Walk(vpn, true)
	if !p.Present || !p.Huge {
		t.Fatalf("huge walk: %+v", p)
	}
	// One level shorter than a 4 KB walk.
	if p.Depth != 3 {
		t.Fatalf("huge walk depth = %d, want 3", p.Depth)
	}
	// Pages of the same block translate to contiguous frames.
	q := pt.Walk(vpn+1, true)
	if q.Leaf != p.Leaf+1 {
		t.Fatalf("block not contiguous: %#x then %#x", p.Leaf, q.Leaf)
	}
	// Only one huge mapping was created.
	if pt.MappedPages() != 1 {
		t.Fatalf("MappedPages = %d, want 1 (one 2MB block)", pt.MappedPages())
	}
	// Lookup agrees with the walk.
	pte, ok := pt.Lookup(vpn)
	if !ok || pte.PFN != p.Leaf {
		t.Fatalf("Lookup = %+v %v", pte, ok)
	}
}

func TestHugeBlockAlignment(t *testing.T) {
	pt := New(1)
	pt.AddHugeRegion(0x100000, 0x100000+1<<15)
	pt.EnsureMapped(0x3) // unaligned 4K traffic first
	p := pt.Walk(0x100000+5, true)
	base := p.Leaf - 5
	if base%HugePages != 0 {
		t.Fatalf("huge block base %#x not 2MB-aligned", base)
	}
}

func TestHugeAccessedBits(t *testing.T) {
	pt := New(1)
	pt.AddHugeRegion(0x100000, 0x100000+1<<15)
	vpn := arch.VPN(0x100000 + 9)
	if pt.MarkAccessed(vpn) {
		t.Fatal("unmapped block marked")
	}
	pt.EnsureMapped(vpn)
	if !pt.MarkAccessed(vpn) {
		t.Fatal("first mark should transition")
	}
	// The bit is per 2 MB mapping: a sibling page sees it set.
	if pt.MarkAccessed(vpn + 1) {
		t.Fatal("sibling page should share the block's accessed bit")
	}
	if !pt.ClearAccessed(vpn + 2) {
		t.Fatal("clear via sibling should work")
	}
	if pt.ClearAccessed(vpn) {
		t.Fatal("double clear")
	}
}

func TestHugeNoSpatialNeighbors(t *testing.T) {
	pt := New(1)
	pt.AddHugeRegion(0x100000, 0x100000+1<<15)
	pt.EnsureMapped(0x100000 + 1)
	if pt.LineGroup(0x100000+1) != [arch.PTEsPerLine]PTE{} {
		t.Fatal("huge mappings have no 4KB line neighbors")
	}
}

func TestHugeRegionValidation(t *testing.T) {
	pt := New(1)
	for _, bad := range [][2]arch.VPN{{1, 513}, {0, 0}, {1024, 512}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("region %v accepted", bad)
				}
			}()
			pt.AddHugeRegion(bad[0], bad[1])
		}()
	}
}

func TestHugePrefetchWalkNonFaulting(t *testing.T) {
	pt := New(1)
	pt.AddHugeRegion(0x100000, 0x100000+1<<15)
	p := pt.Walk(0x100000+50, false)
	if p.Present {
		t.Fatal("prefetch walk mapped a huge block")
	}
	if _, ok := pt.Lookup(0x100000 + 50); ok {
		t.Fatal("side effects")
	}
}

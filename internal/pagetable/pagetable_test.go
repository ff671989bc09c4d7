package pagetable

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"morrigan/internal/arch"
)

func TestDemandWalkMapsPage(t *testing.T) {
	pt := New(1)
	vpn := arch.VPN(0x400)
	if _, ok := pt.Lookup(vpn); ok {
		t.Fatal("unmapped page present")
	}
	p := pt.Walk(vpn, true)
	if !p.Present || p.Depth != arch.RadixLevels {
		t.Fatalf("demand walk: %+v", p)
	}
	pte, ok := pt.Lookup(vpn)
	if !ok || pte.PFN != p.Leaf {
		t.Fatalf("Lookup after map: %+v ok=%v", pte, ok)
	}
	if pt.MappedPages() != 1 {
		t.Errorf("MappedPages = %d", pt.MappedPages())
	}
	// Root + 3 interior/leaf nodes for a fresh path.
	if pt.Nodes() != 4 {
		t.Errorf("Nodes = %d, want 4", pt.Nodes())
	}
}

func TestPrefetchWalkDoesNotMap(t *testing.T) {
	pt := New(1)
	vpn := arch.VPN(0x400)
	p := pt.Walk(vpn, false)
	if p.Present {
		t.Fatal("prefetch walk mapped a page")
	}
	if p.Depth != 1 {
		t.Fatalf("Depth = %d, want 1 (only PML4 exists)", p.Depth)
	}
	if _, ok := pt.Lookup(vpn); ok {
		t.Fatal("prefetch walk had side effects")
	}
	if pt.MappedPages() != 0 {
		t.Errorf("MappedPages = %d, want 0", pt.MappedPages())
	}
}

func TestPrefetchWalkPartialDepth(t *testing.T) {
	pt := New(1)
	// Map a page; a neighbour in the same leaf node should reach depth 4
	// but be absent.
	pt.Walk(arch.VPN(0x400), true)
	p := pt.Walk(arch.VPN(0x401), false)
	if p.Present {
		t.Fatal("unmapped neighbour reported present")
	}
	if p.Depth != arch.RadixLevels {
		t.Fatalf("Depth = %d, want %d", p.Depth, arch.RadixLevels)
	}
	// A page in a different PDP subtree only sees the root.
	far := arch.VPN(1) << 27
	if p := pt.Walk(far, false); p.Depth != 1 {
		t.Fatalf("far page Depth = %d, want 1", p.Depth)
	}
}

func TestWalkDeterministicAndStable(t *testing.T) {
	pt := New(7)
	vpn := arch.VPN(0x12345)
	first := pt.Walk(vpn, true)
	second := pt.Walk(vpn, true)
	if first != second {
		t.Fatalf("remapping changed translation: %+v vs %+v", first, second)
	}
	if pt.MappedPages() != 1 {
		t.Errorf("MappedPages = %d, want 1", pt.MappedPages())
	}
	// Same seed, same mapping order => same frames.
	pt2 := New(7)
	if got := pt2.Walk(vpn, true); got.Leaf != first.Leaf {
		t.Errorf("frame allocation not deterministic: %#x vs %#x", got.Leaf, first.Leaf)
	}
}

func TestDistinctPagesGetDistinctFrames(t *testing.T) {
	pt := New(3)
	seen := map[arch.PFN]arch.VPN{}
	f := func(raw uint32) bool {
		vpn := arch.VPN(raw)
		p := pt.Walk(vpn, true)
		if prev, dup := seen[p.Leaf]; dup && prev != vpn {
			return false
		}
		seen[p.Leaf] = vpn
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestLeafPTELineContiguity(t *testing.T) {
	pt := New(1)
	base := arch.VPN(0x4000)
	var addrs [8]arch.PAddr
	for i := arch.VPN(0); i < 8; i++ {
		p := pt.Walk(base+i, true)
		addrs[i] = p.Addrs[arch.RadixLevels-1]
	}
	for i := 1; i < 8; i++ {
		if addrs[i] != addrs[0]+arch.PAddr(i*arch.PTESize) {
			t.Fatalf("leaf PTEs not contiguous: %#x vs %#x", addrs[i], addrs[0])
		}
	}
	if addrs[0].Line() != addrs[7].Line() {
		t.Fatal("8 aligned PTEs should share one cache line")
	}
	// The 9th PTE lands on the next line.
	p9 := pt.Walk(base+8, true)
	if p9.Addrs[3].Line() == addrs[0].Line() {
		t.Fatal("PTE of next group should be on a different line")
	}
}

// neighbors lists the mapped pages of vpn's line group other than vpn
// itself, in VPN order: the translations a spatial prefetch installs for
// free.
func neighbors(pt Translator, vpn arch.VPN) []arch.VPN {
	var out []arch.VPN
	for i, pte := range pt.LineGroup(vpn) {
		if v := vpn.LineGroup() + arch.VPN(i); pte.Present && v != vpn {
			out = append(out, v)
		}
	}
	return out
}

func TestLineNeighbors(t *testing.T) {
	pt := New(1)
	base := arch.VPN(0x800) // line-group aligned
	pt.Walk(base, true)
	pt.Walk(base+3, true)
	pt.Walk(base+7, true)
	got := neighbors(pt, base+3)
	want := map[arch.VPN]bool{base: true, base + 7: true}
	if len(got) != 2 {
		t.Fatalf("LineGroup neighbours = %v", got)
	}
	for _, v := range got {
		if !want[v] {
			t.Errorf("unexpected neighbor %#x", v)
		}
	}
	// Unmapped neighbours and self never appear.
	for _, v := range got {
		if v == base+3 {
			t.Error("self returned as neighbor")
		}
	}
	// The group is in VPN order: vpn's own PTE sits at its offset.
	if self, _ := pt.Lookup(base + 3); pt.LineGroup(base + 3)[3] != self {
		t.Error("group slot 3 is not the walked page's PTE")
	}
}

// TestLineGroupMatchesLookup checks the one-descent group read against a
// brute-force Lookup of each of the line's eight VPNs, over random mapped
// sets on every page-table kind. Huge regions have no 4 KB group.
func TestLineGroupMatchesLookup(t *testing.T) {
	const hugeStart, hugeEnd = arch.VPN(0x200000), arch.VPN(0x200000 + 4*HugePages)
	kinds := map[string]func() Translator{
		"radix4": func() Translator { return New(1) },
		"radix5": func() Translator { return NewWithLevels(1, 5) },
		"hashed": func() Translator { return NewHashed(1, 1<<12) },
		"huge": func() Translator {
			pt := New(1)
			pt.AddHugeRegion(hugeStart, hugeEnd)
			return pt
		},
	}
	for name, mk := range kinds {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for round := 0; round < 20; round++ {
				pt := mk()
				// Cluster the mapped pages around a few bases so line groups
				// fill partially, and one base straddles the huge region.
				bases := []arch.VPN{
					arch.VPN(rng.Int63n(1 << 30)),
					arch.VPN(rng.Int63n(1 << 20)),
					hugeStart - 256,
				}
				for i := 0; i < 300; i++ {
					pt.EnsureMapped(bases[rng.Intn(len(bases))] + arch.VPN(rng.Intn(512)))
				}
				for i := 0; i < 300; i++ {
					vpn := bases[rng.Intn(len(bases))] + arch.VPN(rng.Intn(520))
					group := pt.LineGroup(vpn)
					huge := name == "huge" && vpn >= hugeStart && vpn < hugeEnd
					for j, got := range group {
						v := vpn.LineGroup() + arch.VPN(j)
						want, ok := pt.Lookup(v)
						if !ok || huge {
							want = PTE{}
						}
						if got != want {
							t.Fatalf("round %d: LineGroup(%#x)[%d] = %+v, Lookup(%#x) = %+v, %v (huge %v)",
								round, vpn, j, got, v, want, ok, huge)
						}
					}
				}
			}
		})
	}
}

func TestMarkAccessed(t *testing.T) {
	pt := New(1)
	vpn := arch.VPN(0x99)
	if pt.MarkAccessed(vpn) {
		t.Fatal("unmapped page marked accessed")
	}
	pt.Walk(vpn, true)
	if !pt.MarkAccessed(vpn) {
		t.Fatal("first mark should transition the bit")
	}
	if pt.MarkAccessed(vpn) {
		t.Fatal("second mark should be a no-op")
	}
	pte, _ := pt.Lookup(vpn)
	if !pte.Accessed {
		t.Fatal("accessed bit not visible via Lookup")
	}
}

func TestEnsureMapped(t *testing.T) {
	pt := New(1)
	f := pt.EnsureMapped(0x555)
	if f2 := pt.EnsureMapped(0x555); f2 != f {
		t.Fatalf("EnsureMapped not idempotent: %#x vs %#x", f, f2)
	}
	if pte, ok := pt.Lookup(0x555); !ok || pte.PFN != f {
		t.Fatal("EnsureMapped result not visible")
	}
}

func TestWalkPathAddrsWithinNodes(t *testing.T) {
	pt := New(5)
	f := func(raw uint64) bool {
		vpn := arch.VPN(raw & ((1 << arch.VPNBits) - 1))
		p := pt.Walk(vpn, true)
		if p.Depth != arch.RadixLevels || !p.Present {
			return false
		}
		for i := 0; i < p.Depth; i++ {
			// Every PTE address must be 8-byte aligned and within a
			// kernel-region frame.
			if p.Addrs[i]%arch.PTESize != 0 {
				return false
			}
			if p.Addrs[i].Page() < 0x0010_0000 || p.Addrs[i].Page() >= 0x0100_0000 {
				return false
			}
		}
		// Leaf frame must be in the user region.
		return p.Leaf >= 0x0100_0000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestNodeSizeByLevel maps one page in each of 64 distinct 2 MB regions, which
// builds 64 leaf nodes under one PDP and one PD node. A leaf node needs its
// 512 one-word PTEs (4 KiB) and an interior node its 512 child pointers
// (4 KiB), so the mappings must allocate at most 4.5 KiB per node; a leaf of
// 16-byte decoded PTEs would take over 8 KiB, and a node that carried both
// arrays over 12 KiB.
func TestNodeSizeByLevel(t *testing.T) {
	const regions = 64
	pt := New(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < regions; i++ {
		pt.EnsureMapped(arch.VPN(i) * HugePages)
	}
	runtime.ReadMemStats(&after)
	if got := pt.Nodes(); got != regions+3 {
		t.Fatalf("Nodes = %d, want %d (root, PDP, PD and one leaf per region)", got, regions+3)
	}
	limit := uint64(regions*4608 + 2*4608)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("mapping %d regions allocated %d bytes, want at most %d", regions, got, limit)
	}
}

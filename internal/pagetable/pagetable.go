// Package pagetable models an OS-managed x86-64 4-level radix page table
// laid out in simulated physical memory.
//
// Page table nodes occupy real (simulated) physical frames, so the physical
// address of every page table entry is well defined: the PTE for a virtual
// page lives at nodeFrame + 8*index. Because a page table node covers 512
// consecutive virtual pages and PTEs are 8 bytes, the leaf PTEs of 8
// consecutive virtual pages share one 64-byte cache line. This is the "page
// table locality" that Morrigan's spatial prefetching exploits — here it is
// an emergent property of the layout, not a hard-coded rule.
//
// Virtual pages are mapped to physical frames on first touch, mimicking
// demand paging. Prefetch-initiated walks never map new pages (non-faulting
// prefetches, as the paper requires).
package pagetable

import (
	"math/rand"

	"morrigan/internal/arch"
)

// PTE is a decoded leaf page table entry.
type PTE struct {
	// PFN is the physical frame backing the virtual page.
	PFN arch.PFN
	// Present reports whether the translation exists.
	Present bool
	// Accessed mirrors the x86 accessed bit; TLB fills and prefetches set
	// it (the x86 consistency rule the paper discusses in Section 4.3).
	Accessed bool
}

// entry is a leaf PTE as a table stores it: one 64-bit word in the x86
// layout, the frame's physical address with the present flag in bit 0 and
// the accessed flag in bit 5. The zero entry is an absent translation.
type entry uint64

const (
	entryPresent  entry = 1 << 0
	entryAccessed entry = 1 << 5
)

// mapped returns the present, not yet accessed entry for frame f.
func mapped(f arch.PFN) entry { return entry(f.Addr()) | entryPresent }

func (e entry) present() bool  { return e&entryPresent != 0 }
func (e entry) accessed() bool { return e&entryAccessed != 0 }
func (e entry) pfn() arch.PFN  { return arch.PAddr(e).Page() }

// pte decodes the entry.
func (e entry) pte() PTE {
	return PTE{PFN: e.pfn(), Present: e.present(), Accessed: e.accessed()}
}

// markAccessed sets e's accessed bit, reporting a clear-to-set transition
// of a present entry.
func (e *entry) markAccessed() bool {
	if !e.present() || e.accessed() {
		return false
	}
	*e |= entryAccessed
	return true
}

// clearAccessed resets e's accessed bit, reporting whether a present
// entry had it set.
func (e *entry) clearAccessed() bool {
	if !e.present() || !e.accessed() {
		return false
	}
	*e &^= entryAccessed
	return true
}

// decodeLine decodes one cache line of leaf entries into g. It fills the
// caller's array in place, small enough to inline, because LineGroup runs
// on every spatial prefetch.
func decodeLine(g *[arch.PTEsPerLine]PTE, line *[arch.PTEsPerLine]entry) {
	for i, e := range line {
		g[i] = e.pte()
	}
}

// Path describes one translation walk: the physical addresses the walker
// must read, in order, plus the outcome. For a radix table these are the
// per-level PTE addresses (index 0 = root); for a hashed table they are the
// probed bucket lines.
type Path struct {
	// Addrs[i] is the physical address of the i-th reference. Only the
	// first Depth entries are valid.
	Addrs [arch.MaxRadixLevels]arch.PAddr
	// Depth is the number of references the walk performs. A fully mapped
	// page on a 4-level radix table has Depth == 4; a page whose PD entry
	// is absent has Depth == 3 (the walk reads PML4, PDP, PD and aborts).
	Depth int
	// Present reports whether the leaf translation exists.
	Present bool
	// Leaf is the translation when Present: the frame of the requested
	// 4 KB page (for a huge mapping, the frame inside the 2 MB block).
	Leaf arch.PFN
	// Huge reports that the translation is a 2 MB mapping, resolved one
	// radix level early at a PD-level leaf.
	Huge bool
}

// Translator is the page-table abstraction the walker and simulator consume:
// the default 4-level radix tree, the 5-level variant, or the clustered
// hashed page table (all discussed in Section 4.3 of the paper).
type Translator interface {
	// Walk resolves the reference path for vpn; when allocate is set
	// (demand access), unmapped pages are demand-mapped.
	Walk(vpn arch.VPN, allocate bool) Path
	// Lookup returns the leaf PTE without side effects.
	Lookup(vpn arch.VPN) (PTE, bool)
	// EnsureMapped demand-maps vpn and returns its frame.
	EnsureMapped(vpn arch.VPN) arch.PFN
	// MarkAccessed sets the accessed bit, reporting a clear-to-set
	// transition.
	MarkAccessed(vpn arch.VPN) bool
	// ClearAccessed resets the accessed bit (the paper's correcting page
	// walks for prefetches that never hit, Section 4.3).
	ClearAccessed(vpn arch.VPN) bool
	// LineGroup returns the leaf PTEs that share the cache line holding
	// vpn's PTE, in VPN order from vpn.LineGroup(), without side effects.
	// Absent entries are zero. These are the translations a walk that
	// fetched the leaf line gets for free (the spatial-prefetch
	// candidates, vpn's own entry included).
	LineGroup(vpn arch.VPN) [arch.PTEsPerLine]PTE
	// InteriorLevels is the number of radix levels above the leaf that a
	// page-structure cache can skip; 0 for hashed tables.
	InteriorLevels() int
	// MappedPages counts demand-mapped virtual pages.
	MappedPages() uint64
}

// node is one page table page: 512 entries, either pointers to child nodes
// (interior levels) or leaf translations. Each node allocates only the array
// its level uses; the other stays nil. A leaf's array holds one word per
// entry, as the simulated page does, so it takes 4 KiB of host memory.
type node struct {
	frame    arch.PFN
	children *[arch.RadixFanout]*node // interior levels only
	leaves   *[arch.RadixFanout]entry // leaf level only
}

// Table is the per-address-space radix page table plus the OS frame
// allocator. It supports 4-level (default x86-64) and 5-level (PML5) walks.
type Table struct {
	root      *node
	levels    int
	rng       *rand.Rand
	nextKern  arch.PFN // frame allocator for page table nodes
	nextUser  arch.PFN // frame allocator for user pages
	scatter   int      // max random frame skip, models fragmentation
	mappedCnt uint64
	nodeCnt   uint64

	// hugeRegions lists VPN ranges mapped with 2 MB pages (PD-level
	// leaves). The paper's Section 5 methodology uses transparent huge
	// pages for data while code stays at 4 KB.
	hugeRegions []vpnRange
	hugeBlocks  map[arch.VPN]hugeBlock // 2MB-aligned base VPN -> block
}

// vpnRange is a half-open [start, end) VPN interval.
type vpnRange struct{ start, end arch.VPN }

// hugeBlock is one mapped 2 MB page: 512 physically contiguous frames.
type hugeBlock struct {
	base     arch.PFN
	accessed bool
}

// HugePages is how many 4 KB pages one 2 MB mapping covers.
const HugePages = arch.RadixFanout

var _ Translator = (*Table)(nil)

// Physical memory layout of the simulated machine: page table nodes are
// allocated from a kernel region, user pages above it.
const (
	kernBasePFN arch.PFN = 0x0010_0000 // 4 GB
	userBasePFN arch.PFN = 0x0100_0000 // 64 GB
)

// New returns an empty 4-level page table. The seed drives the frame
// allocator's fragmentation; identical seeds give identical physical
// layouts.
func New(seed int64) *Table { return NewWithLevels(seed, arch.RadixLevels) }

// NewWithLevels builds a radix table with 4 or 5 levels (Section 4.3 notes
// Morrigan is compatible with 5-level paging, where the extra level can
// lengthen walks).
func NewWithLevels(seed int64, levels int) *Table {
	if levels < arch.RadixLevels || levels > arch.MaxRadixLevels {
		panic("pagetable: levels must be 4 or 5")
	}
	t := &Table{
		levels:   levels,
		rng:      rand.New(rand.NewSource(seed)),
		nextKern: kernBasePFN,
		nextUser: userBasePFN,
		scatter:  8,
	}
	t.root = t.newNode(0)
	return t
}

// Levels returns the number of radix levels.
func (t *Table) Levels() int { return t.levels }

// AddHugeRegion marks [start, end) as backed by 2 MB pages: first touches
// in the region allocate 512 physically contiguous frames and install a
// PD-level leaf, shortening walks by one level. Panics if the region is not
// 2 MB aligned.
func (t *Table) AddHugeRegion(start, end arch.VPN) {
	if start%HugePages != 0 || end%HugePages != 0 || end <= start {
		panic("pagetable: huge region must be 2MB-aligned and non-empty")
	}
	if t.hugeBlocks == nil {
		t.hugeBlocks = make(map[arch.VPN]hugeBlock)
	}
	t.hugeRegions = append(t.hugeRegions, vpnRange{start, end})
}

// IsHuge reports whether vpn falls in a huge-page region.
func (t *Table) IsHuge(vpn arch.VPN) bool {
	for _, r := range t.hugeRegions {
		if vpn >= r.start && vpn < r.end {
			return true
		}
	}
	return false
}

// hugeBase returns the 2 MB-aligned base VPN of vpn's block.
func hugeBase(vpn arch.VPN) arch.VPN { return vpn &^ (HugePages - 1) }

// allocHugeBlock hands out 512 physically contiguous frames, aligned so a
// real 2 MB mapping would be legal.
func (t *Table) allocHugeBlock() arch.PFN {
	t.nextUser = (t.nextUser + HugePages - 1) &^ (HugePages - 1)
	f := t.nextUser
	t.nextUser += HugePages
	return f
}

// walkHuge resolves vpn through a PD-level leaf.
func (t *Table) walkHuge(vpn arch.VPN, allocate bool) Path {
	var p Path
	p.Huge = true
	n := t.root
	leafLevel := t.levels - 2 // the PD level
	for level := 0; level <= leafLevel; level++ {
		idx := t.radixIndex(vpn, level)
		p.Addrs[level] = pteAddr(n, idx)
		p.Depth = level + 1
		if level == leafLevel {
			base := hugeBase(vpn)
			blk, ok := t.hugeBlocks[base]
			if !ok {
				if !allocate {
					return p
				}
				blk = hugeBlock{base: t.allocHugeBlock()}
				t.hugeBlocks[base] = blk
				t.mappedCnt++
			}
			p.Present = true
			p.Leaf = blk.base + arch.PFN(vpn-base)
			return p
		}
		child := n.children[idx]
		if child == nil {
			if !allocate {
				return p
			}
			child = t.newNode(level + 1)
			n.children[idx] = child
		}
		n = child
	}
	return p
}

// InteriorLevels implements Translator.
func (t *Table) InteriorLevels() int { return t.levels - 1 }

// radixIndex returns the page-table index of vpn at the given level for
// this table's depth; level 0 is the root.
func (t *Table) radixIndex(vpn arch.VPN, level int) uint64 {
	shift := uint((t.levels - 1 - level) * arch.RadixBits)
	return (uint64(vpn) >> shift) & (arch.RadixFanout - 1)
}

// newNode allocates the next page table page for the given level (0 is the
// root). Nodes take kernel frames in creation order, whatever their level.
func (t *Table) newNode(level int) *node {
	n := &node{frame: t.nextKern}
	if level == t.levels-1 {
		n.leaves = new([arch.RadixFanout]entry)
	} else {
		n.children = new([arch.RadixFanout]*node)
	}
	t.nextKern++
	t.nodeCnt++
	return n
}

// allocUserFrame hands out a physical frame for a user page. Frames are
// mostly sequential with random skips, modelling a lightly fragmented
// physical memory (physical contiguity is deliberately not guaranteed, as
// the paper notes it is not in datacenters).
func (t *Table) allocUserFrame() arch.PFN {
	if t.scatter > 0 && t.rng.Intn(4) == 0 {
		t.nextUser += arch.PFN(1 + t.rng.Intn(t.scatter))
	}
	f := t.nextUser
	t.nextUser++
	return f
}

// pteAddr returns the physical address of entry idx inside node n.
func pteAddr(n *node, idx uint64) arch.PAddr {
	return n.frame.Addr() + arch.PAddr(idx*arch.PTESize)
}

// Walk resolves the radix path for vpn. When allocate is true (a demand
// access) missing interior nodes are created and an absent leaf is mapped to
// a fresh frame; when false (a prefetch walk) the path stops at the first
// absent entry and nothing is modified.
func (t *Table) Walk(vpn arch.VPN, allocate bool) Path {
	if t.IsHuge(vpn) {
		return t.walkHuge(vpn, allocate)
	}
	var p Path
	n := t.root
	for level := 0; level < t.levels; level++ {
		idx := t.radixIndex(vpn, level)
		p.Addrs[level] = pteAddr(n, idx)
		p.Depth = level + 1
		if level == t.levels-1 {
			if !n.leaves[idx].present() {
				if !allocate {
					return p
				}
				n.leaves[idx] = mapped(t.allocUserFrame())
				t.mappedCnt++
			}
			p.Present = true
			p.Leaf = n.leaves[idx].pfn()
			return p
		}
		child := n.children[idx]
		if child == nil {
			if !allocate {
				return p
			}
			child = t.newNode(level + 1)
			n.children[idx] = child
		}
		n = child
	}
	return p
}

// Lookup returns the leaf PTE for vpn without mapping anything.
func (t *Table) Lookup(vpn arch.VPN) (PTE, bool) {
	if t.IsHuge(vpn) {
		blk, ok := t.hugeBlocks[hugeBase(vpn)]
		if !ok {
			return PTE{}, false
		}
		return PTE{
			PFN:      blk.base + arch.PFN(vpn-hugeBase(vpn)),
			Present:  true,
			Accessed: blk.accessed,
		}, true
	}
	n := t.root
	for level := 0; level < t.levels-1; level++ {
		n = n.children[t.radixIndex(vpn, level)]
		if n == nil {
			return PTE{}, false
		}
	}
	pte := n.leaves[t.radixIndex(vpn, t.levels-1)].pte()
	return pte, pte.Present
}

// EnsureMapped demand-maps vpn (first touch) and returns its frame.
func (t *Table) EnsureMapped(vpn arch.VPN) arch.PFN {
	p := t.Walk(vpn, true)
	return p.Leaf
}

// MarkAccessed sets the accessed bit of vpn's PTE if it is mapped, returning
// whether the bit transitioned from clear to set.
func (t *Table) MarkAccessed(vpn arch.VPN) bool {
	if t.IsHuge(vpn) {
		blk, ok := t.hugeBlocks[hugeBase(vpn)]
		if !ok || blk.accessed {
			return false
		}
		blk.accessed = true
		t.hugeBlocks[hugeBase(vpn)] = blk
		return true
	}
	n := t.root
	for level := 0; level < t.levels-1; level++ {
		n = n.children[t.radixIndex(vpn, level)]
		if n == nil {
			return false
		}
	}
	return n.leaves[t.radixIndex(vpn, t.levels-1)].markAccessed()
}

// ClearAccessed resets vpn's accessed bit, reporting whether it was set.
func (t *Table) ClearAccessed(vpn arch.VPN) bool {
	if t.IsHuge(vpn) {
		blk, ok := t.hugeBlocks[hugeBase(vpn)]
		if !ok || !blk.accessed {
			return false
		}
		blk.accessed = false
		t.hugeBlocks[hugeBase(vpn)] = blk
		return true
	}
	n := t.root
	for level := 0; level < t.levels-1; level++ {
		n = n.children[t.radixIndex(vpn, level)]
		if n == nil {
			return false
		}
	}
	return n.leaves[t.radixIndex(vpn, t.levels-1)].clearAccessed()
}

// LineGroup implements Translator with one descent to vpn's leaf node. A
// PD-level leaf line covers neighbouring 2 MB mappings, not 4 KB pages, so
// huge regions give no group: spatial prefetching of individual
// translations does not apply there.
func (t *Table) LineGroup(vpn arch.VPN) (g [arch.PTEsPerLine]PTE) {
	if t.IsHuge(vpn) {
		return g
	}
	n := t.root
	for level := 0; level < t.levels-1; level++ {
		n = n.children[t.radixIndex(vpn, level)]
		if n == nil {
			return g
		}
	}
	// A leaf entry is zero until mapped, and pages are never unmapped.
	base := t.radixIndex(vpn.LineGroup(), t.levels-1)
	decodeLine(&g, (*[arch.PTEsPerLine]entry)(n.leaves[base:]))
	return g
}

// MappedPages returns how many virtual pages have been demand-mapped.
func (t *Table) MappedPages() uint64 { return t.mappedCnt }

// Nodes returns how many page table pages exist (including the root).
func (t *Table) Nodes() uint64 { return t.nodeCnt }

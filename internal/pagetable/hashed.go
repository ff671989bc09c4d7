package pagetable

import (
	"math/rand"

	"morrigan/internal/arch"
)

// Hashed is a clustered hashed page table in the style the paper cites
// (Yaniv & Tsafrir, "Hash, Don't Cache (the Page Table)"; Section 4.3 notes
// Morrigan "would operate the same since hashed page tables preserve page
// table locality").
//
// The table is an open-addressed array of 64-byte buckets in simulated
// physical memory. Each bucket covers one VPN line group — the 8
// consecutive virtual pages whose translations a radix table would also
// pack into one cache line — so page table locality is preserved by
// construction: one bucket read yields up to 8 translations. A walk probes
// the home bucket and continues linearly on tag mismatches; each probe is
// one memory reference. There are no interior levels, so the walker's
// page-structure caches are idle with this table.
//
// The bucket array is simulated memory, not host memory: the host keeps
// only the occupied buckets' groups plus one occupancy bit per bucket, so
// a table's host footprint follows what it maps.
type Hashed struct {
	buckets   int // power of two
	basePFN   arch.PFN
	occupied  []uint64 // bit i of word i/64 is set once bucket i holds a group
	groups    map[uint64]*hashedGroup
	rng       *rand.Rand
	nextUser  arch.PFN
	scatter   int
	mappedCnt uint64
	probesSum uint64
	walks     uint64
}

// hashedGroup holds the resident PTEs of one VPN line group.
type hashedGroup struct {
	bucket int // index of the bucket the group landed in
	ptes   [arch.PTEsPerLine]entry
}

var _ Translator = (*Hashed)(nil)

// hashedBasePFN places the hashed table in the kernel region of physical
// memory, above where a radix table would allocate nodes.
const hashedBasePFN arch.PFN = 0x0080_0000 // 32 GB

// NewHashed builds a clustered hashed page table with the given bucket
// count (a power of two; one bucket is one cache line of simulated memory).
func NewHashed(seed int64, buckets int) *Hashed {
	if buckets <= 0 || buckets&(buckets-1) != 0 {
		panic("pagetable: hashed buckets must be a positive power of two")
	}
	return &Hashed{
		buckets:  buckets,
		basePFN:  hashedBasePFN,
		occupied: make([]uint64, (buckets+63)/64),
		groups:   make(map[uint64]*hashedGroup),
		rng:      rand.New(rand.NewSource(seed)),
		nextUser: userBasePFN,
		scatter:  8,
	}
}

// DefaultHashedBuckets sizes the table for the simulated workloads: 1 M
// buckets, 64 MB of simulated physical memory holding 8 M translations.
// The host holds a 128 KiB occupancy bitmap plus the groups a run maps.
const DefaultHashedBuckets = 1 << 20

// groupTag returns the hash key of vpn's line group. The offset by one is
// part of the key the hash places groups by, so the simulated layout
// depends on it.
func groupTag(vpn arch.VPN) uint64 { return uint64(vpn.LineGroup()) + 1 }

// hash mixes the group tag into a bucket index.
func (h *Hashed) hash(tag uint64) int {
	x := tag * 0x9E3779B97F4A7C15 // Fibonacci hashing
	return int((x >> 32) % uint64(h.buckets))
}

// bucketAddr returns the physical address of bucket i.
func (h *Hashed) bucketAddr(i int) arch.PAddr {
	return h.basePFN.Addr() + arch.PAddr(i*arch.LineSize)
}

// isOccupied reports whether bucket i holds a group.
func (h *Hashed) isOccupied(i int) bool { return h.occupied[i>>6]&(1<<(i&63)) != 0 }

// allocUserFrame mirrors the radix table's lightly fragmented allocator.
func (h *Hashed) allocUserFrame() arch.PFN {
	if h.scatter > 0 && h.rng.Intn(4) == 0 {
		h.nextUser += arch.PFN(1 + h.rng.Intn(h.scatter))
	}
	f := h.nextUser
	h.nextUser++
	return f
}

// find returns tag's group and, when it is absent, the free bucket that
// ends its probe chain (-1 if the table is full). The chain starts at the
// home bucket and extends linearly on tag mismatches; its first
// arch.MaxRadixLevels buckets become p's references, since a real
// implementation would rehash longer chains.
//
// Buckets are never freed, and a group lands in the first free bucket of
// its chain, so every bucket from a present group's home to its own is
// occupied by other groups: its chain length is the distance between the
// two. Only an absent tag scans the occupancy bits, for the first free
// bucket.
func (h *Hashed) find(tag uint64, p *Path) (g *hashedGroup, free int) {
	home := h.hash(tag)
	chain := h.buckets // an absent tag probes the whole of a full table
	free = -1
	if g = h.groups[tag]; g != nil {
		chain = (g.bucket-home)&(h.buckets-1) + 1
	} else {
		for step := 0; step < h.buckets; step++ {
			if i := (home + step) & (h.buckets - 1); !h.isOccupied(i) {
				chain, free = step+1, i
				break
			}
		}
	}
	p.Depth = min(chain, arch.MaxRadixLevels)
	for step := 0; step < p.Depth; step++ {
		p.Addrs[step] = h.bucketAddr((home + step) & (h.buckets - 1))
	}
	return g, free
}

// Walk implements Translator: the probe sequence becomes the walk's memory
// references.
func (h *Hashed) Walk(vpn arch.VPN, allocate bool) Path {
	tag := groupTag(vpn)
	var p Path
	g, free := h.find(tag, &p)
	h.walks++
	h.probesSum += uint64(p.Depth)
	slot := uint64(vpn) % arch.PTEsPerLine
	if g != nil && g.ptes[slot].present() {
		p.Present = true
		p.Leaf = g.ptes[slot].pfn()
		return p
	}
	if !allocate {
		return p
	}
	if g == nil {
		if free < 0 {
			panic("pagetable: hashed table full")
		}
		g = &hashedGroup{bucket: free}
		h.occupied[free>>6] |= 1 << (free & 63)
		h.groups[tag] = g
	}
	g.ptes[slot] = mapped(h.allocUserFrame())
	h.mappedCnt++
	p.Present = true
	p.Leaf = g.ptes[slot].pfn()
	return p
}

// Lookup implements Translator.
func (h *Hashed) Lookup(vpn arch.VPN) (PTE, bool) {
	g, ok := h.groups[groupTag(vpn)]
	if !ok {
		return PTE{}, false
	}
	pte := g.ptes[uint64(vpn)%arch.PTEsPerLine].pte()
	return pte, pte.Present
}

// EnsureMapped implements Translator.
func (h *Hashed) EnsureMapped(vpn arch.VPN) arch.PFN {
	return h.Walk(vpn, true).Leaf
}

// MarkAccessed implements Translator.
func (h *Hashed) MarkAccessed(vpn arch.VPN) bool {
	g, ok := h.groups[groupTag(vpn)]
	if !ok {
		return false
	}
	return g.ptes[uint64(vpn)%arch.PTEsPerLine].markAccessed()
}

// ClearAccessed implements Translator.
func (h *Hashed) ClearAccessed(vpn arch.VPN) bool {
	g, ok := h.groups[groupTag(vpn)]
	if !ok {
		return false
	}
	return g.ptes[uint64(vpn)%arch.PTEsPerLine].clearAccessed()
}

// LineGroup implements Translator: the bucket line holds the whole group,
// so spatial prefetching works exactly as with the radix table.
func (h *Hashed) LineGroup(vpn arch.VPN) (g [arch.PTEsPerLine]PTE) {
	if grp, ok := h.groups[groupTag(vpn)]; ok {
		decodeLine(&g, &grp.ptes)
	}
	return g
}

// InteriorLevels implements Translator: hashed walks have no interior
// levels for a PSC to skip.
func (h *Hashed) InteriorLevels() int { return 0 }

// MappedPages implements Translator.
func (h *Hashed) MappedPages() uint64 { return h.mappedCnt }

// AvgProbes reports mean bucket probes per walk (1.0 = collision-free).
func (h *Hashed) AvgProbes() float64 {
	if h.walks == 0 {
		return 0
	}
	return float64(h.probesSum) / float64(h.walks)
}

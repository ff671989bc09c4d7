package pagetable

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"morrigan/internal/arch"
)

// denseHashed is the hashed page table as it was first written: a dense
// host array holding every bucket's tag, probed bucket by bucket, and
// groups of decoded PTE structs. It stays here, unchanged but for its
// names, as the reference Hashed's sparse representation is checked
// against: the same geometry, hash, probe order, frame allocator and
// results from different code.
type denseHashed struct {
	buckets   int // power of two
	basePFN   arch.PFN
	tags      []uint64 // occupied group tag per bucket (+1 so 0 = free)
	groups    map[uint64]*denseGroup
	rng       *rand.Rand
	nextUser  arch.PFN
	scatter   int
	mappedCnt uint64
	probesSum uint64
	walks     uint64
}

// denseGroup holds the resident PTEs of one VPN line group.
type denseGroup struct {
	bucket int // index of the bucket the group landed in
	ptes   [arch.PTEsPerLine]PTE
}

func newDenseHashed(seed int64, buckets int) *denseHashed {
	if buckets <= 0 || buckets&(buckets-1) != 0 {
		panic("pagetable: hashed buckets must be a positive power of two")
	}
	return &denseHashed{
		buckets:  buckets,
		basePFN:  hashedBasePFN,
		tags:     make([]uint64, buckets),
		groups:   make(map[uint64]*denseGroup),
		rng:      rand.New(rand.NewSource(seed)),
		nextUser: userBasePFN,
		scatter:  8,
	}
}

// denseTag returns the hash key of vpn's line group, offset so that zero
// means "free bucket".
func denseTag(vpn arch.VPN) uint64 { return uint64(vpn.LineGroup()) + 1 }

// hash mixes the group tag into a bucket index.
func (h *denseHashed) hash(tag uint64) int {
	x := tag * 0x9E3779B97F4A7C15 // Fibonacci hashing
	return int((x >> 32) % uint64(h.buckets))
}

// bucketAddr returns the physical address of bucket i.
func (h *denseHashed) bucketAddr(i int) arch.PAddr {
	return h.basePFN.Addr() + arch.PAddr(i*arch.LineSize)
}

// allocUserFrame mirrors the radix table's lightly fragmented allocator.
func (h *denseHashed) allocUserFrame() arch.PFN {
	if h.scatter > 0 && h.rng.Intn(4) == 0 {
		h.nextUser += arch.PFN(1 + h.rng.Intn(h.scatter))
	}
	f := h.nextUser
	h.nextUser++
	return f
}

// find returns tag's group and, when it is absent, the free bucket that
// ends its probe chain (-1 if the table is full).
func (h *denseHashed) find(tag uint64, p *Path) (g *denseGroup, free int) {
	idx := h.hash(tag)
	for step := 0; step < h.buckets; step++ {
		i := (idx + step) % h.buckets
		if step < arch.MaxRadixLevels {
			p.Addrs[step] = h.bucketAddr(i)
			p.Depth = step + 1
		}
		switch h.tags[i] {
		case tag:
			return h.groups[tag], -1
		case 0:
			return nil, i
		}
	}
	return nil, -1
}

func (h *denseHashed) Walk(vpn arch.VPN, allocate bool) Path {
	tag := denseTag(vpn)
	var p Path
	g, free := h.find(tag, &p)
	h.walks++
	h.probesSum += uint64(p.Depth)
	slot := uint64(vpn) % arch.PTEsPerLine
	if g != nil && g.ptes[slot].Present {
		p.Present = true
		p.Leaf = g.ptes[slot].PFN
		return p
	}
	if !allocate {
		return p
	}
	if g == nil {
		if free < 0 {
			panic("pagetable: hashed table full")
		}
		g = &denseGroup{bucket: free}
		h.tags[free] = tag
		h.groups[tag] = g
	}
	g.ptes[slot] = PTE{PFN: h.allocUserFrame(), Present: true}
	h.mappedCnt++
	p.Present = true
	p.Leaf = g.ptes[slot].PFN
	return p
}

func (h *denseHashed) Lookup(vpn arch.VPN) (PTE, bool) {
	g, ok := h.groups[denseTag(vpn)]
	if !ok {
		return PTE{}, false
	}
	pte := g.ptes[uint64(vpn)%arch.PTEsPerLine]
	return pte, pte.Present
}

func (h *denseHashed) EnsureMapped(vpn arch.VPN) arch.PFN {
	return h.Walk(vpn, true).Leaf
}

func (h *denseHashed) MarkAccessed(vpn arch.VPN) bool {
	g, ok := h.groups[denseTag(vpn)]
	if !ok {
		return false
	}
	pte := &g.ptes[uint64(vpn)%arch.PTEsPerLine]
	if !pte.Present || pte.Accessed {
		return false
	}
	pte.Accessed = true
	return true
}

func (h *denseHashed) ClearAccessed(vpn arch.VPN) bool {
	g, ok := h.groups[denseTag(vpn)]
	if !ok {
		return false
	}
	pte := &g.ptes[uint64(vpn)%arch.PTEsPerLine]
	if !pte.Present || !pte.Accessed {
		return false
	}
	pte.Accessed = false
	return true
}

func (h *denseHashed) LineGroup(vpn arch.VPN) [arch.PTEsPerLine]PTE {
	if g, ok := h.groups[denseTag(vpn)]; ok {
		return g.ptes
	}
	return [arch.PTEsPerLine]PTE{}
}

func (h *denseHashed) MappedPages() uint64 { return h.mappedCnt }

func (h *denseHashed) AvgProbes() float64 {
	if h.walks == 0 {
		return 0
	}
	return float64(h.probesSum) / float64(h.walks)
}

// chain reads vpn's probe chain off the reference's bucket tags: its home
// bucket and its uncapped length, the whole table for an absent group of a
// full table.
func (h *denseHashed) chain(vpn arch.VPN) (home, length int) {
	tag := denseTag(vpn)
	home = h.hash(tag)
	for i := 0; i < h.buckets; i++ {
		if t := h.tags[(home+i)%h.buckets]; t == tag || t == 0 {
			return home, i + 1
		}
	}
	return home, h.buckets
}

// hashedOp is one call on a hashed table: kind selects the method, vpn its
// argument.
type hashedOp struct {
	kind uint8
	vpn  arch.VPN
}

const hashedOpKinds = 7

// hashedCoverage says which hard cases a run of compareWithDense reached.
type hashedCoverage struct {
	longChain bool // a walk's chain was longer than arch.MaxRadixLevels
	wrapped   bool // a walk's chain ran past the last bucket to the first
	full      bool // a demand walk found the table full and panicked
}

// hashedTable is what Hashed and the dense reference have in common.
type hashedTable interface {
	Walk(arch.VPN, bool) Path
	Lookup(arch.VPN) (PTE, bool)
	EnsureMapped(arch.VPN) arch.PFN
	MarkAccessed(arch.VPN) bool
	ClearAccessed(arch.VPN) bool
	LineGroup(arch.VPN) [arch.PTEsPerLine]PTE
	MappedPages() uint64
	AvgProbes() float64
}

// call runs op on tr and renders what it returned, panics included, so
// that two tables' results compare as strings.
func call(op hashedOp, tr hashedTable) (out string) {
	defer func() {
		if r := recover(); r != nil {
			out = fmt.Sprintf("panic(%v)", r)
		}
		out += fmt.Sprintf(" mapped=%d probes=%v", tr.MappedPages(), tr.AvgProbes())
	}()
	switch op.kind % hashedOpKinds {
	case 0:
		return fmt.Sprintf("%+v", tr.Walk(op.vpn, true))
	case 1:
		return fmt.Sprintf("%+v", tr.Walk(op.vpn, false))
	case 2:
		pte, ok := tr.Lookup(op.vpn)
		return fmt.Sprintf("%+v %v", pte, ok)
	case 3:
		return fmt.Sprint(tr.EnsureMapped(op.vpn))
	case 4:
		return fmt.Sprint(tr.MarkAccessed(op.vpn))
	case 5:
		return fmt.Sprint(tr.ClearAccessed(op.vpn))
	default:
		return fmt.Sprintf("%+v", tr.LineGroup(op.vpn))
	}
}

// compareWithDense replays ops on a Hashed and on the dense reference of
// the same seed and geometry and fails at the first call whose results
// differ: every Path field, every returned PTE, frame and flag, the panic
// of a full table, and MappedPages and AvgProbes after each call.
func compareWithDense(t testing.TB, seed int64, buckets int, ops []hashedOp) (cov hashedCoverage) {
	t.Helper()
	h, d := NewHashed(seed, buckets), newDenseHashed(seed, buckets)
	for n, op := range ops {
		if k := op.kind % hashedOpKinds; k <= 1 || k == 3 {
			home, length := d.chain(op.vpn)
			cov.longChain = cov.longChain || length > arch.MaxRadixLevels
			cov.wrapped = cov.wrapped || home+length > buckets
		}
		got, want := call(op, h), call(op, d)
		if got != want {
			t.Fatalf("buckets %d seed %d, op %d (kind %d, vpn %#x):\n got  %s\n want %s",
				buckets, seed, n, op.kind%hashedOpKinds, op.vpn, got, want)
		}
		cov.full = cov.full || strings.HasPrefix(want, "panic")
	}
	return cov
}

// randomHashedOps draws n calls over groups distinct line groups, with
// demand walks weighted up so that small tables fill.
func randomHashedOps(rng *rand.Rand, n, groups int) []hashedOp {
	ops := make([]hashedOp, n)
	for i := range ops {
		kind := uint8(rng.Intn(hashedOpKinds + 3))
		if kind >= hashedOpKinds {
			kind = 0 // a demand walk
		}
		g := arch.VPN(rng.Intn(groups)) * arch.PTEsPerLine * 977
		ops[i] = hashedOp{kind: kind, vpn: g + arch.VPN(rng.Intn(arch.PTEsPerLine))}
	}
	return ops
}

// TestHashedMatchesDense checks the sparse Hashed against the dense
// reference over random call sequences on tables of 16 to 256 buckets,
// with more line groups than buckets so that every table fills: chains
// wrap past the last bucket, grow longer than arch.MaxRadixLevels, and end
// in the full-table panic.
func TestHashedMatchesDense(t *testing.T) {
	for buckets := 16; buckets <= 256; buckets *= 2 {
		var cov hashedCoverage
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed * int64(buckets)))
			c := compareWithDense(t, seed, buckets, randomHashedOps(rng, 40*buckets, buckets+buckets/4))
			cov.longChain = cov.longChain || c.longChain
			cov.wrapped = cov.wrapped || c.wrapped
			cov.full = cov.full || c.full
		}
		if !cov.longChain || !cov.wrapped || !cov.full {
			t.Errorf("buckets %d: coverage %+v, want every case reached", buckets, cov)
		}
	}
}

// FuzzHashedMatchesDense runs compareWithDense on fuzzed call sequences.
// The first byte picks the table size (16 to 256 buckets); each further
// pair of bytes is one call, its kind and its VPN's line group and slot.
func FuzzHashedMatchesDense(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 16, 200} {
		seed := make([]byte, 1+2*n)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		buckets := 16 << (data[0] % 5)
		var ops []hashedOp
		for b := data[1:]; len(b) >= 2; b = b[2:] {
			group := arch.VPN(b[1]>>3) | arch.VPN(b[0]>>3)<<5 // up to 1,024 groups
			ops = append(ops, hashedOp{
				kind: b[0] & 7,
				vpn:  group*arch.PTEsPerLine*977 + arch.VPN(b[1]&7),
			})
		}
		compareWithDense(t, 1, buckets, ops)
	})
}

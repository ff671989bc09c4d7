// Package tlb models the translation lookaside buffers of Table 1: the
// first-level instruction and data TLBs and the shared second-level TLB
// (STLB), all set-associative with LRU replacement.
//
// Entries are tagged with a thread ID so the SMT experiments can share one
// physical STLB between two colocated workloads without mixing their
// translations, mirroring ASID tagging in real parts.
//
// Storage is struct-of-arrays: each entry is a packed key word (VPN, thread
// id, valid bit) in a flat keys array with a parallel pfns array, so the set
// scans in the simulator's hottest loop stream one dense uint64 array. Each
// set is kept in recency order, most recently used first with valid ways
// forming a prefix, so the LRU victim of a full set is its last way and no
// timestamps are kept. When the set count is a power of two the set index is
// a mask instead of a modulo; both forms compute the identical index,
// keeping Figure 18's non-power-of-two iso-storage STLB bit-identical.
package tlb

import (
	"morrigan/internal/arch"
)

// key packs a (thread, page) pair into one comparable word. Bit 0 is the
// valid marker (an invalid slot is simply zero), bits 1-8 hold the thread id
// and bits 9+ hold the VPN.
func key(tid arch.ThreadID, vpn arch.VPN) uint64 {
	return uint64(vpn)<<9 | uint64(tid)<<1 | 1
}

// TLB is one set-associative translation buffer.
type TLB struct {
	name    string
	sets    int
	ways    int
	mask    uint64 // sets-1 when sets is a power of two, else 0
	latency arch.Cycle

	keys []uint64 // each set most recently used first; 0 = invalid
	pfns []arch.PFN

	accesses uint64
	misses   uint64
}

// New builds a TLB with the given total entry count and associativity. The
// set count is entries/ways; it need not be a power of two (the enlarged
// iso-storage STLB of Figure 18 is not).
func New(name string, entries, ways int, latency arch.Cycle) *TLB {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("tlb: entries must be a positive multiple of ways")
	}
	sets := entries / ways
	t := &TLB{
		name:    name,
		sets:    sets,
		ways:    ways,
		latency: latency,
		keys:    make([]uint64, entries),
		pfns:    make([]arch.PFN, entries),
	}
	if sets&(sets-1) == 0 {
		t.mask = uint64(sets - 1)
	}
	return t
}

// Entries returns the TLB capacity.
func (t *TLB) Entries() int { return t.sets * t.ways }

// Latency returns the lookup latency in cycles.
func (t *TLB) Latency() arch.Cycle { return t.latency }

// Name returns the TLB's configured name.
func (t *TLB) Name() string { return t.name }

// base returns the first slot index of vpn's set.
func (t *TLB) base(vpn arch.VPN) int {
	if t.mask != 0 || t.sets == 1 {
		return int(uint64(vpn)&t.mask) * t.ways
	}
	return int(uint64(vpn)%uint64(t.sets)) * t.ways
}

// find returns the way of the set at base holding key k, or -1.
func (t *TLB) find(base int, k uint64) int {
	for i, e := range t.keys[base : base+t.ways] {
		if e == k {
			return i
		}
	}
	return -1
}

// toFront shifts the ways ahead of slot way back one place, dropping what
// the slot held, and writes k -> pfn as the set's most recently used entry.
func (t *TLB) toFront(base, way int, k uint64, pfn arch.PFN) {
	keys := t.keys[base : base+way+1]
	pfns := t.pfns[base : base+len(keys)]
	for i := way; i > 0; i-- {
		keys[i], pfns[i] = keys[i-1], pfns[i-1]
	}
	keys[0], pfns[0] = k, pfn
}

// Lookup probes for the translation, promoting it on hit.
func (t *TLB) Lookup(tid arch.ThreadID, vpn arch.VPN) (arch.PFN, bool) {
	t.accesses++
	k, base := key(tid, vpn), t.base(vpn)
	way := t.find(base, k)
	if way < 0 {
		t.misses++
		return 0, false
	}
	pfn := t.pfns[base+way]
	t.toFront(base, way, k, pfn)
	return pfn, true
}

// Peek returns the translation without updating replacement or statistics;
// background prefetch paths use it so they never contend with demand
// lookups.
func (t *TLB) Peek(tid arch.ThreadID, vpn arch.VPN) (arch.PFN, bool) {
	base := t.base(vpn)
	way := t.find(base, key(tid, vpn))
	if way < 0 {
		return 0, false
	}
	return t.pfns[base+way], true
}

// Contains probes without updating replacement or statistics.
func (t *TLB) Contains(tid arch.ThreadID, vpn arch.VPN) bool {
	return t.find(t.base(vpn), key(tid, vpn)) >= 0
}

// Insert fills the translation, evicting the set's LRU entry if needed. A
// translation already present takes the new PFN and is promoted.
func (t *TLB) Insert(tid arch.ThreadID, vpn arch.VPN, pfn arch.PFN) {
	k, base := key(tid, vpn), t.base(vpn)
	way := t.find(base, k)
	if way < 0 {
		// The last way holds the LRU victim of a full set, and is invalid
		// in a set that is not full, where shifting the invalid ways back
		// along with the valid ones keeps the valid ways a prefix.
		way = t.ways - 1
	}
	t.toFront(base, way, k, pfn)
}

// Flush invalidates every entry (context switch).
func (t *TLB) Flush() {
	clear(t.keys)
}

// Accesses returns lookup count since the last ResetStats.
func (t *TLB) Accesses() uint64 { return t.accesses }

// Misses returns lookup misses since the last ResetStats.
func (t *TLB) Misses() uint64 { return t.misses }

// ResetStats clears counters, keeping contents (warmup boundary).
func (t *TLB) ResetStats() { t.accesses, t.misses = 0, 0 }

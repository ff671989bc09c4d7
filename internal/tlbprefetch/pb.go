package tlbprefetch

import "morrigan/internal/arch"

// PrefetchBuffer is the fully associative buffer that holds prefetched
// translations (Table 1: 64-entry, fully associative, 2-cycle). On a hit the
// entry is moved to the STLB, so Lookup removes it. Each entry carries the
// provenance token of the request that produced it so the owning prefetcher
// can be credited (Morrigan's confidence update, step 6 of Figure 12).
//
// Entries are stored struct-of-arrays: a packed key word (VPN, thread id and
// a valid bit) plus parallel pfn/token/ready/used arrays, so the associative
// scans touch one dense uint64 array instead of striding over wide structs.
type PrefetchBuffer struct {
	capacity int
	latency  arch.Cycle

	keys   []uint64 // vpn<<9 | tid<<1 | 1; zero means invalid
	pfns   []arch.PFN
	tokens []Token
	readys []arch.Cycle
	used   []uint64

	tick uint64

	lookups uint64
	hits    uint64
	inserts uint64
	useless uint64 // evicted without ever hitting

	// onEvict, when set, observes entries displaced without having served
	// a miss (the trigger for the paper's correcting page walks).
	onEvict func(tid arch.ThreadID, vpn arch.VPN)
}

// pbKey packs a (thread, page) pair into one comparable word with the low
// bit as a valid marker, so invalid slots are simply zero.
func pbKey(tid arch.ThreadID, vpn arch.VPN) uint64 {
	return uint64(vpn)<<9 | uint64(tid)<<1 | 1
}

func pbKeyTID(key uint64) arch.ThreadID { return arch.ThreadID(key >> 1 & 0xff) }

func pbKeyVPN(key uint64) arch.VPN { return arch.VPN(key >> 9) }

// NewPrefetchBuffer builds a PB with the given capacity and lookup latency.
func NewPrefetchBuffer(capacity int, latency arch.Cycle) *PrefetchBuffer {
	if capacity <= 0 {
		panic("tlbprefetch: PB capacity must be positive")
	}
	return &PrefetchBuffer{
		capacity: capacity,
		latency:  latency,
		keys:     make([]uint64, capacity),
		pfns:     make([]arch.PFN, capacity),
		tokens:   make([]Token, capacity),
		readys:   make([]arch.Cycle, capacity),
		used:     make([]uint64, capacity),
	}
}

// Latency returns the PB lookup latency.
func (b *PrefetchBuffer) Latency() arch.Cycle { return b.latency }

// Capacity returns the PB entry count.
func (b *PrefetchBuffer) Capacity() int { return b.capacity }

// Lookup searches for a translation. On a hit the entry is removed (it moves
// to the STLB) and its provenance token is returned together with the cycle
// at which the prefetch page walk completed — a demand miss arriving before
// that still waits for the remainder (late-prefetch timeliness).
func (b *PrefetchBuffer) Lookup(tid arch.ThreadID, vpn arch.VPN) (pfn arch.PFN, token Token, ready arch.Cycle, ok bool) {
	b.lookups++
	k := pbKey(tid, vpn)
	for i, key := range b.keys {
		if key == k {
			b.hits++
			b.keys[i] = 0
			return b.pfns[i], b.tokens[i], b.readys[i], true
		}
	}
	return 0, TokenNone, 0, false
}

// Contains probes without removal or statistics; prefetch deduplication uses
// this (step 10 of Figure 12 — the PB, not the STLB, is checked so demand
// STLB lookups are not contended).
func (b *PrefetchBuffer) Contains(tid arch.ThreadID, vpn arch.VPN) bool {
	k := pbKey(tid, vpn)
	for _, key := range b.keys {
		if key == k {
			return true
		}
	}
	return false
}

// Peek returns the translation without removing the entry or updating
// statistics; background consumers (I-cache prefetch translation) use it.
func (b *PrefetchBuffer) Peek(tid arch.ThreadID, vpn arch.VPN) (arch.PFN, bool) {
	k := pbKey(tid, vpn)
	for i, key := range b.keys {
		if key == k {
			return b.pfns[i], true
		}
	}
	return 0, false
}

// Insert installs a prefetched translation, evicting the LRU entry when the
// buffer is full. ready is the cycle at which the producing prefetch page
// walk completes.
func (b *PrefetchBuffer) Insert(tid arch.ThreadID, vpn arch.VPN, pfn arch.PFN, token Token, ready arch.Cycle) {
	b.tick++
	b.inserts++
	k := pbKey(tid, vpn)
	victim := 0
	for i, key := range b.keys {
		if key == k {
			// Refresh in place; keep the original provenance and the
			// earlier completion time.
			b.pfns[i] = pfn
			b.used[i] = b.tick
			return
		}
		if key == 0 {
			b.set(i, k, pfn, token, ready)
			return
		}
		if b.used[i] < b.used[victim] {
			victim = i
		}
	}
	b.useless++
	if b.onEvict != nil {
		b.onEvict(pbKeyTID(b.keys[victim]), pbKeyVPN(b.keys[victim]))
	}
	b.set(victim, k, pfn, token, ready)
}

func (b *PrefetchBuffer) set(i int, key uint64, pfn arch.PFN, token Token, ready arch.Cycle) {
	b.keys[i] = key
	b.pfns[i] = pfn
	b.tokens[i] = token
	b.readys[i] = ready
	b.used[i] = b.tick
}

// SetEvictionHandler registers fn to be called whenever a valid entry is
// displaced without ever having hit. Section 4.3 uses this event to issue
// correcting page walks that reset the accessed bit of unused prefetches.
func (b *PrefetchBuffer) SetEvictionHandler(fn func(tid arch.ThreadID, vpn arch.VPN)) {
	b.onEvict = fn
}

// Flush drops all entries (context switch).
func (b *PrefetchBuffer) Flush() {
	clear(b.keys)
}

// Lookups returns Lookup calls since the last ResetStats.
func (b *PrefetchBuffer) Lookups() uint64 { return b.lookups }

// Hits returns Lookup hits since the last ResetStats.
func (b *PrefetchBuffer) Hits() uint64 { return b.hits }

// Inserts returns Insert calls since the last ResetStats.
func (b *PrefetchBuffer) Inserts() uint64 { return b.inserts }

// Evictions returns entries evicted without servicing a miss.
func (b *PrefetchBuffer) Evictions() uint64 { return b.useless }

// ResetStats clears counters, keeping contents.
func (b *PrefetchBuffer) ResetStats() { b.lookups, b.hits, b.inserts, b.useless = 0, 0, 0, 0 }

// Settle marks every resident entry's producing walk as complete (ready at
// cycle zero), keeping contents intact. Sampled execution calls it when the
// simulation clock rebases between timed slices: entries inserted under the
// previous slice's clock epoch finished long ago in simulated time, but
// their absolute ready timestamps would read as far-future under the new
// epoch and charge phantom late-prefetch stalls.
func (b *PrefetchBuffer) Settle() {
	clear(b.readys)
}

package ptw

import (
	"morrigan/internal/arch"
	"morrigan/internal/cache"
	"morrigan/internal/pagetable"
)

// WalkResult reports the outcome of one page walk.
type WalkResult struct {
	// Latency is the walk's total latency: PSC lookup plus the (serialized,
	// or parallel under ASAP) memory references.
	Latency arch.Cycle
	// MemRefs is how many page-walk references reached the memory
	// hierarchy.
	MemRefs int
	// Present reports whether a translation was obtained. Prefetch walks
	// for unmapped pages fail here (non-faulting prefetches).
	Present bool
	// PFN is the translation when Present.
	PFN arch.PFN
	// LeafFetched reports that the walk read the leaf PTE's cache line, so
	// the mapped translations in the table's LineGroup for the walked page
	// are available "for free", without further memory references.
	LeafFetched bool
	// Queued is the extra delay this walk spent waiting for a free walker
	// MSHR (demand walks only; prefetch walks are dropped instead).
	Queued arch.Cycle
}

// Config controls the walker.
type Config struct {
	PSC PSCConfig
	// MSHRs is the number of in-flight walks the walker sustains; Table 1
	// uses 4. Demand walks queue when all are busy; prefetch walks are
	// dropped.
	MSHRs int
	// ASAP, when set, models Prefetched Address Translation (Margaritov et
	// al., MICRO'19): the references below the deepest PSC hit are launched
	// concurrently, so the walk's memory latency is the maximum rather than
	// the sum of the per-level latencies.
	ASAP bool
}

// DefaultConfig mirrors Table 1 with ASAP off.
func DefaultConfig() Config {
	return Config{PSC: DefaultPSCConfig(), MSHRs: 4}
}

// Walker performs page walks against a page table (radix or hashed),
// filtered through the PSC when the table has interior levels, with memory
// references served by the cache hierarchy.
type Walker struct {
	table    pagetable.Translator
	psc      *PSC
	interior int
	mem      *cache.Hierarchy
	cfg      Config
	busy     []arch.Cycle // per-MSHR busy-until timestamps

	demandWalks     uint64
	demandRefs      uint64
	prefetchWalks   uint64
	prefetchRefs    uint64
	droppedWalks    uint64
	correctingWalks uint64
}

// New builds a walker. The page table and hierarchy are shared with the rest
// of the simulated machine.
func New(pt pagetable.Translator, mem *cache.Hierarchy, cfg Config) *Walker {
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 1
	}
	interior := pt.InteriorLevels()
	return &Walker{
		table:    pt,
		interior: interior,
		psc:      NewPSC(cfg.PSC, interior+1),
		mem:      mem,
		cfg:      cfg,
		busy:     make([]arch.Cycle, cfg.MSHRs),
	}
}

// PSC exposes the walker's page-structure cache.
func (w *Walker) PSC() *PSC { return w.psc }

// Walk performs a page walk for vpn at time now. Demand walks map unmapped
// pages on first touch (demand paging) and queue for walker MSHRs; prefetch
// walks are non-faulting and are dropped (Present=false, MemRefs=0) when all
// MSHRs are busy, without touching the memory hierarchy.
func (w *Walker) Walk(tid arch.ThreadID, vpn arch.VPN, now arch.Cycle, demand bool) WalkResult {
	// MSHR accounting. Only prefetch walks reserve MSHR slots: a prefetch
	// walk finding every slot busy is dropped, and a demand walk finding
	// every slot busy with prefetch walks waits for the earliest one (the
	// port contention that degrades page-crossing I-cache prefetching,
	// Section 3.5). Demand-demand overlap is handled by the core's MLP
	// model, not here, so demand walks never reserve slots.
	slot := 0
	for i, b := range w.busy {
		if b < w.busy[slot] {
			slot = i
		}
	}
	var queued arch.Cycle
	if w.busy[slot] > now {
		if !demand {
			w.droppedWalks++
			return WalkResult{}
		}
		queued = w.busy[slot] - now
	}

	path := w.table.Walk(vpn, demand)
	start := 0
	var res WalkResult
	res.Queued = queued
	if w.interior > 0 {
		// Radix walk: consult the page-structure caches.
		start = w.psc.Lookup(tid, vpn)
		res.Latency = w.psc.Latency()
	}

	kind := cache.KindPTWPrefetch
	if demand {
		kind = cache.KindPTWDemand
	}
	var maxRef arch.Cycle
	for level := start; level < path.Depth; level++ {
		r := w.mem.Access(kind, path.Addrs[level])
		res.MemRefs++
		res.Latency += r.Latency
		if r.Latency > maxRef {
			maxRef = r.Latency
		}
	}
	if w.cfg.ASAP && w.interior > 0 && res.MemRefs > 1 {
		// All remaining levels were launched concurrently.
		res.Latency = w.psc.Latency() + maxRef
	}
	if !demand {
		w.busy[slot] = now + res.Latency
	}

	res.Present = path.Present
	res.PFN = path.Leaf
	res.LeafFetched = path.Present || path.Depth == w.interior+1
	if w.interior > 0 {
		// Cache the interior prefixes the walk resolved. resolvedThrough
		// is the deepest interior level whose child exists.
		resolved := path.Depth - 1
		if path.Present {
			resolved = w.interior
		}
		w.psc.Fill(tid, vpn, start, resolved)
	}

	if path.Present {
		// x86 requires even prefetched translations to set the accessed
		// bit (Section 4.3).
		w.table.MarkAccessed(vpn)
	}
	if demand {
		w.demandWalks++
		w.demandRefs += uint64(res.MemRefs)
	} else {
		w.prefetchWalks++
		w.prefetchRefs += uint64(res.MemRefs)
	}
	return res
}

// CorrectAccessed issues a correcting page walk that resets the accessed
// bit of a prefetched-but-unused translation (Section 4.3: "these correcting
// page walks could be issued when the TLB MSHR is not full to avoid delaying
// any other page walk"). The walk is skipped when every MSHR is busy. It
// returns whether the correction was performed.
func (w *Walker) CorrectAccessed(tid arch.ThreadID, vpn arch.VPN, now arch.Cycle) bool {
	slot := 0
	for i, b := range w.busy {
		if b < w.busy[slot] {
			slot = i
		}
	}
	if w.busy[slot] > now {
		return false
	}
	if !w.table.ClearAccessed(vpn) {
		return false
	}
	// The correction rewrites the leaf PTE: one background reference to
	// the leaf line (the upper levels are already resolved in the PSC or
	// irrelevant for a hashed table).
	path := w.table.Walk(vpn, false)
	var lat arch.Cycle = 0
	if path.Depth > 0 {
		r := w.mem.Access(cache.KindPTWPrefetch, path.Addrs[path.Depth-1])
		lat = r.Latency
		w.prefetchRefs++
	}
	w.busy[slot] = now + lat
	w.correctingWalks++
	return true
}

// CorrectingWalks returns how many correcting walks were performed.
func (w *Walker) CorrectingWalks() uint64 { return w.correctingWalks }

// Stats snapshot accessors.

// DemandWalks returns the number of demand walks since the last ResetStats.
func (w *Walker) DemandWalks() uint64 { return w.demandWalks }

// DemandRefs returns memory references issued by demand walks.
func (w *Walker) DemandRefs() uint64 { return w.demandRefs }

// PrefetchWalks returns the number of completed prefetch walks.
func (w *Walker) PrefetchWalks() uint64 { return w.prefetchWalks }

// PrefetchRefs returns memory references issued by prefetch walks.
func (w *Walker) PrefetchRefs() uint64 { return w.prefetchRefs }

// DroppedWalks returns prefetch walks dropped for lack of MSHRs.
func (w *Walker) DroppedWalks() uint64 { return w.droppedWalks }

// RefsPerDemandWalk returns the mean memory references per demand walk (the
// paper reports 1.4 on the QMM workloads thanks to high PSC hit rates).
func (w *Walker) RefsPerDemandWalk() float64 {
	if w.demandWalks == 0 {
		return 0
	}
	return float64(w.demandRefs) / float64(w.demandWalks)
}

// ResetStats clears counters, keeping PSC contents and MSHR state.
func (w *Walker) ResetStats() {
	w.demandWalks, w.demandRefs = 0, 0
	w.prefetchWalks, w.prefetchRefs = 0, 0
	w.droppedWalks, w.correctingWalks = 0, 0
}

// Settle frees every MSHR slot. Sampled execution calls it when the
// simulation clock rebases between timed slices: busy-until timestamps from
// the previous slice's clock epoch would read as far-future under the new
// epoch, queueing demand walks behind phantom occupancy and dropping every
// prefetch walk.
func (w *Walker) Settle() {
	for i := range w.busy {
		w.busy[i] = 0
	}
}

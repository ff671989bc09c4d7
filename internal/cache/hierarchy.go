package cache

import (
	"fmt"

	"morrigan/internal/arch"
)

// Kind distinguishes the request streams through the hierarchy, for
// statistics and routing.
type Kind int

// Request streams.
const (
	KindFetch       Kind = iota // demand instruction fetch (L1I path)
	KindLoad                    // demand data read (L1D path)
	KindStore                   // demand data write (L1D path)
	KindPTWDemand               // page-walk reference of a demand walk
	KindPTWPrefetch             // page-walk reference of a prefetch walk
	KindPrefetch                // cache prefetch fill traffic
	numKinds
)

// NumKinds is the number of request streams.
const NumKinds = int(numKinds)

// String names the request stream.
func (k Kind) String() string {
	switch k {
	case KindFetch:
		return "fetch"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindPTWDemand:
		return "ptw-demand"
	case KindPTWPrefetch:
		return "ptw-prefetch"
	case KindPrefetch:
		return "prefetch"
	}
	return "invalid"
}

// Result reports how an access was served.
type Result struct {
	// Latency is the total round-trip latency in cycles.
	Latency arch.Cycle
	// Level is the hierarchy level that supplied the data.
	Level arch.Level
}

// Config sets the hierarchy geometry and latencies. Defaults mirror Table 1.
type Config struct {
	L1ISets, L1IWays int
	L1DSets, L1DWays int
	L2Sets, L2Ways   int
	LLCSets, LLCWays int

	L1Latency   arch.Cycle
	L2Latency   arch.Cycle
	LLCLatency  arch.Cycle
	DRAMLatency arch.Cycle

	// L2StridePrefetch enables the simple per-page stride prefetcher at L2
	// standing in for the paper's SPP configuration.
	L2StridePrefetch bool
}

// DefaultConfig mirrors Table 1: 32 KB 8-way L1s, 512 KB 8-way L2, 2 MB
// 16-way LLC; 4/8/10-cycle latencies; DRAM latency representative of the
// paper's DDR settings at a 4 GHz core.
func DefaultConfig() Config {
	return Config{
		L1ISets: 64, L1IWays: 8, // 32 KB
		L1DSets: 64, L1DWays: 8, // 32 KB
		L2Sets: 1024, L2Ways: 8, // 512 KB
		LLCSets: 2048, LLCWays: 16, // 2 MB
		L1Latency:        4,
		L2Latency:        8,
		LLCLatency:       10,
		DRAMLatency:      170,
		L2StridePrefetch: true,
	}
}

// Validate checks every level's geometry, so a configuration arriving from
// outside the program is rejected with an error before NewHierarchy would
// panic on it.
func (c Config) Validate() error {
	for _, l := range []struct {
		name       string
		sets, ways int
	}{
		{"L1I", c.L1ISets, c.L1IWays},
		{"L1D", c.L1DSets, c.L1DWays},
		{"L2", c.L2Sets, c.L2Ways},
		{"LLC", c.LLCSets, c.LLCWays},
	} {
		if err := checkGeometry(l.sets, l.ways); err != nil {
			return fmt.Errorf("cache: %s %w", l.name, err)
		}
	}
	return nil
}

// Hierarchy is the full cache hierarchy plus DRAM.
type Hierarchy struct {
	L1I, L1D, L2, LLC *Cache
	cfg               Config

	l2pf *stridePrefetcher

	// served[kind][level] counts accesses per stream per serving level.
	served [numKinds][arch.NumLevels]uint64
}

// NewHierarchy builds the hierarchy from cfg.
func NewHierarchy(cfg Config) *Hierarchy {
	h := &Hierarchy{
		L1I: NewCache("L1I", cfg.L1ISets, cfg.L1IWays),
		L1D: NewCache("L1D", cfg.L1DSets, cfg.L1DWays),
		L2:  NewCache("L2", cfg.L2Sets, cfg.L2Ways),
		LLC: NewCache("LLC", cfg.LLCSets, cfg.LLCWays),
		cfg: cfg,
	}
	if cfg.L2StridePrefetch {
		h.l2pf = newStridePrefetcher(256)
	}
	return h
}

// l1For returns the first-level cache for a request stream. Page-walk
// references go through the data path, as on real x86 walkers.
func (h *Hierarchy) l1For(kind Kind) *Cache {
	if kind == KindFetch {
		return h.L1I
	}
	return h.L1D
}

// Access performs one demand access at the physical address, updating cache
// state and statistics, and returns where and how fast it was served.
//
// Each level's set is scanned once: the lookup that misses a level also
// finds the slot the fill on the way back up takes. The levels are distinct
// caches, so filling them after the lower levels were probed leaves the
// same contents as looking up downward and then inserting upward.
func (h *Hierarchy) Access(kind Kind, addr arch.PAddr) Result {
	lineAddr := addr.Line()
	l1 := h.l1For(kind)
	level := arch.LevelL1
	if s1, w1, hit := l1.lookup(lineAddr); !hit {
		level = arch.LevelL2
		if s2, w2, hit := h.L2.lookup(lineAddr); !hit {
			level = arch.LevelLLC
			if s3, w3, hit := h.LLC.lookup(lineAddr); !hit {
				level = arch.LevelDRAM
				toFront(s3, w3, lineAddr)
			}
			toFront(s2, w2, lineAddr)
		}
		toFront(s1, w1, lineAddr)
	}
	h.served[kind][level]++
	res := Result{Latency: h.FillLatency(level), Level: level}

	if h.l2pf != nil && (kind == KindLoad || kind == KindStore) {
		if next, ok := h.l2pf.observe(addr); ok {
			h.PrefetchInto(arch.LevelL2, next)
		}
	}
	return res
}

// PrefetchInto fills a line into the given level (and below it, down to the
// LLC) without charging demand latency; used by cache prefetchers. It
// returns the level that supplied the data, from which callers can derive
// the fill's completion time. Like Access, it scans each level's set once.
func (h *Hierarchy) PrefetchInto(level arch.Level, addr arch.PAddr) arch.Level {
	lineAddr := addr.Line()
	s2, w2, inL2 := h.L2.probe(lineAddr)
	if inL2 && level >= arch.LevelL2 {
		return arch.LevelL2
	}
	s3, w3, inLLC := h.LLC.probe(lineAddr)
	served := arch.LevelDRAM
	if inL2 {
		served = arch.LevelL2
	} else if inLLC {
		served = arch.LevelLLC
	}
	h.served[KindPrefetch][served]++
	if level == arch.LevelL1 {
		h.L1I.Insert(lineAddr)
	}
	if level <= arch.LevelL2 {
		toFront(s2, w2, lineAddr)
	}
	toFront(s3, w3, lineAddr)
	return served
}

// FillLatency returns the round-trip latency of a fill served by the given
// level.
func (h *Hierarchy) FillLatency(level arch.Level) arch.Cycle {
	switch level {
	case arch.LevelL1:
		return h.cfg.L1Latency
	case arch.LevelL2:
		return h.cfg.L1Latency + h.cfg.L2Latency
	case arch.LevelLLC:
		return h.cfg.L1Latency + h.cfg.L2Latency + h.cfg.LLCLatency
	default:
		return h.cfg.L1Latency + h.cfg.L2Latency + h.cfg.LLCLatency + h.cfg.DRAMLatency
	}
}

// ContainsLine reports whether any level below the L1s holds the line; used
// by prefetchers to estimate timeliness.
func (h *Hierarchy) ContainsLine(addr arch.PAddr) bool {
	lineAddr := addr.Line()
	return h.L2.Contains(lineAddr) || h.LLC.Contains(lineAddr)
}

// Served returns how many accesses of the given stream were served by the
// given level since the last ResetStats.
func (h *Hierarchy) Served(kind Kind, level arch.Level) uint64 {
	return h.served[kind][level]
}

// ServedTotal returns the total accesses of the stream.
func (h *Hierarchy) ServedTotal(kind Kind) uint64 {
	var t uint64
	for _, c := range h.served[kind] {
		t += c
	}
	return t
}

// ResetStats clears all statistics, keeping contents (warmup boundary).
func (h *Hierarchy) ResetStats() {
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.L2.ResetStats()
	h.LLC.ResetStats()
	h.served = [numKinds][arch.NumLevels]uint64{}
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// stridePrefetcher is a minimal per-page stride prefetcher standing in for
// the paper's SPP at L2: it tracks the last offset and delta per data page
// and prefetches the next line when a stride repeats.
//
// The table is open-addressed with linear probing instead of a Go map — it
// sits on the data-access hot path, and its only delete is the wholesale
// reset at capacity, so no tombstone or backward-shift machinery is needed.
// Keys are the page number plus one; zero marks an empty slot.
type stridePrefetcher struct {
	keys    []uint64 // page+1, 0 = empty; len is a power of two
	entries []strideEntry
	mask    uint64
	n       int // live entries
	cap     int
}

type strideEntry struct {
	lastLine int64
	delta    int64
	conf     int
}

func newStridePrefetcher(capacity int) *stridePrefetcher {
	slots := 1
	for slots < 2*capacity {
		slots <<= 1
	}
	return &stridePrefetcher{
		keys:    make([]uint64, slots),
		entries: make([]strideEntry, slots),
		mask:    uint64(slots - 1),
		cap:     capacity,
	}
}

// slot returns the index holding page, or the first empty slot of its probe
// sequence if the page is untracked.
func (p *stridePrefetcher) slot(page uint64) uint64 {
	h := page * 0x9E3779B97F4A7C15
	i := (h ^ h>>32) & p.mask
	k := page + 1
	for p.keys[i] != 0 && p.keys[i] != k {
		i = (i + 1) & p.mask
	}
	return i
}

// observe records a demand access and returns a prefetch address when the
// stride is confident.
func (p *stridePrefetcher) observe(addr arch.PAddr) (arch.PAddr, bool) {
	page := uint64(addr.Page()) // physical page used as the tracking key
	lineInPage := int64(addr.Line())
	i := p.slot(page)
	if p.keys[i] == 0 {
		if p.n >= p.cap {
			// Cheap wholesale reset; a real SPP ages entries, but the
			// steady-state behaviour (recent pages tracked) is similar.
			clear(p.keys)
			p.n = 0
			i = p.slot(page)
		}
		p.keys[i] = page + 1
		p.entries[i] = strideEntry{lastLine: lineInPage}
		p.n++
		return 0, false
	}
	e := &p.entries[i]
	d := lineInPage - e.lastLine
	if d == e.delta && d != 0 {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.conf = 0
		e.delta = d
	}
	e.lastLine = lineInPage
	if e.conf >= 2 {
		// A negative target can wrap on a descending stride; the resulting
		// fill is junk but harmless and deterministic, like a real
		// prefetcher running off the start of a buffer.
		return arch.PAddr(uint64(lineInPage+e.delta) << arch.LineShift), true
	}
	return 0, false
}

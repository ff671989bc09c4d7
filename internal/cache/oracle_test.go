package cache

import (
	"math/rand"
	"testing"

	"morrigan/internal/arch"
)

// naiveCache is a deliberately simple LRU oracle for Cache: resident lines
// live in a map stamped with a global use counter, and the victim of a full
// set is found by searching the whole map for that set's oldest stamp. It
// shares nothing with Cache's layout.
type naiveCache struct {
	sets, ways       uint64
	lastUse          map[uint64]uint64 // resident line -> last use
	clock            uint64
	accesses, misses uint64
}

func newNaiveCache(sets, ways int) *naiveCache {
	return &naiveCache{sets: uint64(sets), ways: uint64(ways), lastUse: map[uint64]uint64{}}
}

func (n *naiveCache) lookup(line uint64) bool {
	n.accesses++
	if _, ok := n.lastUse[line]; ok {
		n.clock++
		n.lastUse[line] = n.clock
		return true
	}
	n.misses++
	return false
}

func (n *naiveCache) contains(line uint64) bool {
	_, ok := n.lastUse[line]
	return ok
}

func (n *naiveCache) insert(line uint64) (evicted uint64, wasEviction bool) {
	n.clock++
	if _, ok := n.lastUse[line]; ok {
		n.lastUse[line] = n.clock
		return 0, false
	}
	var inSet uint64
	oldest := ^uint64(0)
	for l, u := range n.lastUse {
		if l%n.sets == line%n.sets {
			inSet++
			if u < oldest {
				evicted, oldest = l, u
			}
		}
	}
	n.lastUse[line] = n.clock
	if inSet < n.ways {
		return 0, false
	}
	delete(n.lastUse, evicted)
	return evicted, true
}

// checkMembership compares the resident lines of c and the oracle over every
// line in [0, domain).
func checkMembership(t *testing.T, where string, c *Cache, n *naiveCache, domain uint64) {
	t.Helper()
	resident := 0
	for l := uint64(0); l < domain; l++ {
		got := c.Contains(l)
		if got != n.contains(l) {
			t.Fatalf("%s: %s Contains(%d) = %v, oracle %v", where, c.Name(), l, got, !got)
		}
		if got {
			resident++
		}
	}
	if resident != len(n.lastUse) {
		t.Fatalf("%s: %s holds %d lines in the domain, oracle %d", where, c.Name(), resident, len(n.lastUse))
	}
}

var (
	fuzzSets = []int{1, 2, 4, 64}
	fuzzWays = []int{1, 2, 8, 16}
)

// FuzzCacheLRU drives one Cache and the naive oracle with the same stream of
// Lookup, Contains and Insert calls over a line domain twice the cache's
// capacity, comparing every result, the evicted line, the counters and full
// membership after each operation.
func FuzzCacheLRU(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for s := range fuzzSets {
		for w := range fuzzWays {
			ops := make([]byte, 3*600)
			rng.Read(ops)
			f.Add(uint8(s), uint8(w), ops)
		}
	}
	f.Fuzz(func(t *testing.T, setsSel, waysSel uint8, ops []byte) {
		sets, ways := fuzzSets[int(setsSel)%len(fuzzSets)], fuzzWays[int(waysSel)%len(fuzzWays)]
		c, n := NewCache("fuzz", sets, ways), newNaiveCache(sets, ways)
		domain := uint64(2 * sets * ways)
		for i := 0; i+2 < len(ops); i += 3 {
			line := (uint64(ops[i+1])<<8 | uint64(ops[i+2])) % domain
			switch ops[i] % 3 {
			case 0:
				if got, want := c.Lookup(line), n.lookup(line); got != want {
					t.Fatalf("op %d: Lookup(%d) = %v, oracle %v", i/3, line, got, want)
				}
			case 1:
				if got, want := c.Contains(line), n.contains(line); got != want {
					t.Fatalf("op %d: Contains(%d) = %v, oracle %v", i/3, line, got, want)
				}
			case 2:
				ev, was := c.Insert(line)
				wantEv, wantWas := n.insert(line)
				if ev != wantEv || was != wantWas {
					t.Fatalf("op %d: Insert(%d) evicted (%d, %v), oracle (%d, %v)", i/3, line, ev, was, wantEv, wantWas)
				}
			}
			if c.Accesses() != n.accesses || c.Misses() != n.misses {
				t.Fatalf("op %d: accesses/misses %d/%d, oracle %d/%d", i/3, c.Accesses(), c.Misses(), n.accesses, n.misses)
			}
			checkMembership(t, "after op", c, n, domain)
		}
	})
}

// naiveHierarchy composes naive caches the way the hierarchy was first
// written: look a line up level by level downward, then insert it into every
// level above the one that served it.
type naiveHierarchy struct {
	cfg               Config
	l1i, l1d, l2, llc *naiveCache
	served            [numKinds][arch.NumLevels]uint64
}

func newNaiveHierarchy(cfg Config) *naiveHierarchy {
	return &naiveHierarchy{
		cfg: cfg,
		l1i: newNaiveCache(cfg.L1ISets, cfg.L1IWays),
		l1d: newNaiveCache(cfg.L1DSets, cfg.L1DWays),
		l2:  newNaiveCache(cfg.L2Sets, cfg.L2Ways),
		llc: newNaiveCache(cfg.LLCSets, cfg.LLCWays),
	}
}

func (n *naiveHierarchy) access(kind Kind, line uint64) Result {
	l1 := n.l1d
	if kind == KindFetch {
		l1 = n.l1i
	}
	c := n.cfg
	var res Result
	switch {
	case l1.lookup(line):
		res = Result{c.L1Latency, arch.LevelL1}
	case n.l2.lookup(line):
		res = Result{c.L1Latency + c.L2Latency, arch.LevelL2}
		l1.insert(line)
	case n.llc.lookup(line):
		res = Result{c.L1Latency + c.L2Latency + c.LLCLatency, arch.LevelLLC}
		n.l2.insert(line)
		l1.insert(line)
	default:
		res = Result{c.L1Latency + c.L2Latency + c.LLCLatency + c.DRAMLatency, arch.LevelDRAM}
		n.llc.insert(line)
		n.l2.insert(line)
		l1.insert(line)
	}
	n.served[kind][res.Level]++
	return res
}

func (n *naiveHierarchy) prefetchInto(level arch.Level, line uint64) arch.Level {
	served := arch.LevelDRAM
	if n.l2.contains(line) {
		served = arch.LevelL2
	} else if n.llc.contains(line) {
		served = arch.LevelLLC
	}
	if served == arch.LevelL2 && level >= arch.LevelL2 {
		return served
	}
	n.served[KindPrefetch][served]++
	switch level {
	case arch.LevelL1:
		n.l1i.insert(line)
		fallthrough
	case arch.LevelL2:
		n.l2.insert(line)
		fallthrough
	default:
		n.llc.insert(line)
	}
	return served
}

// TestHierarchyMatchesNaiveComposition replays one random sequence of
// demand accesses of every kind and L1/L2 prefetches through the hierarchy
// and through naive caches composed the original way, comparing every
// Result, the served counters, per-level counters and per-level membership.
// The geometries are small enough that every level evicts constantly.
func TestHierarchyMatchesNaiveComposition(t *testing.T) {
	geometries := []Config{
		{L1ISets: 4, L1IWays: 2, L1DSets: 2, L1DWays: 4, L2Sets: 8, L2Ways: 4, LLCSets: 16, LLCWays: 8},
		{L1ISets: 1, L1IWays: 1, L1DSets: 1, L1DWays: 2, L2Sets: 2, L2Ways: 1, LLCSets: 4, LLCWays: 2},
	}
	const domain = 512
	for gi, cfg := range geometries {
		def := DefaultConfig()
		cfg.L1Latency, cfg.L2Latency, cfg.LLCLatency, cfg.DRAMLatency = def.L1Latency, def.L2Latency, def.LLCLatency, def.DRAMLatency
		h, n := NewHierarchy(cfg), newNaiveHierarchy(cfg)
		rng := rand.New(rand.NewSource(int64(gi + 1)))
		for op := 0; op < 4000; op++ {
			// Skew the lines so hits happen at every level, not only misses.
			line := uint64(rng.Intn(domain) % (1 + rng.Intn(domain)))
			addr := arch.PAddr(line << arch.LineShift)
			if sel := rng.Intn(NumKinds + 2); sel < NumKinds {
				kind := Kind(sel)
				if got, want := h.Access(kind, addr), n.access(kind, line); got != want {
					t.Fatalf("geometry %d op %d: Access(%v, %d) = %+v, naive %+v", gi, op, kind, line, got, want)
				}
			} else {
				level := arch.Level(sel - NumKinds) // LevelL1 or LevelL2
				if got, want := h.PrefetchInto(level, addr), n.prefetchInto(level, line); got != want {
					t.Fatalf("geometry %d op %d: PrefetchInto(%v, %d) = %v, naive %v", gi, op, level, line, got, want)
				}
			}
			if h.served != n.served {
				t.Fatalf("geometry %d op %d: served %v, naive %v", gi, op, h.served, n.served)
			}
			for _, lv := range []struct {
				c *Cache
				n *naiveCache
			}{{h.L1I, n.l1i}, {h.L1D, n.l1d}, {h.L2, n.l2}, {h.LLC, n.llc}} {
				if lv.c.Accesses() != lv.n.accesses || lv.c.Misses() != lv.n.misses {
					t.Fatalf("geometry %d op %d: %s accesses/misses %d/%d, naive %d/%d",
						gi, op, lv.c.Name(), lv.c.Accesses(), lv.c.Misses(), lv.n.accesses, lv.n.misses)
				}
				checkMembership(t, "hierarchy", lv.c, lv.n, domain)
			}
		}
		for l := arch.LevelL1; l <= arch.LevelDRAM; l++ {
			if h.Served(KindLoad, l) == 0 {
				t.Errorf("geometry %d: no load served by %v; the sequence does not exercise every level", gi, l)
			}
		}
	}
}

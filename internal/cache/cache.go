// Package cache models the processor's cache hierarchy: set-associative
// L1I/L1D/L2/LLC caches with LRU replacement and a fixed-latency DRAM behind
// them, per Table 1 of the paper.
//
// The model is functional-plus-latency: an access updates cache state (fills
// on miss at every level, LRU promotion on hit) and returns the total
// latency and the level that served the request. There is no bandwidth or
// MSHR-contention model; page-walker concurrency is modelled in the ptw
// package and core-visible overlap in the cpu package. What matters for the
// paper's results — where page-walk references are served, and how prefetch
// walks perturb cache contents — is captured.
package cache

import "fmt"

// Cache is one set-associative cache with LRU replacement, addressed by
// physical line number.
//
// Storage is one flat key array, row-major by set, each set kept in recency
// order: the most recently used line first, valid ways forming a prefix. A
// key is the line address plus one, with zero marking an invalid way — line
// addresses are physical-address bits above LineShift, so the +1 cannot
// wrap. A hit or a fill moves its line to the front, so the LRU victim of a
// full set is its last way; no timestamps are kept.
type Cache struct {
	name     string
	sets     int
	ways     int
	mask     uint64   // sets-1; sets is always a power of two
	keys     []uint64 // sets*ways; lineAddr+1, 0 = invalid
	accesses uint64
	misses   uint64
}

// NewCache constructs a cache of the given geometry. Sets must be a power of
// two.
func NewCache(name string, sets, ways int) *Cache {
	if err := checkGeometry(sets, ways); err != nil {
		panic("cache: " + err.Error())
	}
	return &Cache{
		name: name,
		sets: sets,
		ways: ways,
		mask: uint64(sets - 1),
		keys: make([]uint64, sets*ways),
	}
}

// checkGeometry reports whether a cache of the given geometry can be built:
// a positive way count and a positive power-of-two set count.
func checkGeometry(sets, ways int) error {
	if sets <= 0 || ways <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("geometry must be positive with power-of-two sets: %d sets, %d ways", sets, ways)
	}
	return nil
}

// Entries returns the cache's capacity in lines.
func (c *Cache) Entries() int { return c.sets * c.ways }

// probe scans the line's set once without changing it. On a hit, way is the
// line's position; on a miss it is the slot a fill takes, the last way: the
// LRU victim of a full set, and invalid in a set that is not full, where
// shifting the invalid ways back along with the valid ones keeps the valid
// ways a prefix.
func (c *Cache) probe(lineAddr uint64) (set []uint64, way int, hit bool) {
	base := (lineAddr & c.mask) * uint64(c.ways)
	set = c.keys[base : base+uint64(c.ways) : base+uint64(c.ways)]
	k := lineAddr + 1
	for i, key := range set {
		if key == k {
			return set, i, true
		}
	}
	return set, len(set) - 1, false
}

// lookup is Lookup returning the probed slot, so a caller that fills the
// line after a miss does not scan the set again.
func (c *Cache) lookup(lineAddr uint64) (set []uint64, way int, hit bool) {
	c.accesses++
	set, way, hit = c.probe(lineAddr)
	if hit {
		toFront(set, way, lineAddr)
	} else {
		c.misses++
	}
	return set, way, hit
}

// toFront makes lineAddr the most recently used line of set by writing it
// into slot way after shifting the ways ahead of that slot back one place.
// It returns the key the slot held: the line itself on a hit, zero for an
// invalid way, otherwise the evicted line's key.
func toFront(set []uint64, way int, lineAddr uint64) (old uint64) {
	old = set[way]
	copy(set[1:way+1], set[:way])
	set[0] = lineAddr + 1
	return old
}

// Lookup probes for the line, promoting it on hit, and reports the result.
func (c *Cache) Lookup(lineAddr uint64) bool {
	_, _, hit := c.lookup(lineAddr)
	return hit
}

// Contains probes without updating replacement or statistics.
func (c *Cache) Contains(lineAddr uint64) bool {
	_, _, hit := c.probe(lineAddr)
	return hit
}

// Insert fills the line, evicting the LRU victim if the set is full. It
// returns the evicted line address and whether an eviction happened. A line
// already present is only promoted.
func (c *Cache) Insert(lineAddr uint64) (evicted uint64, wasEviction bool) {
	set, way, hit := c.probe(lineAddr)
	if old := toFront(set, way, lineAddr); !hit && old != 0 {
		return old - 1, true
	}
	return 0, false
}

// Accesses returns the number of Lookup calls since the last ResetStats.
func (c *Cache) Accesses() uint64 { return c.accesses }

// Misses returns the number of Lookup misses since the last ResetStats.
func (c *Cache) Misses() uint64 { return c.misses }

// ResetStats clears the access counters without touching contents (used at
// the warmup/measurement boundary).
func (c *Cache) ResetStats() { c.accesses, c.misses = 0, 0 }

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

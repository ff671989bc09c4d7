package tracestore

import (
	"container/list"
	"sync"

	"morrigan/internal/trace"
)

// DefaultCacheBytes is the default decoded-chunk budget: enough to keep a
// campaign's hot workloads resident without letting a 45-workload sweep pin
// gigabytes of decoded records.
const DefaultCacheBytes int64 = 512 << 20

// Cache is a ref-counted, byte-budgeted LRU of decoded chunks shared by
// every reader of a store. Concurrent jobs streaming the same workload
// acquire the same entry, so each chunk is decoded once per residency:
// the first acquirer decodes while later acquirers wait on the in-flight
// decode (single-flight), and an acquired chunk is pinned — never evicted —
// until every holder releases it. Only unpinned chunks count against the
// byte budget's eviction scan, so the budget bounds resident-but-idle bytes
// while letting however many chunks are actively being simulated stay alive.
type Cache struct {
	mu       sync.Mutex
	budget   int64
	resident int64 // decoded bytes of all entries, pinned included
	entries  map[cacheKey]*centry
	lru      *list.List // unpinned entries only; front = most recent
	stats    CacheStats
}

type cacheKey struct {
	corpus uint64
	chunk  int
}

type centry struct {
	key   cacheKey
	recs  []trace.Record
	size  int64
	refs  int
	elem  *list.Element // non-nil iff refs == 0 (entry is evictable)
	ready chan struct{} // closed when the decode finishes
	err   error
}

// CacheStats is a snapshot of the cache's accounting. Decodes equals Misses
// by construction — every miss decodes exactly once, and concurrent
// acquirers of an in-flight decode count as hits — which is what the
// cross-job sharing tests assert.
type CacheStats struct {
	// Gets counts acquire calls; Gets = Hits + Misses.
	Gets, Hits, Misses uint64
	// Decodes counts chunk decodes (== Misses).
	Decodes uint64
	// Evictions counts entries dropped to stay inside the byte budget.
	Evictions uint64
	// ResidentBytes is the decoded bytes currently held, pinned included.
	ResidentBytes int64
}

// NewCache returns a cache bounded to budget decoded bytes (<= 0 means
// DefaultCacheBytes).
func NewCache(budget int64) *Cache {
	if budget <= 0 {
		budget = DefaultCacheBytes
	}
	return &Cache{
		budget:  budget,
		entries: make(map[cacheKey]*centry),
		lru:     list.New(),
	}
}

// Stats snapshots the accounting.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.ResidentBytes = c.resident
	return s
}

// acquire returns chunk i of co, decoding it if no resident or in-flight
// copy exists, and pins it until the returned release function is called.
// release is idempotent.
func (c *Cache) acquire(co *Corpus, i int) ([]trace.Record, func(), error) {
	key := cacheKey{corpus: co.id, chunk: i}
	c.mu.Lock()
	c.stats.Gets++
	if e, ok := c.entries[key]; ok {
		c.stats.Hits++
		e.refs++
		if e.elem != nil {
			c.lru.Remove(e.elem)
			e.elem = nil
		}
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			// The decode failed; the decoder already removed the entry, so
			// the waiter's ref dies with it.
			return nil, nil, e.err
		}
		return e.recs, c.releaseFunc(e), nil
	}
	e := &centry{key: key, refs: 1, ready: make(chan struct{})}
	c.entries[key] = e
	c.stats.Misses++
	c.stats.Decodes++
	c.mu.Unlock()

	recs, err := co.decode(i)

	c.mu.Lock()
	if err != nil {
		e.err = err
		delete(c.entries, key)
		c.mu.Unlock()
		close(e.ready)
		return nil, nil, err
	}
	e.recs = recs
	e.size = int64(len(recs)) * recordMemBytes
	c.resident += e.size
	c.evictLocked()
	c.mu.Unlock()
	close(e.ready)
	return recs, c.releaseFunc(e), nil
}

// releaseFunc builds the idempotent unpin closure for e.
func (c *Cache) releaseFunc(e *centry) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			e.refs--
			if e.refs == 0 {
				// Most-recently used: the chunk was just streamed, and a
				// concurrent job on the same workload is the likeliest next
				// acquirer.
				e.elem = c.lru.PushFront(e)
				c.evictLocked()
			}
			c.mu.Unlock()
		})
	}
}

// evictLocked drops least-recently-used unpinned entries until the resident
// bytes fit the budget (or nothing unpinned remains).
func (c *Cache) evictLocked() {
	for c.resident > c.budget {
		back := c.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*centry)
		c.lru.Remove(back)
		e.elem = nil
		delete(c.entries, e.key)
		c.resident -= e.size
		c.stats.Evictions++
	}
}

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
// until every holder releases it. The budget counts every entry's buffer,
// pinned and in-flight included, and eviction takes unpinned entries only,
// so pinned chunks can hold the cache above its budget until released.
//
// A miss in a full cache evicts before it decodes and decodes into the
// victim's record buffer, and frames are read into buffers the cache keeps,
// so once the cache has filled, streaming allocates nothing chunk-sized:
// the heap holds the budget's worth of records rather than that plus the
// garbage of every eviction.
type Cache struct {
	mu       sync.Mutex
	budget   int64
	resident int64 // buffer bytes of all entries, pinned and in-flight included
	entries  map[cacheKey]*centry
	lru      *list.List // unpinned entries only; front = most recent
	frames   [][]byte   // idle frame buffers, one per decode that has run concurrently
	stats    CacheStats
}

type cacheKey struct {
	corpus uint64
	chunk  int
}

type centry struct {
	key   cacheKey
	recs  []trace.Record
	size  int64 // bytes counted in resident: the record buffer's capacity
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
	// ResidentBytes is the decoded bytes currently held, pinned and
	// in-flight included.
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

// bufBytes is the memory a record buffer holds.
func bufBytes(recs []trace.Record) int64 { return int64(cap(recs)) * recordMemBytes }

// acquire returns chunk i of co, decoding it if no resident or in-flight
// copy exists, and pins it until the returned release function is called.
// The records are valid until release: an entry's buffer is reused for
// another chunk once it is unpinned and evicted. release is idempotent.
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
	buf := c.reserveLocked(e, co.chunks[i].records)
	var frame []byte
	if n := len(c.frames); n > 0 {
		frame, c.frames = c.frames[n-1], c.frames[:n-1]
	}
	c.mu.Unlock()

	frame, recs, err := co.decode(i, frame, buf)

	c.mu.Lock()
	c.frames = append(c.frames, frame)
	if err != nil {
		e.err = err
		delete(c.entries, key)
		c.resident -= e.size
		c.mu.Unlock()
		close(e.ready)
		return nil, nil, err
	}
	e.recs = recs
	// A fresh buffer can outgrow its reservation (see decodeCap).
	c.resident += bufBytes(recs) - e.size
	e.size = bufBytes(recs)
	c.evictLocked()
	c.mu.Unlock()
	close(e.ready)
	return recs, c.releaseFunc(e), nil
}

// reserveLocked counts a missed chunk of the given record count against the
// budget before it is decoded, so concurrent misses each make room for
// their own chunk, and returns the buffer to decode it into. When the chunk
// does not fit, least-recently-used unpinned entries are evicted until it
// does, and the first victim whose buffer can hold the chunk gives it up.
// The result is nil (decode allocates) only while the cache has room or
// every entry is pinned.
func (c *Cache) reserveLocked(e *centry, records uint64) []trace.Record {
	size := int64(records) * recordMemBytes
	var buf []trace.Record
	for c.resident+size > c.budget {
		victim, ok := c.evictOneLocked()
		if !ok {
			break
		}
		if buf == nil && uint64(cap(victim)) >= records {
			buf, size = victim, bufBytes(victim)
		}
	}
	e.size = size
	c.resident += size
	return buf
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
// bytes fit the budget (or nothing unpinned remains). Their buffers become
// garbage: kept, they would hold the cache above its budget.
func (c *Cache) evictLocked() {
	for c.resident > c.budget {
		if _, ok := c.evictOneLocked(); !ok {
			return
		}
	}
}

// evictOneLocked removes the least-recently-used unpinned entry and returns
// its record buffer, emptied; ok is false when every entry is pinned. The
// entry is out of the map and its holders have all released it, so no
// reader can see the buffer rewritten.
func (c *Cache) evictOneLocked() (recs []trace.Record, ok bool) {
	back := c.lru.Back()
	if back == nil {
		return nil, false
	}
	e := back.Value.(*centry)
	c.lru.Remove(back)
	e.elem = nil
	delete(c.entries, e.key)
	c.resident -= e.size
	c.stats.Evictions++
	recs, e.recs = e.recs[:0], nil
	return recs, true
}

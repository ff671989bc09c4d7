package tracestore

import (
	"container/list"
	"slices"
	"sync"

	"morrigan/internal/trace"
)

// DefaultCacheBytes is the default decoded-chunk budget: enough to keep a
// campaign's hot workloads resident without letting a 45-workload sweep pin
// gigabytes of decoded records.
const DefaultCacheBytes int64 = 512 << 20

// Cache is a ref-counted, byte-budgeted cache of decoded chunks shared by
// every reader of a store. Concurrent jobs streaming the same workload
// acquire the same entry, so each chunk is decoded once per residency:
// the first acquirer decodes while later acquirers wait on the in-flight
// decode (single-flight), and an acquired chunk is pinned — never dropped —
// until every holder releases it.
//
// What a released chunk's last holder leaves behind depends on its corpus.
// A corpus whose decoded size fits the budget keeps LRU retention: the
// chunk stays until the budget needs its room. A corpus larger than the
// budget streams through the cache, so a released chunk can serve only a
// reader still behind it. While such a corpus has open readers, a released
// chunk stays only if one of them has not yet scheduled it; otherwise its
// record buffer goes to a spare list the next decode takes from. When a
// reader closes or reaches the end, the chunks kept only for it go at
// once. Memory then follows how far apart a corpus's readers run, and the
// budget is only its upper bound.
//
// The budget counts every entry's buffer, pinned and in-flight included,
// and the spare buffers. Over budget, spares go first and then
// least-recently-used unpinned entries; pinned chunks can hold the cache
// above its budget until released. At most DefaultReadAhead+1 spares are
// kept per open reader (and never fewer than one reader's worth), the most
// chunks the readers can hold at once, so a burst of reader skew does not
// hold memory once it is over.
//
// A miss decodes into a spare buffer or, in a full cache, into the buffer
// of the chunk it evicts, and frames are read into buffers the cache keeps,
// so once the buffers exist streaming allocates nothing chunk-sized.
type Cache struct {
	mu       sync.Mutex
	budget   int64
	resident int64 // buffer bytes of all entries and spares, pinned and in-flight included
	entries  map[cacheKey]*centry
	lru      *list.List           // unpinned entries only; front = most recent
	frames   [][]byte             // idle frame buffers, one per decode that has run concurrently
	spares   [][]trace.Record     // emptied record buffers of dropped entries
	readers  map[uint64][]*Reader // open readers of each corpus, by corpus id
	open     int                  // open readers of every corpus
	stats    CacheStats
}

type cacheKey struct {
	corpus uint64
	chunk  int
}

type centry struct {
	key      cacheKey
	streamed bool // the corpus is larger than the budget
	recs     []trace.Record
	size     int64 // bytes counted in resident: the record buffer's capacity
	refs     int
	elem     *list.Element // non-nil iff refs == 0 (entry is evictable)
	ready    chan struct{} // closed when the decode finishes
	err      error
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
	// Evictions counts entries dropped from the cache: to stay inside the
	// byte budget, and released chunks of a corpus larger than the budget
	// that no open reader of it still had ahead.
	Evictions uint64
	// ResidentBytes is the decoded bytes currently held, pinned, in-flight
	// and spare buffers included; PeakResidentBytes is the most it has
	// been.
	ResidentBytes, PeakResidentBytes int64
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
		readers: make(map[uint64][]*Reader),
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
// another chunk once it is unpinned and dropped. release is idempotent.
func (c *Cache) acquire(co *Corpus, i int) ([]trace.Record, func(), error) {
	c.mu.Lock()
	e, frame, miss := c.pinLocked(co, i)
	c.mu.Unlock()
	return c.await(co, e, frame, miss)
}

// schedule pins the next chunk r will read and advances r.issued past it
// in one critical section, so a release never sees a chunk as scheduled
// by r before r holds it. await then yields its records.
func (c *Cache) schedule(r *Reader) (e *centry, frame []byte, miss bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := r.issued
	r.issued++
	return c.pinLocked(r.c, i)
}

// pinLocked takes a ref on chunk i of co. On a miss it creates the
// in-flight entry, reserves its bytes and returns a frame buffer for the
// decode await must run; on a hit the entry may still be in flight.
func (c *Cache) pinLocked(co *Corpus, i int) (e *centry, frame []byte, miss bool) {
	key := cacheKey{corpus: co.id, chunk: i}
	c.stats.Gets++
	if e, ok := c.entries[key]; ok {
		c.stats.Hits++
		e.refs++
		if e.elem != nil {
			c.lru.Remove(e.elem)
			e.elem = nil
		}
		return e, nil, false
	}
	e = &centry{
		key:      key,
		streamed: co.records > uint64(c.budget/recordMemBytes),
		refs:     1,
		ready:    make(chan struct{}),
	}
	c.entries[key] = e
	c.stats.Misses++
	c.stats.Decodes++
	e.recs = c.reserveLocked(e, co.chunks[i].records)
	if n := len(c.frames); n > 0 {
		frame, c.frames = c.frames[n-1], c.frames[:n-1]
	}
	return e, frame, true
}

// await returns the records of an entry pinLocked pinned, decoding them
// into the reserved buffer when the pin was a miss.
func (c *Cache) await(co *Corpus, e *centry, frame []byte, miss bool) ([]trace.Record, func(), error) {
	if !miss {
		<-e.ready
		if e.err != nil {
			// The decode failed; the decoder already removed the entry, so
			// the waiter's ref dies with it.
			return nil, nil, e.err
		}
		return e.recs, c.releaseFunc(e), nil
	}
	frame, recs, err := co.decode(e.key.chunk, frame, e.recs)

	c.mu.Lock()
	c.frames = append(c.frames, frame)
	if err != nil {
		e.err = err
		delete(c.entries, e.key)
		c.resident -= e.size
		c.mu.Unlock()
		close(e.ready)
		return nil, nil, err
	}
	e.recs = recs
	// A fresh buffer can outgrow its reservation (see decodeCap).
	c.growLocked(bufBytes(recs) - e.size)
	e.size = bufBytes(recs)
	c.evictLocked()
	c.mu.Unlock()
	close(e.ready)
	return recs, c.releaseFunc(e), nil
}

// growLocked adds delta bytes to the resident count.
func (c *Cache) growLocked(delta int64) {
	c.resident += delta
	c.stats.PeakResidentBytes = max(c.stats.PeakResidentBytes, c.resident)
}

// reserveLocked counts a missed chunk of the given record count against the
// budget before it is decoded, so concurrent misses each make room for
// their own chunk, and returns the buffer to decode it into. A spare buffer
// that can hold the chunk is taken first; its bytes are counted already.
// Otherwise, when the chunk does not fit, spares and then least-recently-
// used unpinned entries are dropped until it does, and the first of them
// whose buffer can hold the chunk gives it up. The result is nil (decode
// allocates) only while the cache has room or every entry is pinned.
func (c *Cache) reserveLocked(e *centry, records uint64) []trace.Record {
	for k := len(c.spares) - 1; k >= 0; k-- {
		if buf := c.spares[k]; uint64(cap(buf)) >= records {
			c.spares = slices.Delete(c.spares, k, k+1)
			e.size = bufBytes(buf)
			return buf
		}
	}
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
	c.growLocked(size)
	return buf
}

// releaseFunc builds the idempotent unpin closure for e. The last holder's
// release keeps the chunk as the most recently used entry, unless its
// corpus is larger than the budget and has open readers none of which
// still has the chunk ahead: then the chunk can serve no one and is
// dropped at once.
func (c *Cache) releaseFunc(e *centry) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			e.refs--
			if e.refs == 0 {
				if rs := c.readers[e.key.corpus]; e.streamed && len(rs) > 0 && !ahead(rs, e.key.chunk) {
					c.dropLocked(e)
				} else {
					e.elem = c.lru.PushFront(e)
				}
				c.evictLocked()
			}
			c.mu.Unlock()
		})
	}
}

// ahead reports whether any of readers has not yet scheduled chunk i.
// Caller holds the cache's mutex, under which every r.issued is published.
func ahead(readers []*Reader, i int) bool {
	for _, r := range readers {
		if r.issued <= i {
			return true
		}
	}
	return false
}

// join registers r as an open reader of its corpus.
func (c *Cache) join(r *Reader) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.readers[r.c.id] = append(c.readers[r.c.id], r)
	c.open++
}

// leave deregisters r, which holds no chunk any more, drops the released
// chunks of its corpus that were kept only for it, and trims the spares
// to what the readers still open can use.
func (c *Cache) leave(r *Reader) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := r.c.id
	rs := c.readers[id]
	if k := slices.Index(rs, r); k >= 0 {
		rs = slices.Delete(rs, k, k+1)
	}
	if len(rs) == 0 {
		delete(c.readers, id)
	} else {
		c.readers[id] = rs
	}
	c.open--
	// Chunks from r's position up to the first one another reader still
	// has ahead were kept for r alone.
	end := len(r.c.chunks)
	for _, o := range rs {
		end = min(end, o.issued)
	}
	for i := r.issued; i < end; i++ {
		if e, ok := c.entries[cacheKey{corpus: id, chunk: i}]; ok && e.streamed && e.elem != nil {
			c.lru.Remove(e.elem)
			e.elem = nil
			c.dropLocked(e)
		}
	}
	for len(c.spares) > c.maxSpares() {
		c.evictOneLocked()
	}
}

// maxSpares is how many spare buffers the cache keeps: as many chunks as
// the open readers can hold at once, and one reader's worth while none is
// open, for the next reader to decode into.
func (c *Cache) maxSpares() int { return (DefaultReadAhead + 1) * max(c.open, 1) }

// dropLocked removes an unpinned entry that is off the LRU list and keeps
// its record buffer as a spare, or lets it go when the spares are full.
func (c *Cache) dropLocked(e *centry) {
	delete(c.entries, e.key)
	c.stats.Evictions++
	if len(c.spares) < c.maxSpares() {
		c.spares = append(c.spares, e.recs[:0])
	} else {
		c.resident -= e.size
	}
	e.recs = nil
}

// evictLocked drops spares and then least-recently-used unpinned entries
// until the resident bytes fit the budget (or nothing unpinned remains).
// Their buffers become garbage: kept, they would hold the cache above its
// budget.
func (c *Cache) evictLocked() {
	for c.resident > c.budget {
		if _, ok := c.evictOneLocked(); !ok {
			return
		}
	}
}

// evictOneLocked lets go of the last spare buffer or, with none, removes
// the least-recently-used unpinned entry, and returns the record buffer,
// emptied; ok is false when there is no spare and every entry is pinned.
// An evicted entry is out of the map and its holders have all released it,
// so no reader can see the buffer rewritten.
func (c *Cache) evictOneLocked() (recs []trace.Record, ok bool) {
	if n := len(c.spares); n > 0 {
		recs = c.spares[n-1]
		c.spares[n-1] = nil // or the backing array would keep a buffer let go
		c.spares = c.spares[:n-1]
		c.resident -= bufBytes(recs)
		return recs, true
	}
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

package tracestore

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"morrigan/internal/trace"
)

// cachedCorpus opens an in-memory container wired to a private cache, the
// way a Store would wire it.
func cachedCorpus(t testing.TB, recs []trace.Record, chunkRecords int, budget int64) (*Corpus, *Cache) {
	t.Helper()
	c, err := OpenBytes(buildContainer(t, recs, chunkRecords))
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	cache := NewCache(budget)
	c.id = 1
	c.cache = cache
	return c, cache
}

// chunkBytes is the decoded in-memory size of one full chunk.
func chunkBytes(chunkRecords int) int64 { return int64(chunkRecords) * recordMemBytes }

// TestCacheSingleFlight checks concurrent acquirers of one chunk share a
// single decode: one miss, everyone else a hit on the in-flight entry.
func TestCacheSingleFlight(t *testing.T) {
	const goroutines = 16
	recs := genRecords(t, 512)
	c, cache := cachedCorpus(t, recs, 512, 1<<30)

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, release, err := cache.acquire(c, 0)
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			if len(got) != len(recs) {
				t.Errorf("acquired %d records, want %d", len(got), len(recs))
			}
			release()
		}()
	}
	close(start)
	wg.Wait()

	st := cache.Stats()
	if st.Decodes != 1 {
		t.Fatalf("Decodes = %d, want 1 (single-flight)", st.Decodes)
	}
	if st.Gets != goroutines || st.Hits != goroutines-1 || st.Misses != 1 {
		t.Fatalf("Gets/Hits/Misses = %d/%d/%d, want %d/%d/1", st.Gets, st.Hits, st.Misses, goroutines, goroutines-1)
	}
}

// TestCacheEviction checks released chunks are evicted LRU-first once the
// byte budget is exceeded, and that re-acquiring an evicted chunk re-decodes.
func TestCacheEviction(t *testing.T) {
	const chunk = 256
	recs := genRecords(t, 4*chunk)
	// Budget holds exactly two decoded chunks.
	c, cache := cachedCorpus(t, recs, chunk, 2*chunkBytes(chunk))

	for i := 0; i < 4; i++ {
		_, release, err := cache.acquire(c, i)
		if err != nil {
			t.Fatalf("acquire(%d): %v", i, err)
		}
		release()
	}
	st := cache.Stats()
	if st.Evictions != 2 {
		t.Fatalf("Evictions = %d, want 2", st.Evictions)
	}
	if st.ResidentBytes > 2*chunkBytes(chunk) {
		t.Fatalf("ResidentBytes = %d exceeds budget %d", st.ResidentBytes, 2*chunkBytes(chunk))
	}

	// Chunks 2 and 3 are resident; chunk 0 was evicted and must re-decode.
	_, release, err := cache.acquire(c, 3)
	if err != nil {
		t.Fatalf("acquire(3): %v", err)
	}
	release()
	if got := cache.Stats().Decodes; got != 4 {
		t.Fatalf("Decodes after resident re-acquire = %d, want 4", got)
	}
	_, release, err = cache.acquire(c, 0)
	if err != nil {
		t.Fatalf("acquire(0): %v", err)
	}
	release()
	if got := cache.Stats().Decodes; got != 5 {
		t.Fatalf("Decodes after evicted re-acquire = %d, want 5", got)
	}
}

// TestCachePinnedNotEvicted checks acquired (unreleased) chunks survive even
// when the budget is far exceeded, and are only evicted once released.
func TestCachePinnedNotEvicted(t *testing.T) {
	const chunk = 128
	recs := genRecords(t, 3*chunk)
	c, cache := cachedCorpus(t, recs, chunk, 1) // budget smaller than any chunk

	var releases []func()
	var pinned [][]trace.Record
	for i := 0; i < 3; i++ {
		got, release, err := cache.acquire(c, i)
		if err != nil {
			t.Fatalf("acquire(%d): %v", i, err)
		}
		pinned = append(pinned, got)
		releases = append(releases, release)
	}
	st := cache.Stats()
	if st.Evictions != 0 {
		t.Fatalf("Evictions = %d while all chunks pinned, want 0", st.Evictions)
	}
	if st.ResidentBytes != 3*chunkBytes(chunk) {
		t.Fatalf("ResidentBytes = %d, want %d", st.ResidentBytes, 3*chunkBytes(chunk))
	}
	// The pinned records must stay valid.
	for i, got := range pinned {
		if got[0] != recs[i*chunk] {
			t.Fatalf("pinned chunk %d first record = %+v, want %+v", i, got[0], recs[i*chunk])
		}
	}
	for _, release := range releases {
		release()
	}
	st = cache.Stats()
	if st.Evictions != 3 || st.ResidentBytes != 0 {
		t.Fatalf("after release: Evictions = %d, ResidentBytes = %d, want 3 and 0", st.Evictions, st.ResidentBytes)
	}
}

// TestCacheReleaseIdempotent checks double-release cannot drive refcounts
// negative (which would evict a chunk out from under a holder).
func TestCacheReleaseIdempotent(t *testing.T) {
	const chunk = 128
	recs := genRecords(t, 2*chunk)
	c, cache := cachedCorpus(t, recs, chunk, 1<<30)

	_, r1, err := cache.acquire(c, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	got, r2, err := cache.acquire(c, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	r1()
	r1() // duplicate: must not release the second holder's pin
	if got[0] != recs[0] {
		t.Fatalf("records invalidated by duplicate release")
	}
	// The entry is still pinned by r2; the budget cannot evict it, and a
	// third acquire must hit.
	before := cache.Stats().Decodes
	_, r3, err := cache.acquire(c, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if cache.Stats().Decodes != before {
		t.Fatalf("re-acquire of pinned chunk decoded again")
	}
	r2()
	r3()
}

// TestCacheDecodeError checks a failing decode reports the error to every
// waiter, leaves no entry behind, and lets a later acquire retry.
func TestCacheDecodeError(t *testing.T) {
	const chunk = 256
	recs := genRecords(t, chunk)
	data := buildContainer(t, recs, chunk)
	// Zero the frame so decode fails (the index itself stays valid).
	for i := headerSize; i < headerSize+16; i++ {
		data[i] = 0
	}
	c, err := OpenBytes(data)
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	cache := NewCache(1 << 30)
	c.id = 1
	c.cache = cache

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := cache.acquire(c, 0); !errors.Is(err, ErrCorrupt) {
				t.Errorf("acquire error = %v, want ErrCorrupt", err)
			}
		}()
	}
	wg.Wait()
	if got := cache.Stats().ResidentBytes; got != 0 {
		t.Fatalf("ResidentBytes = %d after failed decodes, want 0", got)
	}
	// The failed entry must not be cached: a fresh acquire decodes again.
	before := cache.Stats().Decodes
	if _, _, err := cache.acquire(c, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("retry acquire error = %v, want ErrCorrupt", err)
	}
	if got := cache.Stats().Decodes; got != before+1 {
		t.Fatalf("retry did not re-attempt the decode (Decodes %d -> %d)", before, got)
	}
}

// TestFullCacheDecodeAllocations streams a store's corpus of default-size
// chunks, four times the cache budget, twice through one reader. The first
// pass makes the cache's buffers; in the second every chunk misses, and
// each decode must reuse a dropped entry's record buffer and a kept frame
// buffer: the bytes allocated per decode stay under 1/64 of a decoded
// chunk, where a fresh buffer per decode costs the whole chunk plus its
// frame.
func TestFullCacheDecodeAllocations(t *testing.T) {
	const chunks = 32
	budget := 8 * chunkBytes(DefaultChunkRecords)
	s, err := Open(Options{Dir: t.TempDir(), CacheBytes: budget})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	c, err := s.Materialize(testSpec(707), chunks*DefaultChunkRecords)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if c.Chunks() != chunks || c.ChunkRecords() != DefaultChunkRecords {
		t.Fatalf("corpus has %d chunks of %d records, want %d of %d", c.Chunks(), c.ChunkRecords(), chunks, DefaultChunkRecords)
	}
	buf := make([]trace.Record, 512)
	stream := func() {
		r := c.NewReader()
		defer r.Close()
		for {
			if _, err := r.NextBatch(buf); err == io.EOF {
				return
			} else if err != nil {
				t.Fatalf("NextBatch: %v", err)
			}
		}
	}
	stream()

	var before, after runtime.MemStats
	st0 := s.CacheStats()
	runtime.ReadMemStats(&before)
	stream()
	runtime.ReadMemStats(&after)
	st := s.CacheStats()
	if st.Gets != st.Hits+st.Misses || st.Decodes != st.Misses {
		t.Fatalf("Gets/Hits/Misses/Decodes = %d/%d/%d/%d break Gets = Hits + Misses or Decodes = Misses", st.Gets, st.Hits, st.Misses, st.Decodes)
	}
	decodes := st.Decodes - st0.Decodes
	if decodes != chunks {
		t.Fatalf("second pass decoded %d chunks, want all %d (the cache holds a quarter of the corpus)", decodes, chunks)
	}
	if st.ResidentBytes > budget {
		t.Fatalf("ResidentBytes = %d after streaming, above the budget %d", st.ResidentBytes, budget)
	}
	perDecode := (after.TotalAlloc - before.TotalAlloc) / decodes
	if limit := uint64(chunkBytes(DefaultChunkRecords)) / 64; perDecode >= limit {
		t.Fatalf("full cache allocated %d bytes per decode, want under %d (1/64 of a decoded chunk)", perDecode, limit)
	}
}

// TestStandaloneDecodeAllocations streams a corpus opened from a file
// without a store, 32 default-size chunks, through one reader, and then
// verifies it. A reader holds at most DefaultReadAhead+1 chunks at once
// and decodes into that many buffer pairs of its own, recycled as chunks
// are released, and Verify decodes every chunk into one pair. Beyond those
// pairs, the bytes allocated per decode must stay under 1/64 of a decoded
// chunk, where a fresh pair per decode costs the whole chunk plus its
// frame.
func TestStandaloneDecodeAllocations(t *testing.T) {
	const chunks = 32
	path := filepath.Join(t.TempDir(), "t.mtc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(f, testSpec(708).NewReader(), chunks*DefaultChunkRecords, BuildOptions{}); err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer c.Close()
	if c.Chunks() != chunks || c.ChunkRecords() != DefaultChunkRecords {
		t.Fatalf("corpus has %d chunks of %d records, want %d of %d", c.Chunks(), c.ChunkRecords(), chunks, DefaultChunkRecords)
	}
	// A pair is a chunk's records plus a frame buffer of the longest frame,
	// rounded up to the heap's 8 KiB pages.
	pair := uint64(chunkBytes(DefaultChunkRecords)) + c.maxFrame + 8<<10
	limit := uint64(chunkBytes(DefaultChunkRecords)) / 64
	check := func(what string, pairs uint64, run func()) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		perDecode := int64(got-min(got, pairs*pair)) / chunks
		t.Logf("%s allocated %d bytes, %d per decode beyond %d buffer pairs", what, got, perDecode, pairs)
		if uint64(perDecode) >= limit {
			t.Errorf("%s allocated %d bytes per decode beyond %d buffer pairs, want under %d (1/64 of a decoded chunk)", what, perDecode, pairs, limit)
		}
	}

	check("streaming", DefaultReadAhead+1, func() {
		r := c.NewReader()
		defer r.Close()
		buf := make([]trace.Record, 512)
		var n uint64
		for {
			k, err := r.NextBatch(buf)
			n += uint64(k)
			if err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("NextBatch: %v", err)
			}
		}
		if n != c.Records() {
			t.Fatalf("streamed %d records, want %d", n, c.Records())
		}
	})
	check("Verify", 1, func() {
		if err := c.Verify(); err != nil {
			t.Fatalf("Verify: %v", err)
		}
	})
}

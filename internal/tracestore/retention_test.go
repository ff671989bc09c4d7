package tracestore

import (
	"io"
	"sync"
	"testing"

	"morrigan/internal/trace"
)

// The retention tests stream a corpus larger than the cache budget. All but
// the last step their readers one chunk at a time on the test goroutine, so
// each reader's position at every release is fixed by the order of the
// steps. Decodes run on the readers' worker goroutines; the bounds below
// hold however those interleave.
const retentionChunk = 256

// readAhead is the most chunks one reader pins at once: the one being
// consumed and DefaultReadAhead in flight. The cache keeps as many spare
// buffers per open reader.
const readAhead = DefaultReadAhead + 1

// chunkStepper reads a reader one chunk per step and checks every record.
type chunkStepper struct {
	t    *testing.T
	r    *Reader
	want []trace.Record
	pos  int
	buf  []trace.Record
}

func newChunkStepper(t *testing.T, c *Corpus, want []trace.Record) *chunkStepper {
	return &chunkStepper{t: t, r: c.NewReader(), want: want, buf: make([]trace.Record, c.ChunkRecords())}
}

// step consumes the next chunk and reports false at io.EOF. A buffer of
// one chunk and a stream that starts at a chunk boundary make each
// NextBatch call return one whole chunk.
func (s *chunkStepper) step() bool {
	s.t.Helper()
	n, err := s.r.NextBatch(s.buf)
	if err == io.EOF {
		if s.pos != len(s.want) {
			s.t.Fatalf("reader ended after %d of %d records", s.pos, len(s.want))
		}
		return false
	}
	if err != nil {
		s.t.Fatalf("NextBatch at record %d: %v", s.pos, err)
	}
	for i := 0; i < n; i++ {
		if s.buf[i] != s.want[s.pos+i] {
			s.t.Fatalf("record %d out of order or corrupted", s.pos+i)
		}
	}
	s.pos += n
	return true
}

// steps takes n steps, failing if the reader ends first.
func (s *chunkStepper) steps(n int) {
	s.t.Helper()
	for i := 0; i < n; i++ {
		if !s.step() {
			s.t.Fatalf("reader ended at step %d of %d", i, n)
		}
	}
}

// drain steps every stepper in turn until all have reached io.EOF.
func drain(ss ...*chunkStepper) {
	for live := true; live; {
		live = false
		for _, s := range ss {
			if s.step() {
				live = true
			}
		}
	}
}

// unpinned counts the cache's released entries, those on its LRU list.
func unpinned(c *Cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// TestCacheRetentionSingleReader streams a corpus of twice the budget
// through one reader. No released chunk serves anyone, so the cache holds
// the reader's read-ahead and at most as many spares, not the budget's
// sixteen chunks, and nothing of the corpus stays once the reader closes.
func TestCacheRetentionSingleReader(t *testing.T) {
	const chunks = 32
	recs := genRecords(t, chunks*retentionChunk)
	c, cache := cachedCorpus(t, recs, retentionChunk, 16*chunkBytes(retentionChunk))

	s := newChunkStepper(t, c, recs)
	s.steps(chunks / 2)
	s.r.Close()

	st := cache.Stats()
	if st.Decodes != chunks/2+DefaultReadAhead {
		t.Errorf("Decodes = %d, want %d (the chunks read and the read-ahead)", st.Decodes, chunks/2+DefaultReadAhead)
	}
	if limit := 2 * readAhead * chunkBytes(retentionChunk); st.PeakResidentBytes > limit {
		t.Errorf("PeakResidentBytes = %d, want at most %d (%d chunks read ahead plus as many spares)", st.PeakResidentBytes, limit, readAhead)
	}
	cache.mu.Lock()
	entries, spares := len(cache.entries), len(cache.spares)
	cache.mu.Unlock()
	if entries != 0 {
		t.Errorf("%d chunks of the corpus resident after Close, want 0", entries)
	}
	if spares > readAhead || st.ResidentBytes != int64(spares)*chunkBytes(retentionChunk) {
		t.Errorf("ResidentBytes = %d with %d spares after Close, want the spares' bytes and at most %d of them", st.ResidentBytes, spares, readAhead)
	}
}

// TestCacheRetentionTrailingReader runs a second reader k chunks behind
// the first. The leader's released chunks are kept for the trailer, so
// every chunk is decoded once, and the cache holds about the k chunks
// between them plus each reader's read-ahead and spares, well under the
// budget.
func TestCacheRetentionTrailingReader(t *testing.T) {
	const (
		chunks = 40
		k      = 6
	)
	recs := genRecords(t, chunks*retentionChunk)
	c, cache := cachedCorpus(t, recs, retentionChunk, 24*chunkBytes(retentionChunk))

	lead, trail := newChunkStepper(t, c, recs), newChunkStepper(t, c, recs)
	lead.steps(k)
	drain(lead, trail)

	st := cache.Stats()
	if st.Decodes != chunks {
		t.Errorf("Decodes = %d, want %d: a chunk the trailing reader still had ahead was dropped", st.Decodes, chunks)
	}
	if st.Gets != st.Hits+st.Misses || st.Decodes != st.Misses {
		t.Errorf("Gets/Hits/Misses/Decodes = %d/%d/%d/%d break Gets = Hits + Misses or Decodes = Misses", st.Gets, st.Hits, st.Misses, st.Decodes)
	}
	if limit := (k + 2*readAhead) * chunkBytes(retentionChunk); st.PeakResidentBytes > limit {
		t.Errorf("PeakResidentBytes = %d, want at most %d (k + 2·(DefaultReadAhead+1) chunks)", st.PeakResidentBytes, limit)
	}
	if n := unpinned(cache); n != 0 {
		t.Errorf("%d chunks resident after both readers reached the end, want 0", n)
	}
}

// TestCacheRetentionTrailingReaderCloses closes a trailing reader midway:
// the chunks kept for it alone go at once, and the leader still reads the
// rest of the corpus correctly.
func TestCacheRetentionTrailingReaderCloses(t *testing.T) {
	const (
		chunks = 40
		k      = 10
	)
	recs := genRecords(t, chunks*retentionChunk)
	c, cache := cachedCorpus(t, recs, retentionChunk, 24*chunkBytes(retentionChunk))

	lead, trail := newChunkStepper(t, c, recs), newChunkStepper(t, c, recs)
	lead.steps(k)
	for i := 0; i < chunks/4; i++ {
		lead.steps(1)
		trail.steps(1)
	}
	// The chunks between the trailer's read-ahead and the leader's current
	// chunk are released and kept for the trailer.
	kept := unpinned(cache)
	if kept < k-readAhead {
		t.Fatalf("%d released chunks kept for the trailing reader, want at least %d", kept, k-readAhead)
	}
	before := cache.Stats()
	trail.r.Close()
	after := cache.Stats()
	if n := unpinned(cache); n != 0 {
		t.Errorf("%d released chunks still resident after the trailing reader closed, want 0", n)
	}
	if got := after.Evictions - before.Evictions; got < uint64(kept) {
		t.Errorf("closing dropped %d chunks, want at least the %d kept for the trailing reader", got, kept)
	}
	if limit := 2 * readAhead * chunkBytes(retentionChunk); after.ResidentBytes > limit {
		t.Errorf("ResidentBytes = %d after the trailing reader closed, want at most %d (the leader's read-ahead and spares)", after.ResidentBytes, limit)
	}
	drain(lead)
	if st := cache.Stats(); st.Decodes != chunks {
		t.Errorf("Decodes = %d, want %d", st.Decodes, chunks)
	}
}

// TestCacheRetentionLateReader starts a reader after the leader has passed
// chunk j. The chunks before j are gone and decoded again; every later one
// is kept for the late reader, which reads every record correctly.
func TestCacheRetentionLateReader(t *testing.T) {
	const (
		chunks = 32
		j      = 8
	)
	recs := genRecords(t, chunks*retentionChunk)
	c, cache := cachedCorpus(t, recs, retentionChunk, 24*chunkBytes(retentionChunk))

	lead := newChunkStepper(t, c, recs)
	lead.steps(j + 1) // chunks 0..j-1 are released; the leader holds chunk j
	late := newChunkStepper(t, c, recs)
	drain(lead, late)

	st := cache.Stats()
	if st.Decodes != chunks+j {
		t.Errorf("Decodes = %d, want %d: the %d chunks before chunk %d decoded again and no other", st.Decodes, chunks+j, j, j)
	}
	if st.Gets != st.Hits+st.Misses || st.Decodes != st.Misses {
		t.Errorf("Gets/Hits/Misses/Decodes = %d/%d/%d/%d break Gets = Hits + Misses or Decodes = Misses", st.Gets, st.Hits, st.Misses, st.Decodes)
	}
}

// TestCacheRetentionConcurrentReaders streams a corpus larger than the
// budget from eight goroutines at once, each closing its reader after a
// different number of chunks, some at the end. Every record read must be
// right, and once the last reader has left, no chunk of the corpus may
// stay: each was kept only while some reader still had it ahead.
func TestCacheRetentionConcurrentReaders(t *testing.T) {
	const (
		readers = 8
		chunks  = 24
	)
	recs := genRecords(t, chunks*retentionChunk)
	c, cache := cachedCorpus(t, recs, retentionChunk, 16*chunkBytes(retentionChunk))

	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := c.NewReader()
			defer r.Close()
			buf := make([]trace.Record, 100)
			for pos, want := 0, (g*7)%(chunks+1)*retentionChunk; pos < want; {
				n, err := r.NextBatch(buf)
				if err != nil {
					t.Errorf("reader %d: NextBatch at record %d: %v", g, pos, err)
					return
				}
				for i := 0; i < n; i++ {
					if buf[i] != recs[pos+i] {
						t.Errorf("reader %d: record %d out of order or corrupted", g, pos+i)
						return
					}
				}
				pos += n
			}
		}()
	}
	wg.Wait()

	st := cache.Stats()
	if st.Gets != st.Hits+st.Misses || st.Decodes != st.Misses {
		t.Errorf("Gets/Hits/Misses/Decodes = %d/%d/%d/%d break Gets = Hits + Misses or Decodes = Misses", st.Gets, st.Hits, st.Misses, st.Decodes)
	}
	cache.mu.Lock()
	entries, spares := len(cache.entries), len(cache.spares)
	cache.mu.Unlock()
	if entries != 0 {
		t.Errorf("%d chunks of the corpus resident after every reader closed, want 0", entries)
	}
	if spares > readAhead || st.ResidentBytes != int64(spares)*chunkBytes(retentionChunk) {
		t.Errorf("ResidentBytes = %d with %d spares after every reader closed, want the spares' bytes and at most %d of them", st.ResidentBytes, spares, readAhead)
	}
}

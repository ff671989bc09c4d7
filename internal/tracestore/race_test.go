package tracestore

import (
	"io"
	"sync"
	"testing"

	"morrigan/internal/trace"
)

// streamAll drains a reader and checks every record against want, in order.
func streamAll(t *testing.T, r *Reader, want []trace.Record) {
	t.Helper()
	defer r.Close()
	buf := make([]trace.Record, 333)
	pos := 0
	for {
		n, err := r.NextBatch(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Errorf("NextBatch at record %d: %v", pos, err)
			return
		}
		for i := 0; i < n; i++ {
			if buf[i] != want[pos+i] {
				t.Errorf("record %d out of order or corrupted", pos+i)
				return
			}
		}
		pos += n
	}
	if pos != len(want) {
		t.Errorf("streamed %d records, want %d", pos, len(want))
	}
}

// runConcurrentReaders streams one corpus from `readers` goroutines sharing
// a cache with the given budget, and returns the cache stats afterwards.
func runConcurrentReaders(t *testing.T, readers, chunk, chunks int, budget int64) CacheStats {
	t.Helper()
	recs := genRecords(t, chunk*chunks)
	c, cache := cachedCorpus(t, recs, chunk, budget)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			streamAll(t, c.NewReader(), recs)
		}()
	}
	wg.Wait()
	st := cache.Stats()
	if st.Gets != st.Hits+st.Misses {
		t.Fatalf("Gets (%d) != Hits (%d) + Misses (%d)", st.Gets, st.Hits, st.Misses)
	}
	if st.Decodes != st.Misses {
		t.Fatalf("Decodes (%d) != Misses (%d)", st.Decodes, st.Misses)
	}
	if want := uint64(readers * chunks); st.Gets != want {
		t.Fatalf("Gets = %d, want %d (each reader acquires each chunk once)", st.Gets, want)
	}
	return st
}

// TestConcurrentReadersSmallBudget runs many readers over a corpus whose
// decoded size exceeds the cache budget several times over: eviction and
// re-decode churn must never violate record ordering or the accounting
// invariants. Run under -race this is the cross-job sharing stress test.
func TestConcurrentReadersSmallBudget(t *testing.T) {
	const (
		readers = 8
		chunk   = 512
		chunks  = 12
	)
	// Budget of three decoded chunks; readers stay pinned on at most
	// 1 + DefaultReadAhead chunks each, so eviction churns constantly.
	st := runConcurrentReaders(t, readers, chunk, chunks, 3*chunkBytes(chunk))
	if st.Evictions == 0 {
		t.Fatalf("budget smaller than corpus produced no evictions")
	}
	if st.Decodes < chunks {
		t.Fatalf("Decodes = %d, below chunk count %d", st.Decodes, chunks)
	}
}

// TestConcurrentReadersSingleDecode gives the cache room for the whole
// corpus: no matter how the readers interleave, every chunk is decoded
// exactly once and shared.
func TestConcurrentReadersSingleDecode(t *testing.T) {
	const (
		readers = 8
		chunk   = 512
		chunks  = 12
	)
	st := runConcurrentReaders(t, readers, chunk, chunks, int64(chunks+1)*chunkBytes(chunk))
	if st.Decodes != chunks {
		t.Fatalf("Decodes = %d, want %d (one per chunk)", st.Decodes, chunks)
	}
	if st.Evictions != 0 {
		t.Fatalf("Evictions = %d with a corpus-sized budget, want 0", st.Evictions)
	}
}

// TestConcurrentStandaloneReaders streams one corpus opened without a store
// from many goroutines and checks every record. Each reader decodes ahead
// into buffers of its own and recycles them as chunks are released, so
// under -race this checks that no buffer is rewritten while its reader
// still hands out the chunk's records.
func TestConcurrentStandaloneReaders(t *testing.T) {
	const (
		readers = 8
		chunk   = 512
		chunks  = 12
	)
	recs := genRecords(t, chunk*chunks)
	c, err := OpenBytes(buildContainer(t, recs, chunk))
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			streamAll(t, c.NewReader(), recs)
		}()
	}
	wg.Wait()
}

package tracestore

import (
	"io"
	"testing"

	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

// benchRecords is the stream length per benchmark iteration: enough chunks
// that the pipelined reader's steady state dominates setup.
const benchRecords = 1 << 19

// benchCorpus materialises the benchmark workload once per process, wired
// to a shared chunk cache the way a Store wires every corpus it opens. The
// first iteration decodes; steady state streams cache-resident chunks,
// which is the regime campaign jobs run in when the budget holds their
// workloads.
func benchCorpus(b *testing.B) *Corpus {
	b.Helper()
	if benchCorpusCached == nil {
		benchCorpusCached, _ = cachedCorpus(b, benchGenRecords(b), DefaultChunkRecords>>2, DefaultCacheBytes)
	}
	return benchCorpusCached
}

var (
	benchCorpusCached  *Corpus
	benchRecordsCached []trace.Record
)

func benchGenRecords(b *testing.B) []trace.Record {
	b.Helper()
	if benchRecordsCached == nil {
		benchRecordsCached = genRecords(b, benchRecords)
	}
	return benchRecordsCached
}

// BenchmarkGeneratorRead is the baseline: the cost of producing the record
// stream by stepping the synthetic generator live, as every simulation job
// paid before corpora existed.
func BenchmarkGeneratorRead(b *testing.B) {
	w := workloads.QMM()[0]
	buf := make([]trace.Record, 512)
	b.SetBytes(benchRecords * recordMemBytes)
	for i := 0; i < b.N; i++ {
		r := trace.Limit(w.NewReader(), benchRecords)
		for {
			if _, err := r.NextBatch(buf); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCorpusNextBatch streams the corpus through NextBatch into a
// 512-record buffer, as the simulator's run loop reads it.
func BenchmarkCorpusNextBatch(b *testing.B) {
	c := benchCorpus(b)
	buf := make([]trace.Record, 512)
	b.SetBytes(benchRecords * recordMemBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := c.NewReader()
		for {
			if _, err := r.NextBatch(buf); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		r.Close()
	}
}

// BenchmarkCorpusNextBatchEvicting streams the corpus with two readers in
// lockstep, as two jobs on one workload read it, through a cache that holds
// half of it. Every chunk is decoded once per pass and shared, at a hit
// rate of 0.5: the regime sampled-long's budget puts its jobs in, which
// BenchmarkCorpusNextBatch's cache-resident stream never shows. The corpus
// is larger than the budget, so a chunk both readers have released is
// dropped, and peak-resident-MiB, the most the cache held, stays near the
// readers' read-ahead and spare buffers instead of the budget.
func BenchmarkCorpusNextBatchEvicting(b *testing.B) {
	c, cache := cachedCorpus(b, benchGenRecords(b), DefaultChunkRecords>>2, benchRecords*recordMemBytes/2)
	bufs := [2][]trace.Record{make([]trace.Record, 512), make([]trace.Record, 512)}
	b.SetBytes(2 * benchRecords * recordMemBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := [2]*Reader{c.NewReader(), c.NewReader()}
		for live := len(rs); live > 0; {
			live = 0
			for k, r := range rs {
				if _, err := r.NextBatch(bufs[k]); err == nil {
					live++
				} else if err != io.EOF {
					b.Fatal(err)
				}
			}
		}
		rs[0].Close()
		rs[1].Close()
	}
	b.StopTimer()
	st := cache.Stats()
	b.ReportMetric(float64(st.Decodes)/float64(b.N), "decodes/op")
	b.ReportMetric(float64(st.Hits)/float64(st.Gets), "hit-rate")
	b.ReportMetric(float64(st.PeakResidentBytes)/(1<<20), "peak-resident-MiB")
}

// reportPerRecord reports the benchmark's time per record of one chunk and
// the chunk's frame size per record.
func reportPerRecord(b *testing.B, records int, frameBytes uint64) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
	b.ReportMetric(float64(frameBytes)/float64(records), "bytes/record")
}

var benchFrameSink []byte

// BenchmarkEncodeChunk encodes one default-size chunk into a checksummed
// frame in a reused buffer, the work Build's encoder does per chunk.
func BenchmarkEncodeChunk(b *testing.B) {
	recs := benchGenRecords(b)[:DefaultChunkRecords]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchFrameSink, _ = encodeChunkInto(benchFrameSink, recs)
	}
	b.StopTimer()
	reportPerRecord(b, len(recs), uint64(len(benchFrameSink)))
}

// BenchmarkDecodeChunk fetches, checksums and decodes one default-size
// chunk into reused buffers: what a reader pays for a chunk the shared
// cache does not hold once the cache is full, and what
// BenchmarkCorpusNextBatch's cache-resident stream never shows.
func BenchmarkDecodeChunk(b *testing.B) {
	recs := benchGenRecords(b)[:DefaultChunkRecords]
	c, err := OpenBytes(buildContainer(b, recs, len(recs)))
	if err != nil {
		b.Fatalf("OpenBytes: %v", err)
	}
	var frame []byte
	var dst []trace.Record
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if frame, dst, err = c.decode(0, frame, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPerRecord(b, len(recs), c.Chunk(0).Bytes)
}

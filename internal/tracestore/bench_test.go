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
// which is the regime campaign jobs run in.
func benchCorpus(b *testing.B) *Corpus {
	b.Helper()
	if benchCorpusCached == nil {
		c, err := OpenBytes(buildContainer(b, benchGenRecords(b), DefaultChunkRecords>>2))
		if err != nil {
			b.Fatalf("OpenBytes: %v", err)
		}
		c.id = 1
		c.cache = NewCache(DefaultCacheBytes)
		benchCorpusCached = c
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

// reportPerRecord reports the benchmark's time per record of one chunk and
// the chunk's frame size per record.
func reportPerRecord(b *testing.B, records int, frameBytes uint64) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
	b.ReportMetric(float64(frameBytes)/float64(records), "bytes/record")
}

var benchFrameSink []byte

// BenchmarkEncodeChunk encodes one default-size chunk into a checksummed
// frame, the work Build's encoder does per chunk.
func BenchmarkEncodeChunk(b *testing.B) {
	recs := benchGenRecords(b)[:DefaultChunkRecords]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchFrameSink, _ = encodeChunk(recs)
	}
	b.StopTimer()
	reportPerRecord(b, len(recs), uint64(len(benchFrameSink)))
}

// BenchmarkDecodeChunk fetches, checksums and decodes one default-size
// chunk: what a reader pays for a chunk the shared cache does not hold, and
// what BenchmarkCorpusNextBatch's cache-resident stream never shows.
func BenchmarkDecodeChunk(b *testing.B) {
	recs := benchGenRecords(b)[:DefaultChunkRecords]
	c, err := OpenBytes(buildContainer(b, recs, len(recs)))
	if err != nil {
		b.Fatalf("OpenBytes: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.decode(0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPerRecord(b, len(recs), c.Chunk(0).Bytes)
}

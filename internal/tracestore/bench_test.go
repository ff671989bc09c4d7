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

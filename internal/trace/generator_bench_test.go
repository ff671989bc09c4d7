package trace_test

import (
	"math/rand"
	"testing"

	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

// BenchmarkGeneratorFill measures the generator as the simulator consumes
// it: NextBatch into a 512-record buffer, on qmm-srv-01. One op is one
// record.
func BenchmarkGeneratorFill(b *testing.B) {
	g := workloads.QMM()[0].NewReader()
	buf := make([]trace.Record, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += len(buf) {
		if _, err := g.NextBatch(buf[:min(len(buf), b.N-n)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewServerGenerator measures building a generator, cycling over
// the six Figure 15 benchmark workloads (1,200 to 2,800 code pages).
func BenchmarkNewServerGenerator(b *testing.B) {
	qmm := workloads.QMM()
	ps := []trace.ServerParams{qmm[0].Params, qmm[9].Params, qmm[18].Params, qmm[26].Params, qmm[35].Params, qmm[44].Params}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.NewServerGenerator(ps[i%len(ps)])
	}
}

// BenchmarkZipf compares the generator's table-driven data-page sampler
// with rand.Zipf over the same stream, on qmm-srv-01's Zipf shape. The
// table sub-benchmark also reports the share of draws the table answers.
func BenchmarkZipf(b *testing.B) {
	p := workloads.QMM()[0].Params
	imax := uint64(p.DataPages - 1)
	var sink uint64
	b.Run("table", func(b *testing.B) {
		var src trace.RNGSource
		src.Seed(p.Seed)
		z := new(trace.ZipfSampler)
		z.Init(&src, p.ZipfS(), imax)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += z.Sample(&src)
		}
		b.StopTimer()
		answering := 0
		for _, e := range z.Table() {
			if e != 0 {
				answering++
			}
		}
		b.ReportMetric(float64(answering)/float64(len(z.Table())), "table-share")
	})
	b.Run("math-rand", func(b *testing.B) {
		z := rand.NewZipf(rand.New(rand.NewSource(p.Seed)), p.ZipfS(), 1, imax)
		for i := 0; i < b.N; i++ {
			sink += z.Uint64()
		}
	})
	_ = sink
}

package trace_test

import (
	"errors"
	"flag"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

// The generator reproduces math/rand's value streams with its own source
// and Zipf sampler. These tests check both against math/rand itself, over
// the seeds and Zipf shapes of every built-in workload and of the custom
// edge cases of TestStreamGolden.

// seeds returns the seeds of every built-in workload plus the edge cases of
// math/rand's seeding: zero, negative and beyond 2^31-1.
func seeds() []int64 {
	out := []int64{0, -1, 1<<31 - 1, 1 << 40}
	for _, w := range workloads.All() {
		out = append(out, w.Params.Seed)
	}
	return out
}

func TestRNGSourceMatchesMathRand(t *testing.T) {
	const draws = 1_000_000
	for _, seed := range seeds() {
		var src trace.RNGSource
		src.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < draws; i++ {
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: draw %d = %#x, math/rand gives %#x", seed, i, got, want)
			}
		}
	}
}

// TestRNGSourceValueStreams interleaves every derived draw the generator
// makes, in an order drawn from a third stream, against rand.Rand's.
func TestRNGSourceValueStreams(t *testing.T) {
	ns := []int64{1, 2, 3, 4, 7, 10, 64, 1000, 4096, 4001, 1<<31 - 1, 1 << 31, 1<<31 + 5, 1 << 40, 3<<60 + 1}
	for _, seed := range seeds() {
		var src trace.RNGSource
		src.Seed(seed)
		ref := rand.New(rand.NewSource(seed))
		sched := rand.New(rand.NewSource(seed + 1))
		for i := 0; i < 100_000; i++ {
			n := ns[sched.Intn(len(ns))]
			var got, want any
			switch op := sched.Intn(5); op {
			case 0:
				got, want = src.Float64(), ref.Float64()
			case 1:
				got, want = src.Intn(int(n)), ref.Intn(int(n))
			case 2:
				got, want = src.Int63n(n), ref.Int63n(n)
			case 3:
				got, want = src.Int63(), ref.Int63()
			case 4:
				m := sched.Intn(40)
				if p, q := src.Perm(m), ref.Perm(m); !slices.Equal(p, q) {
					t.Fatalf("seed %d: op %d: Perm(%d) = %v, math/rand gives %v", seed, i, m, p, q)
				}
				continue
			}
			if got != want {
				t.Fatalf("seed %d: op %d (kind %T, n %d) = %v, math/rand gives %v", seed, i, got, n, got, want)
			}
		}
	}
}

// zipfCase is one Zipf shape a generator samples data pages with.
type zipfCase struct {
	name string
	seed int64
	s    float64
	imax uint64
}

// zipfCases returns the distinct shapes of the golden stream cases.
func zipfCases() []zipfCase {
	var out []zipfCase
	for _, c := range streamCases() {
		z := zipfCase{c.name, c.params.Seed, c.params.ZipfS(), uint64(c.params.DataPages - 1)}
		if !slices.ContainsFunc(out, func(o zipfCase) bool { return o.s == z.s && o.imax == z.imax }) {
			out = append(out, z)
		}
	}
	return out
}

// zipfDraws, when set, is the number of draws per shape in
// TestZipfMatchesMathRand; CI sets 10M.
var zipfDraws = flag.Int("zipf-draws", 0, "draws per Zipf shape in TestZipfMatchesMathRand (default 10M in all)")

// TestZipfMatchesMathRand draws ranks from each shape's sampler and from
// rand.Zipf over rand.NewSource, 10M in all unless -zipf-draws is set, with
// Float64 and Intn draws interleaved so the samples fall at every offset of
// the source's blocks.
func TestZipfMatchesMathRand(t *testing.T) {
	cases := zipfCases()
	per := 10_000_000/len(cases) + 1
	if *zipfDraws > 0 {
		per = *zipfDraws
	}
	for _, c := range cases {
		var src trace.RNGSource
		src.Seed(c.seed)
		var z trace.ZipfSampler
		z.Init(&src, c.s, c.imax)
		ref := rand.New(rand.NewSource(c.seed))
		rz := rand.NewZipf(ref, c.s, 1, c.imax)
		for i := 0; i < per; i++ {
			if got, want := z.Sample(&src), rz.Uint64(); got != want {
				t.Fatalf("%s (s=%v, imax=%d): draw %d = %d, rand.Zipf gives %d", c.name, c.s, c.imax, i, got, want)
			}
			switch i % 4 {
			case 1:
				if got, want := src.Float64(), ref.Float64(); got != want {
					t.Fatalf("%s: Float64 after draw %d = %v, math/rand gives %v", c.name, i, got, want)
				}
			case 3:
				if got, want := src.Intn(1000), ref.Intn(1000); got != want {
					t.Fatalf("%s: Intn after draw %d = %v, math/rand gives %v", c.name, i, got, want)
				}
			}
		}
	}
}

var errSecondDraw = errors.New("second draw")

// oneDraw is a rand.Source that yields one scripted value and panics with
// errSecondDraw if drawn again.
type oneDraw struct {
	v     int64
	drawn bool
}

func (s *oneDraw) Int63() int64 {
	if s.drawn {
		panic(errSecondDraw)
	}
	s.drawn = true
	return s.v
}

func (s *oneDraw) Seed(int64) {}

// firstDraw returns rand.Zipf's answer when the source yields v, and false
// if it drew again: a rejection, or a Float64 redraw.
func firstDraw(z *rand.Zipf, src *oneDraw, v int64) (k uint64, ok bool) {
	*src = oneDraw{v: v}
	defer func() {
		if r := recover(); r != nil {
			if r != errSecondDraw {
				panic(r)
			}
			ok = false
		}
	}()
	return z.Uint64(), true
}

// TestZipfTableBuckets feeds the first and last source value of every
// answering bucket to rand.Zipf itself: each must return the bucket's rank
// without a second draw. It also checks that the table answers at least 90%
// of draws for the QMM workloads.
func TestZipfTableBuckets(t *testing.T) {
	const width = int64(1) << (63 - trace.ZipfBits)
	for _, c := range zipfCases() {
		var src trace.RNGSource
		var z trace.ZipfSampler
		z.Init(&src, c.s, c.imax)
		script := new(oneDraw)
		rz := rand.NewZipf(rand.New(script), c.s, 1, c.imax)
		answering := 0
		for b, e := range z.Table() {
			if e == 0 {
				continue
			}
			answering++
			first := int64(b) * width
			for _, v := range []int64{first, first + width - 1} {
				if k, ok := firstDraw(rz, script, v); !ok || k != uint64(e-1) {
					t.Fatalf("%s (s=%v, imax=%d): bucket %d answers %d, rand.Zipf gives %d (single draw %v) for %#x",
						c.name, c.s, c.imax, b, e-1, k, ok, v)
				}
			}
		}
		share := float64(answering) / float64(len(z.Table()))
		if strings.HasPrefix(c.name, "qmm-") && share < 0.9 {
			t.Errorf("%s (s=%v, imax=%d): table answers %.3f of draws, want >= 0.9", c.name, c.s, c.imax, share)
		}
	}
}

// TestNextBatchMatchesNext reads a generator in batches of sizes that
// straddle the source's 607-value blocks and checks every record against a
// twin read in one-record batches, across phase changes.
func TestNextBatchMatchesNext(t *testing.T) {
	p := workloads.QMM()[0].Params
	short := p
	short.PhaseLen = 5_000
	for _, p := range []trace.ServerParams{p, short} {
		one, batched := trace.NewServerGenerator(p), trace.NewServerGenerator(p)
		sizes := []int{1, 7, 512, 4093}
		buf := make([]trace.Record, 4093)
		rec := make([]trace.Record, 1)
		for i, n := 0, 0; n < 300_000; i++ {
			b := buf[:sizes[i%len(sizes)]]
			if got, err := batched.NextBatch(b); err != nil || got != len(b) {
				t.Fatalf("NextBatch(%d) = %d, %v", len(b), got, err)
			}
			for j := range b {
				if got, err := one.NextBatch(rec); err != nil || got != 1 {
					t.Fatalf("NextBatch(1) = %d, %v", got, err)
				}
				if rec[0] != b[j] {
					t.Fatalf("PhaseLen %d: record %d: batched %+v, one-record %+v", p.PhaseLen, n+j, b[j], rec[0])
				}
			}
			n += len(b)
		}
	}
}

// Package workloads defines the benchmark suite of the reproduction: 45
// synthetic "QMM-like" server workloads standing in for the Qualcomm
// CVP-1/IPC-1 traces the paper evaluates on, a SPEC-CPU-like suite of small
// instruction-footprint workloads for the Figure 3 contrast, and a
// Java-server-like set for the Figure 2 motivation. SMT pairs for the
// Section 6.6 colocation study are drawn from the QMM set.
//
// Parameters are scheduled deterministically per workload index so that the
// suite spans the behaviour the paper reports: instruction footprints of
// several hundred to a few thousand 4 KB pages, Zipf-skewed page popularity
// (a few hundred pages produce 90% of iSTLB misses), successor fan-outs per
// Figure 7, limited small-delta locality per Figure 5, and phase changes.
package workloads

import (
	"fmt"
	"math/rand"
	"sync"

	"morrigan/internal/trace"
)

// Spec names one workload and its generator parameters.
type Spec struct {
	// Name identifies the workload in reports (e.g. "qmm-srv-07").
	Name string
	// Params configures the synthetic trace generator.
	Params trace.ServerParams
}

// NewReader returns a fresh, deterministic instruction stream for the
// workload. Each call restarts the stream from the beginning.
func (s Spec) NewReader() trace.Reader {
	return trace.NewServerGenerator(s.Params)
}

// QMMCount is the size of the server suite, matching the paper's 45
// instruction-TLB-intensive QMM workloads.
const QMMCount = 45

// lerp interpolates a..b by t in [0,1).
func lerp(a, b, t float64) float64 { return a + (b-a)*t }

// QMM returns the 45 QMM-like server workload specs.
func QMM() []Spec {
	specs := make([]Spec, 0, QMMCount)
	for i := 0; i < QMMCount; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		t := float64(i) / float64(QMMCount-1)
		// Spread instruction footprints from ~1000 to ~2750 pages with
		// per-workload jitter, far beyond the 128-entry I-TLB reach and
		// around the shared STLB's capacity. The warm band is an absolute
		// ~520-760 pages so that, as the paper measures, a modest number
		// of pages produces ~90% of the iSTLB misses.
		codePages := int(lerp(1200, 2800, t)) + rng.Intn(150)
		dataPages := 4096 + rng.Intn(8000)
		pWarm := lerp(0.10, 0.24, t) + rng.Float64()*0.02
		specs = append(specs, Spec{
			Name: fmt.Sprintf("qmm-srv-%02d", i+1),
			Params: trace.ServerParams{
				Seed:             int64(7000 + i*13),
				CodePages:        codePages,
				DataPages:        dataPages,
				HotFrac:          (480 + 160*t + 40*rng.Float64()) / float64(codePages),
				WarmFrac:         (300 + 170*t + 40*rng.Float64()) / float64(codePages),
				PHot:             1 - pWarm - 0.008,
				PWarm:            pWarm,
				RoutineLenMin:    2,
				RoutineLenMax:    10 + rng.Intn(8),
				RunLenMin:        6,
				RunLenMax:        28 + rng.Intn(24),
				EntryPoints:      4,
				SeqFrac:          0.16 + rng.Float64()*0.06,
				SmallDeltaFrac:   0.18 + rng.Float64()*0.08,
				BranchSkipFrac:   0.12 + rng.Float64()*0.08,
				SuccWeights:      [5]float64{0.33, 0.20, 0.22, 0.18, 0.07},
				RandomCallFrac:   0.002 + rng.Float64()*0.003,
				LoadFrac:         0.24 + rng.Float64()*0.06,
				StoreFrac:        0.09 + rng.Float64()*0.03,
				DataZipfS:        1.5 + rng.Float64()*0.2,
				DataStreamFrac:   0.12 + rng.Float64()*0.08,
				PhaseLen:         600_000 + uint64(rng.Intn(400_000)),
				PhaseShuffleFrac: 0.04 + rng.Float64()*0.05,
			},
		})
	}
	return specs
}

// SPEC returns SPEC-CPU-like workload specs: small, loopy instruction
// footprints whose iSTLB MPKI is negligible (which is why the paper excludes
// them from the evaluation and uses them only for the Figure 3 contrast).
func SPEC() []Spec {
	names := []string{
		"spec-perlish", "spec-gccish", "spec-mcfish", "spec-omnetish",
		"spec-xalanish", "spec-x264ish", "spec-deepsjengish",
		"spec-leelaish", "spec-exchangeish", "spec-xzish",
	}
	specs := make([]Spec, 0, len(names))
	for i, n := range names {
		rng := rand.New(rand.NewSource(int64(2000 + i)))
		specs = append(specs, Spec{
			Name: n,
			Params: trace.ServerParams{
				Seed:             int64(9000 + i*17),
				CodePages:        24 + rng.Intn(72),
				DataPages:        2048 + rng.Intn(14000),
				HotFrac:          0.5, // tight hot loops: nearly everything resident
				WarmFrac:         0.3,
				PHot:             0.9,
				PWarm:            0.08,
				RoutineLenMin:    1,
				RoutineLenMax:    4,
				RunLenMin:        24,
				RunLenMax:        120,
				EntryPoints:      2,
				SeqFrac:          0.4,
				SmallDeltaFrac:   0.3,
				BranchSkipFrac:   0.05,
				SuccWeights:      [5]float64{0.6, 0.25, 0.1, 0.05, 0},
				RandomCallFrac:   0.05,
				LoadFrac:         0.28,
				StoreFrac:        0.1,
				DataZipfS:        1.3,
				DataStreamFrac:   0.4,
				PhaseLen:         2_000_000,
				PhaseShuffleFrac: 0.05,
			},
		})
	}
	return specs
}

// Java returns Java-server-like specs named after the DaCapo and Renaissance
// applications of Figure 2.
func Java() []Spec {
	names := []string{
		"cassandra", "tomcat", "avrora", "tradesoap", "xalan",
		"http", "chirper",
	}
	specs := make([]Spec, 0, len(names))
	for i, n := range names {
		rng := rand.New(rand.NewSource(int64(3000 + i)))
		codePages := 1100 + rng.Intn(1600)
		pWarm := 0.08 + rng.Float64()*0.12
		specs = append(specs, Spec{
			Name: n,
			Params: trace.ServerParams{
				Seed:             int64(5000 + i*29),
				CodePages:        codePages,
				DataPages:        6144 + rng.Intn(8192),
				HotFrac:          (460 + 140*rng.Float64()) / float64(codePages),
				WarmFrac:         (320 + 160*rng.Float64()) / float64(codePages),
				PHot:             1 - pWarm - 0.008,
				PWarm:            pWarm,
				RoutineLenMin:    2,
				RoutineLenMax:    12,
				RunLenMin:        6,
				RunLenMax:        32,
				EntryPoints:      4,
				SeqFrac:          0.16,
				SmallDeltaFrac:   0.2,
				BranchSkipFrac:   0.15,
				SuccWeights:      [5]float64{0.33, 0.2, 0.22, 0.18, 0.07},
				RandomCallFrac:   0.004,
				LoadFrac:         0.26,
				StoreFrac:        0.1,
				DataZipfS:        1.6,
				DataStreamFrac:   0.18,
				PhaseLen:         700_000,
				PhaseShuffleFrac: 0.06,
			},
		})
	}
	return specs
}

// SMTPairs draws n deterministic random pairs of distinct QMM workloads for
// the Section 6.6 colocation study (the paper uses 50 randomly chosen
// pairs).
func SMTPairs(n int, seed int64) [][2]Spec {
	qmm := QMM()
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]Spec, 0, n)
	for len(pairs) < n {
		a, b := rng.Intn(len(qmm)), rng.Intn(len(qmm))
		if a == b {
			continue
		}
		pairs = append(pairs, [2]Spec{qmm[a], qmm[b]})
	}
	return pairs
}

// Mixes draws n deterministic colocation mixes of `way` distinct QMM
// workloads each, generalising SMTPairs to the N-way shared-STLB studies.
// The same (n, way, seed) always yields the same mixes.
func Mixes(n, way int, seed int64) [][]Spec {
	qmm := QMM()
	rng := rand.New(rand.NewSource(seed))
	mixes := make([][]Spec, 0, n)
	for len(mixes) < n {
		picked := make(map[int]bool, way)
		mix := make([]Spec, 0, way)
		for len(mix) < way {
			i := rng.Intn(len(qmm))
			if picked[i] {
				continue
			}
			picked[i] = true
			mix = append(mix, qmm[i])
		}
		mixes = append(mixes, mix)
	}
	return mixes
}

// builtins is every built-in workload, built once for name lookups. A Spec
// holds no references, so handing out copies cannot alter the table.
var builtins = sync.OnceValue(All)

// ByName returns the workload with the given name from any built-in suite.
func ByName(name string) (Spec, bool) {
	for _, s := range builtins() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// All returns every built-in workload.
func All() []Spec {
	var out []Spec
	out = append(out, QMM()...)
	out = append(out, SPEC()...)
	out = append(out, Java()...)
	return out
}

package machine

import (
	"fmt"
	"testing"

	"morrigan/internal/arch"
	"morrigan/internal/core"
	"morrigan/internal/sim"
	"morrigan/internal/workloads"
)

// batchedKindMatrix enumerates every prefetcher, I-cache prefetcher and
// page-table kind a Spec can name. The batched-pipeline equivalence suite
// runs the full cross product.
var (
	batchedPFSpecs = []struct {
		name string
		spec func() PrefetcherSpec
	}{
		{"none", func() PrefetcherSpec { return PrefetcherSpec{} }},
		{"sp", SP},
		{"asp", func() PrefetcherSpec { return ASP(256) }},
		{"dp", func() PrefetcherSpec { return DP(256) }},
		{"mp", func() PrefetcherSpec { return MP(128, 4) }},
		{"mp-unbounded", func() PrefetcherSpec { return UnboundedMP(2) }},
		{"morrigan", func() PrefetcherSpec { return Morrigan(core.DefaultConfig()) }},
	}
	batchedICSpecs = []struct {
		name string
		spec func() ICacheSpec
	}{
		{"next-line", func() ICacheSpec { return ICacheSpec{} }},
		{"fnl-mma", FNLMMA},
		{"epi", EPI},
		{"djolt", DJolt},
	}
	batchedPTKinds = []string{"radix-4", "radix-5", "hashed"}
)

// runBatchedPair builds the spec twice (fresh prefetcher instances each
// time) and runs the same workload through the batched and the per-record
// reference loops, returning both snapshots.
func runBatchedPair(t *testing.T, s Spec, warmup, measure uint64) (batched, reference sim.Stats) {
	t.Helper()
	run := func(ref bool) sim.Stats {
		cfg, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg.ReferenceLoop = ref
		m, err := sim.New(cfg, []sim.ThreadSpec{{Reader: workloads.QMM()[3].NewReader()}})
		if err != nil {
			t.Fatal(err)
		}
		if !ref {
			pfOK, icOK := m.Devirtualized()
			if !pfOK || !icOK {
				t.Fatalf("spec-built simulator not devirtualized: pf=%v icache=%v", pfOK, icOK)
			}
		}
		st, err := m.Run(warmup, measure)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	return run(false), run(true)
}

// TestBatchedEquivalenceAcrossKinds asserts the tentpole invariant: for
// every prefetcher × I-cache prefetcher × page-table kind a machine.Spec can
// describe, the batched run loop produces Stats bit-identical to the
// per-record reference loop, with the prefetcher call sites devirtualized.
// Page-crossing I-cache translation cost is enabled so the TokenICache PB
// path is exercised too.
func TestBatchedEquivalenceAcrossKinds(t *testing.T) {
	for _, pf := range batchedPFSpecs {
		for _, ic := range batchedICSpecs {
			for _, pt := range batchedPTKinds {
				name := fmt.Sprintf("%s/%s/%s", pf.name, ic.name, pt)
				t.Run(name, func(t *testing.T) {
					s := Default()
					s.Prefetcher = pf.spec()
					s.ICachePrefetcher = ic.spec()
					s.PageTable = pt
					s.ICacheTLBCost = ic.name != "next-line"
					batched, reference := runBatchedPair(t, s, 2_000, 10_000)
					if batched != reference {
						t.Fatalf("batched loop diverged from reference:\nbatched:   %+v\nreference: %+v", batched, reference)
					}
				})
			}
		}
	}
}

// stressShapes are the run-loop shapes the kind matrix holds fixed: SMT
// colocation, context switches, correcting walks, huge data pages and
// prefetch-into-STLB.
var stressShapes = []struct {
	name    string
	spec    func() Spec
	threads int
}{
	{"smt-morrigan", func() Spec {
		s := Default()
		s.Prefetcher = Morrigan(core.DefaultConfig())
		return s
	}, 2},
	{"context-switches", func() Spec {
		s := Default()
		s.Prefetcher = Morrigan(core.DefaultConfig())
		s.ContextSwitchInterval = 3_000
		return s
	}, 1},
	{"correcting-walks", func() Spec {
		s := Default()
		s.Prefetcher = Morrigan(core.DefaultConfig())
		s.CorrectingWalks = true
		return s
	}, 1},
	{"huge-data-pages", func() Spec {
		s := Default()
		s.Prefetcher = SP()
		s.HugeDataPages = true
		return s
	}, 1},
	{"prefetch-into-stlb", func() Spec {
		s := Default()
		s.Prefetcher = Morrigan(core.DefaultConfig())
		s.PrefetchIntoSTLB = true
		return s
	}, 1},
}

// TestBatchedEquivalenceStressShapes runs each stress shape against the
// reference loop.
func TestBatchedEquivalenceStressShapes(t *testing.T) {
	for _, sh := range stressShapes {
		t.Run(sh.name, func(t *testing.T) {
			run := func(ref bool) sim.Stats {
				cfg, err := sh.spec().Build()
				if err != nil {
					t.Fatal(err)
				}
				cfg.ReferenceLoop = ref
				var threads []sim.ThreadSpec
				for i := 0; i < sh.threads; i++ {
					threads = append(threads, sim.ThreadSpec{
						Reader:   workloads.QMM()[i+1].NewReader(),
						VAOffset: arch.VAddr(i) << 40,
					})
				}
				m, err := sim.New(cfg, threads)
				if err != nil {
					t.Fatal(err)
				}
				st, err := m.Run(3_000, 15_000)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			batched, reference := run(false), run(true)
			if batched != reference {
				t.Fatalf("batched loop diverged from reference:\nbatched:   %+v\nreference: %+v", batched, reference)
			}
		})
	}
}

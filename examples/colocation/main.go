// Colocation: the paper's Section 6.6 scenario — two server workloads
// sharing an SMT core, which doubles the pressure on the shared STLB and
// caches. The example measures how much Morrigan recovers, with the IRIP
// tables at the single-thread size and at the doubled (7.5 KB) size the
// paper recommends for SMT.
package main

import (
	"fmt"
	"log"

	"morrigan"
)

func main() {
	const warmup, measure = 1_000_000, 4_000_000

	pair := morrigan.SMTWorkloadPairs(1, 7)[0]
	a, b := pair[0], pair[1]

	run := func(label string, prefetcher morrigan.MachinePrefetcherSpec) morrigan.Stats {
		cfg := morrigan.DefaultConfig()
		cfg.Prefetcher = prefetcher
		sim, err := morrigan.NewSimulator(cfg, []morrigan.ThreadSpec{
			{Reader: a.NewReader()},
			// The second process lives in its own address space.
			{Reader: b.NewReader(), VAOffset: 1 << 40},
		})
		if err != nil {
			log.Fatal(err)
		}
		st, err := sim.Run(warmup, measure)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s IPC %.3f  iSTLB MPKI %.2f  PB hits %d\n",
			label, st.IPC, st.ISTLBMPKI, st.PBHits)
		return st
	}

	fmt.Printf("colocating %s with %s on a 2-thread SMT core\n\n", a.Name, b.Name)

	// Single-thread reference for thread 0's workload.
	solo, err := morrigan.NewSimulator(morrigan.DefaultConfig(), []morrigan.ThreadSpec{
		{Reader: a.NewReader()},
	})
	if err != nil {
		log.Fatal(err)
	}
	soloStats, err := solo.Run(warmup, measure)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s IPC %.3f  iSTLB MPKI %.2f\n", a.Name+" alone", soloStats.IPC, soloStats.ISTLBMPKI)

	base := run("colocated, no prefetching", morrigan.MachinePrefetcherSpec{})
	one := run("colocated + Morrigan 1x", morrigan.MorriganMachineSpec(morrigan.DefaultPrefetcherConfig()))
	two := run("colocated + Morrigan 2x", morrigan.MorriganMachineSpec(morrigan.ScaledPrefetcherConfig(2)))

	speedup := func(st morrigan.Stats) float64 {
		return (float64(base.Cycles)/float64(st.Cycles) - 1) * 100
	}
	fmt.Printf("\nMorrigan 1x tables: %+.2f%%   Morrigan 2x tables (paper's SMT config): %+.2f%%\n",
		speedup(one), speedup(two))
}

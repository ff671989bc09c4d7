// Quickstart: run one server workload with and without Morrigan and report
// the speedup, miss coverage and page-walk savings — the paper's headline
// metrics on a single workload.
package main

import (
	"fmt"
	"log"

	"morrigan"
)

func main() {
	const warmup, measure = 1_000_000, 5_000_000

	workload, ok := morrigan.WorkloadByName("qmm-srv-30")
	if !ok {
		log.Fatal("workload not found")
	}

	run := func(prefetcher morrigan.MachinePrefetcherSpec) morrigan.Stats {
		cfg := morrigan.DefaultConfig()
		cfg.Prefetcher = prefetcher
		sim, err := morrigan.NewSimulator(cfg, []morrigan.ThreadSpec{
			{Reader: workload.NewReader()},
		})
		if err != nil {
			log.Fatal(err)
		}
		stats, err := sim.Run(warmup, measure)
		if err != nil {
			log.Fatal(err)
		}
		return stats
	}

	fmt.Printf("workload %s: %d instructions measured after %d warmup\n\n",
		workload.Name, uint64(measure), uint64(warmup))

	base := run(morrigan.MachinePrefetcherSpec{}) // kind "none"
	fmt.Printf("baseline (no iSTLB prefetching):\n")
	fmt.Printf("  IPC %.3f, iSTLB MPKI %.2f, %d demand instruction walks (%d memory refs)\n\n",
		base.IPC, base.ISTLBMPKI, base.DemandIWalks, base.DemandIWalkRefs)

	mor := run(morrigan.MorriganMachineSpec(morrigan.DefaultPrefetcherConfig()))
	fmt.Printf("with Morrigan (%.2f KB of prediction state):\n",
		morrigan.NewMorrigan(morrigan.DefaultPrefetcherConfig()).StorageBytes()/1024)
	fmt.Printf("  IPC %.3f, %d of %d iSTLB misses served by the prefetch buffer\n",
		mor.IPC, mor.PBHits, mor.ISTLBMisses)
	fmt.Printf("  PB hit attribution: IRIP %d, SDP %d\n", mor.IRIPHits, mor.SDPHits)

	speedup := (float64(base.Cycles)/float64(mor.Cycles) - 1) * 100
	walkCut := 100 * (1 - float64(mor.DemandIWalkRefs)/float64(base.DemandIWalkRefs))
	fmt.Printf("\nspeedup: %+.2f%%   demand page-walk memory references cut by %.1f%%\n",
		speedup, walkCut)
}

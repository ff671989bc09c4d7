package morrigan_test

import (
	"fmt"

	"morrigan"
)

// ExampleNewSimulator runs a server workload with Morrigan attached and
// inspects the measurement snapshot.
func ExampleNewSimulator() {
	workload, _ := morrigan.WorkloadByName("qmm-srv-30")

	cfg := morrigan.DefaultConfig() // the paper's Table 1 machine
	cfg.Prefetcher = morrigan.MorriganMachineSpec(morrigan.DefaultPrefetcherConfig())

	sim, err := morrigan.NewSimulator(cfg, []morrigan.ThreadSpec{
		{Reader: workload.NewReader()},
	})
	if err != nil {
		panic(err)
	}
	stats, err := sim.Run(200_000, 800_000) // warmup, measure
	if err != nil {
		panic(err)
	}
	fmt.Println("measured all instructions:", stats.Instructions == 800_000)
	fmt.Println("iSTLB misses observed:", stats.ISTLBMisses > 0)
	fmt.Println("misses covered by the prefetch buffer:", stats.PBHits > 0)
	// Output:
	// measured all instructions: true
	// iSTLB misses observed: true
	// misses covered by the prefetch buffer: true
}

// ExampleNewMorrigan shows the prefetcher's storage accounting at the
// paper's design point.
func ExampleNewMorrigan() {
	m := morrigan.NewMorrigan(morrigan.DefaultPrefetcherConfig())
	fmt.Println(m.Name())
	fmt.Printf("%.0f bits across %d entries\n", float64(m.StorageBits()), m.Capacity())
	// Output:
	// Morrigan
	// 31104 bits across 448 entries
}

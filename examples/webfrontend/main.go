// Webfrontend: a capacity-planning style scenario. A "web front end"
// service (one of the Java-server-like workloads the paper's Figure 2
// motivates) suffers front-end stalls from instruction address translation.
// This example sweeps the candidate hardware options a designer would weigh
// — the prior dSTLB prefetchers, a bigger STLB, ASAP, and Morrigan — at
// comparable hardware budgets, and reports the winner.
package main

import (
	"fmt"
	"log"
	"sort"

	"morrigan"
)

type option struct {
	name string
	cfg  func() morrigan.Config
}

func main() {
	const warmup, measure = 1_000_000, 4_000_000

	workload, ok := morrigan.WorkloadByName("tomcat")
	if !ok {
		log.Fatal("workload not found")
	}

	options := []option{
		{"baseline (no change)", func() morrigan.Config {
			return morrigan.DefaultConfig()
		}},
		{"sequential prefetcher (SP)", func() morrigan.Config {
			c := morrigan.DefaultConfig()
			c.Prefetcher = morrigan.SPSpec()
			return c
		}},
		{"Markov prefetcher (MP, 128e)", func() morrigan.Config {
			c := morrigan.DefaultConfig()
			c.Prefetcher = morrigan.MPSpec(128, 4)
			return c
		}},
		{"enlarged STLB (+384 entries)", func() morrigan.Config {
			c := morrigan.DefaultConfig()
			c.STLBEntries = 1920
			return c
		}},
		{"ASAP walk acceleration", func() morrigan.Config {
			c := morrigan.DefaultConfig()
			c.Walker.ASAP = true
			return c
		}},
		{"Morrigan (3.8 KB)", func() morrigan.Config {
			c := morrigan.DefaultConfig()
			c.Prefetcher = morrigan.MorriganMachineSpec(morrigan.DefaultPrefetcherConfig())
			return c
		}},
		{"Morrigan + ASAP", func() morrigan.Config {
			c := morrigan.DefaultConfig()
			c.Prefetcher = morrigan.MorriganMachineSpec(morrigan.DefaultPrefetcherConfig())
			c.Walker.ASAP = true
			return c
		}},
	}

	type outcome struct {
		name    string
		cycles  morrigan.Cycle
		ipc     float64
		mpki    float64
		speedup float64
	}
	var results []outcome
	var baseCycles morrigan.Cycle

	for _, opt := range options {
		sim, err := morrigan.NewSimulator(opt.cfg(), []morrigan.ThreadSpec{
			{Reader: workload.NewReader()},
		})
		if err != nil {
			log.Fatal(err)
		}
		st, err := sim.Run(warmup, measure)
		if err != nil {
			log.Fatal(err)
		}
		if baseCycles == 0 {
			baseCycles = st.Cycles
		}
		results = append(results, outcome{
			name:    opt.name,
			cycles:  st.Cycles,
			ipc:     st.IPC,
			mpki:    st.ISTLBMPKI,
			speedup: (float64(baseCycles)/float64(st.Cycles) - 1) * 100,
		})
	}

	sort.Slice(results, func(i, j int) bool { return results[i].cycles < results[j].cycles })

	fmt.Printf("front-end options for %q (%d instructions):\n\n", workload.Name, uint64(measure))
	fmt.Printf("%-32s %10s %7s %12s %9s\n", "option", "cycles", "IPC", "iSTLB MPKI", "speedup")
	for _, r := range results {
		fmt.Printf("%-32s %10d %7.3f %12.2f %+8.2f%%\n", r.name, r.cycles, r.ipc, r.mpki, r.speedup)
	}
	fmt.Printf("\nbest option: %s\n", results[0].name)
}

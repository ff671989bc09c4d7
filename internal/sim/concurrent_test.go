package sim

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"morrigan/internal/core"
	"morrigan/internal/machine"
	"morrigan/internal/workloads"
)

// TestConcurrentSimulationsIndependent proves the concurrency-safety
// contract the campaign runner relies on: simulators built by New from one
// shared Config value share no mutable state — New constructs every
// prefetcher afresh — so they can run on concurrent goroutines (exercised
// under -race) and still produce exactly the stats of a serial run.
func TestConcurrentSimulationsIndependent(t *testing.T) {
	qmm := workloads.QMM()
	specs := []workloads.Spec{qmm[0], qmm[1]}
	const warmup, measure = 5_000, 20_000
	cfg := DefaultConfig()
	cfg.Prefetcher = machine.Morrigan(core.DefaultConfig())
	cfg.ICachePrefetcher = machine.FNLMMA()

	build := func(w workloads.Spec) *Simulator { return mustNew(t, cfg, []ThreadSpec{{Reader: w.NewReader()}}) }
	run := func(s *Simulator) Stats {
		st, err := s.RunContext(context.Background(), warmup, measure)
		if err != nil {
			t.Error(err)
		}
		return st
	}

	var serial [2]Stats
	for i, w := range specs {
		serial[i] = run(build(w))
	}

	var sims [2]*Simulator
	for i, w := range specs {
		sims[i] = build(w)
	}
	if sims[0].pf == sims[1].pf {
		t.Error("two simulators from one Config share an iSTLB prefetcher instance")
	}
	if sims[0].icpf == sims[1].icpf {
		t.Error("two simulators from one Config share an I-cache prefetcher instance")
	}
	var concurrent [2]Stats
	var wg sync.WaitGroup
	for i := range sims {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = run(sims[i])
		}()
	}
	wg.Wait()

	for i := range specs {
		if !reflect.DeepEqual(serial[i], concurrent[i]) {
			t.Errorf("workload %s: concurrent run diverged from serial run", specs[i].Name)
		}
	}
}

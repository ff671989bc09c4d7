package experiments

import (
	"testing"

	"morrigan/internal/tracestore"
	"morrigan/internal/workloads"
)

// TestCorpusStatsEquivalence runs one campaign with trace supply from live
// generators, then from a materialised corpus store — once starting empty,
// once already holding one workload as a container shorter than the window
// — and requires bit-identical Stats for every job, single-threaded and SMT
// alike. The corpus is purely a faster way to deliver the same record
// stream; any divergence here means the container or the batch path altered
// the simulation.
func TestCorpusStatsEquivalence(t *testing.T) {
	o := Options{Warmup: 10_000, Measure: 40_000, Jobs: 2}
	ws := workloads.QMM()
	jobs := []simJob{
		job("baseline", ws[0], baseline()),
		job("baseline", ws[1], baseline()),
		pairJob("baseline", ws[0], ws[2], baseline()),
	}
	gen, err := o.campaign("equiv", jobs)
	if err != nil {
		t.Fatalf("generator campaign: %v", err)
	}

	for _, tc := range []struct {
		name  string
		short bool // materialise ws[1] 1,000 records long before the campaign
	}{
		{"empty_store", false},
		// A container shorter than the window must be rebuilt to cover it,
		// not replayed short.
		{"short_container", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := tracestore.Open(tracestore.Options{Dir: t.TempDir(), ChunkRecords: 4096})
			if err != nil {
				t.Fatalf("tracestore.Open: %v", err)
			}
			defer store.Close()
			if tc.short {
				if _, err := store.Materialize(ws[1], 1_000); err != nil {
					t.Fatalf("Materialize: %v", err)
				}
			}
			oc := o
			oc.Corpus = store
			cor, err := oc.campaign("equiv", jobs)
			if err != nil {
				t.Fatalf("corpus campaign: %v", err)
			}

			if len(gen) != len(cor) {
				t.Fatalf("campaign sizes differ: %d vs %d", len(gen), len(cor))
			}
			for i := range gen {
				if gen[i] != cor[i] {
					t.Errorf("job %d stats diverge:\ngenerator: %+v\ncorpus:    %+v", i, gen[i], cor[i])
				}
			}

			// The store decoded each chunk at most once per residency; with
			// the default budget nothing is evicted at this scale, so
			// cross-job sharing must show up as hits.
			cs := store.CacheStats()
			if cs.Gets != cs.Hits+cs.Misses || cs.Decodes != cs.Misses {
				t.Fatalf("cache accounting inconsistent: %+v", cs)
			}
			if cs.Hits == 0 {
				t.Fatalf("campaign with a shared workload produced no cache hits: %+v", cs)
			}

			// Rerunning against the already-materialised store must also match.
			again, err := oc.campaign("equiv", jobs)
			if err != nil {
				t.Fatalf("second corpus campaign: %v", err)
			}
			for i := range gen {
				if gen[i] != again[i] {
					t.Errorf("job %d stats diverge on corpus reuse", i)
				}
			}
		})
	}
}

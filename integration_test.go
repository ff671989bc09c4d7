package morrigan_test

import (
	"os"
	"path/filepath"
	"testing"

	"morrigan"
)

// TestFileTraceMatchesGenerator round-trips a workload through a corpus
// container file and checks that replaying the file produces exactly the
// same simulation results as the live generator — an end-to-end check of the
// format, the reader, and simulator determinism.
func TestFileTraceMatchesGenerator(t *testing.T) {
	const n = 300_000
	w := morrigan.QMMWorkloads()[8]
	c := buildCorpusFile(t, w.NewReader(), n)

	run := func(r morrigan.TraceReader) morrigan.Stats {
		cfg := morrigan.DefaultConfig()
		cfg.Prefetcher = morrigan.MorriganMachineSpec(morrigan.DefaultPrefetcherConfig())
		s, err := morrigan.NewSimulator(cfg, []morrigan.ThreadSpec{{Reader: r}})
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.Run(n/4, n/2)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	fromFile := c.NewReader()
	defer fromFile.Close()
	a := run(morrigan.LimitTrace(w.NewReader(), n))
	b := run(fromFile)
	if a != b {
		t.Fatalf("file-driven run differs from generator-driven run:\n%+v\n%+v", a, b)
	}
}

// buildCorpusFile writes n records of src to a container file in a test
// directory and opens it; the corpus is closed when the test ends.
func buildCorpusFile(t *testing.T, src morrigan.TraceReader, n uint64) *morrigan.Corpus {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.mtc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := morrigan.BuildCorpus(f, src, n, morrigan.CorpusBuildOptions{})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != n {
		t.Fatalf("built %d records, want %d", info.Records, n)
	}
	c, err := morrigan.OpenCorpusFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestKitchenSinkConfiguration exercises every optional feature at once:
// SMT colocation, Morrigan with doubled tables, FNL+MMA with translation
// costs, a hashed page table, periodic context switches, ASAP walks and
// correcting walks. The point is that the features compose without
// violating basic accounting invariants.
func TestKitchenSinkConfiguration(t *testing.T) {
	pair := morrigan.SMTWorkloadPairs(1, 3)[0]
	cfg := morrigan.DefaultConfig()
	cfg.Prefetcher = morrigan.MorriganMachineSpec(morrigan.ScaledPrefetcherConfig(2))
	cfg.ICachePrefetcher = morrigan.FNLMMASpec()
	cfg.ICacheTLBCost = true
	cfg.PageTable = morrigan.PageTableHashed
	cfg.ContextSwitchInterval = 150_000
	cfg.Walker.ASAP = true
	cfg.CorrectingWalks = true

	s, err := morrigan.NewSimulator(cfg, []morrigan.ThreadSpec{
		{Reader: pair[0].NewReader()},
		{Reader: pair[1].NewReader(), VAOffset: 1 << 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Run(150_000, 600_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != 600_000 {
		t.Fatalf("Instructions = %d", st.Instructions)
	}
	if st.IPC <= 0 || st.IPC > 4 {
		t.Fatalf("IPC = %v", st.IPC)
	}
	if st.ISTLBMisses == 0 || st.PBHits == 0 {
		t.Fatalf("prefetching inactive: %+v", st)
	}
	if st.ContextSwitches == 0 {
		t.Fatal("no context switches")
	}
	if st.DemandIWalks+st.PBHits != st.ISTLBMisses {
		t.Fatalf("accounting identity broken: walks %d + hits %d != misses %d",
			st.DemandIWalks, st.PBHits, st.ISTLBMisses)
	}
}

// TestAccountingIdentities checks cross-component bookkeeping on a plain
// run: every iSTLB miss either hits the PB or demand-walks; MPKI fields are
// consistent with raw counts.
func TestAccountingIdentities(t *testing.T) {
	w := morrigan.QMMWorkloads()[25]
	cfg := morrigan.DefaultConfig()
	cfg.Prefetcher = morrigan.MorriganMachineSpec(morrigan.DefaultPrefetcherConfig())
	s, err := morrigan.NewSimulator(cfg, []morrigan.ThreadSpec{{Reader: w.NewReader()}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Run(200_000, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.DemandIWalks+st.PBHits != st.ISTLBMisses {
		t.Fatalf("misses %d != walks %d + PB hits %d", st.ISTLBMisses, st.DemandIWalks, st.PBHits)
	}
	wantMPKI := float64(st.ISTLBMisses) * 1000 / float64(st.Instructions)
	if diff := st.ISTLBMPKI - wantMPKI; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("ISTLBMPKI %v != %v", st.ISTLBMPKI, wantMPKI)
	}
	if st.IRIPHits+st.SDPHits > st.PBHits {
		t.Fatalf("module hits %d+%d exceed PB hits %d", st.IRIPHits, st.SDPHits, st.PBHits)
	}
	// Demand instruction walk references come only from those walks.
	if st.DemandIWalkRefs < st.DemandIWalks {
		t.Fatalf("walk refs %d < walks %d", st.DemandIWalkRefs, st.DemandIWalks)
	}
}

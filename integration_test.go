package morrigan_test

import (
	"bytes"
	"testing"

	"morrigan"
)

// TestFileTraceMatchesGenerator round-trips a workload through the trace
// file format and checks that replaying the file produces exactly the same
// simulation results as the live generator — an end-to-end check of the
// format, the reader, and simulator determinism.
func TestFileTraceMatchesGenerator(t *testing.T) {
	const n = 300_000
	w := morrigan.QMMWorkloads()[8]

	// Serialise n instructions.
	var buf bytes.Buffer
	tw, err := morrigan.NewTraceWriter(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]morrigan.TraceRecord, n)
	if _, err := w.NewReader().NextBatch(recs); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := tw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	run := func(r morrigan.TraceReader) morrigan.Stats {
		cfg := morrigan.DefaultConfig()
		cfg.Prefetcher = morrigan.NewMorrigan(morrigan.DefaultPrefetcherConfig())
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

	fromFile, err := morrigan.NewTraceFileReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a := run(morrigan.LimitTrace(w.NewReader(), n))
	b := run(fromFile)
	if a != b {
		t.Fatalf("file-driven run differs from generator-driven run:\n%+v\n%+v", a, b)
	}
}

// TestKitchenSinkConfiguration exercises every optional feature at once:
// SMT colocation, Morrigan with doubled tables, FNL+MMA with translation
// costs, a hashed page table, periodic context switches, ASAP walks and
// correcting walks. The point is that the features compose without
// violating basic accounting invariants.
func TestKitchenSinkConfiguration(t *testing.T) {
	pair := morrigan.SMTWorkloadPairs(1, 3)[0]
	cfg := morrigan.DefaultConfig()
	cfg.Prefetcher = morrigan.NewMorrigan(morrigan.ScaledPrefetcherConfig(2))
	cfg.ICachePrefetcher = morrigan.NewFNLMMA()
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
	cfg.Prefetcher = morrigan.NewMorrigan(morrigan.DefaultPrefetcherConfig())
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

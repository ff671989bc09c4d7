package morrigan_test

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"morrigan"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	w, ok := morrigan.WorkloadByName("qmm-srv-40")
	if !ok {
		t.Fatal("workload missing")
	}
	cfg := morrigan.DefaultConfig()
	cfg.Prefetcher = morrigan.MorriganMachineSpec(morrigan.DefaultPrefetcherConfig())
	s, err := morrigan.NewSimulator(cfg, []morrigan.ThreadSpec{{Reader: w.NewReader()}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Run(300_000, 1_200_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != 1_200_000 || st.PBHits == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPublicPrefetcherConfigs(t *testing.T) {
	def := morrigan.NewMorrigan(morrigan.DefaultPrefetcherConfig())
	mono := morrigan.NewMorrigan(morrigan.MonoPrefetcherConfig())
	big := morrigan.NewMorrigan(morrigan.ScaledPrefetcherConfig(2))
	if def.Name() != "Morrigan" || mono.Name() != "Morrigan-mono" {
		t.Fatal("prefetcher names wrong")
	}
	if big.StorageBits() <= def.StorageBits() {
		t.Fatal("scaled config not larger")
	}
}

func TestPublicWorkloadSuites(t *testing.T) {
	if len(morrigan.QMMWorkloads()) != 45 {
		t.Fatal("QMM suite size")
	}
	if len(morrigan.SPECWorkloads()) == 0 || len(morrigan.JavaWorkloads()) == 0 {
		t.Fatal("suites empty")
	}
	pairs := morrigan.SMTWorkloadPairs(5, 1)
	if len(pairs) != 5 {
		t.Fatal("pairs")
	}
}

func TestPublicTraceRoundTrip(t *testing.T) {
	params := morrigan.QMMWorkloads()[0].Params
	recs := make([]morrigan.TraceRecord, 1000)
	if _, err := morrigan.NewServerTrace(params).NextBatch(recs); err != nil {
		t.Fatal(err)
	}
	r := buildCorpusFile(t, morrigan.NewServerTrace(params), uint64(len(recs))).NewReader()
	defer r.Close()
	got := make([]morrigan.TraceRecord, 0, len(recs))
	batch := make([]morrigan.TraceRecord, 7)
	for {
		k, err := r.NextBatch(batch)
		if err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		got = append(got, batch[:k]...)
	}
	if !slices.Equal(got, recs) {
		t.Fatalf("read %d records back, want the %d written", len(got), len(recs))
	}
}

func TestPublicLimitTrace(t *testing.T) {
	gen := morrigan.NewServerTrace(morrigan.QMMWorkloads()[0].Params)
	lim := morrigan.LimitTrace(gen, 10)
	recs := make([]morrigan.TraceRecord, 4)
	n := 0
	for n <= 11 {
		k, err := lim.NextBatch(recs)
		if err != nil {
			break
		}
		n += k
	}
	if n != 10 {
		t.Fatalf("limited trace yielded %d records", n)
	}
}

func TestPublicExperiments(t *testing.T) {
	ids := morrigan.ExperimentIDs()
	if len(ids) < 15 {
		t.Fatalf("only %d experiments", len(ids))
	}
	tab, err := morrigan.RunExperiment("table1", morrigan.QuickExperimentOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	tab.Render(&sb)
	if sb.Len() == 0 {
		t.Fatal("empty render")
	}
	if _, err := morrigan.RunExperiment("nope", morrigan.QuickExperimentOptions()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestPolicyConstants(t *testing.T) {
	if morrigan.PolicyRLFU.String() != "RLFU" || morrigan.PolicyLRU.String() != "LRU" {
		t.Fatal("policy constants wrong")
	}
	cfg := morrigan.DefaultPrefetcherConfig()
	cfg.Policy = morrigan.PolicyLFU
	if morrigan.NewMorrigan(cfg) == nil {
		t.Fatal("nil prefetcher")
	}
}

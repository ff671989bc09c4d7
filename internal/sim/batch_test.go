package sim

import (
	"testing"

	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

// TestBatchPathMatchesPlain runs the same record stream through whole-slice
// batches and through a reader that returns one record per call, and
// requires bit-identical Stats: where a reader's batches end never shows in
// a result.
func TestBatchPathMatchesPlain(t *testing.T) {
	const warmup, measure = 20_000, 80_000
	recs, err := trace.Slice(testWorkload(), warmup+measure)
	if err != nil {
		t.Fatal(err)
	}
	run := func(r trace.Reader) Stats {
		s := mustNew(t, DefaultConfig(), []ThreadSpec{{Reader: r}})
		st, err := s.Run(warmup, measure)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	batch := run(&trace.SliceReader{Records: recs})
	plain := run(capReader{&trace.SliceReader{Records: recs}, 1})
	if batch != plain {
		t.Fatalf("whole-slice batches diverged from one-record batches:\nbatch: %+v\nplain: %+v", batch, plain)
	}
}

// TestBatchPathSMT is the two-thread variant: both threads on whole-slice
// batches must equal both on one-record batches.
func TestBatchPathSMT(t *testing.T) {
	const warmup, measure = 10_000, 40_000
	a, err := trace.Slice(workloads.QMM()[1].NewReader(), warmup+measure)
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.Slice(workloads.QMM()[2].NewReader(), warmup+measure)
	if err != nil {
		t.Fatal(err)
	}
	run := func(wrap func(trace.Reader) trace.Reader) Stats {
		s := mustNew(t, DefaultConfig(), []ThreadSpec{
			{Reader: wrap(&trace.SliceReader{Records: a})},
			{Reader: wrap(&trace.SliceReader{Records: b}), VAOffset: 1 << 40},
		})
		st, err := s.Run(warmup, measure)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	batch := run(func(r trace.Reader) trace.Reader { return r })
	plain := run(func(r trace.Reader) trace.Reader { return capReader{r, 1} })
	if batch != plain {
		t.Fatalf("SMT whole-slice batches diverged from one-record batches:\nbatch: %+v\nplain: %+v", batch, plain)
	}
}

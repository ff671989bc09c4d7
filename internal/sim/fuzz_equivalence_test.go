package sim

import (
	"testing"

	"morrigan/internal/core"
	"morrigan/internal/machine"
	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

// fuzzPrefetcher names an iSTLB prefetcher for kind index k.
func fuzzPrefetcher(k uint8) machine.PrefetcherSpec {
	switch k % 7 {
	case 1:
		return machine.SP()
	case 2:
		return machine.ASP(128)
	case 3:
		return machine.DP(128)
	case 4:
		return machine.MP(64, 4)
	case 5:
		return machine.UnboundedMP(2)
	case 6:
		return machine.Morrigan(core.DefaultConfig())
	}
	return machine.PrefetcherSpec{}
}

// fuzzICache names an I-cache prefetcher for kind index k.
func fuzzICache(k uint8) machine.ICacheSpec {
	switch k % 4 {
	case 1:
		return machine.FNLMMA()
	case 2:
		return machine.EPI()
	case 3:
		return machine.DJolt()
	}
	return machine.ICacheSpec{}
}

// fuzzPageTables indexes the page-table kinds.
var fuzzPageTables = [...]string{machine.PageTableRadix4, machine.PageTableRadix5, machine.PageTableHashed}

// capReader delivers its reader's records at most k per NextBatch, so the
// simulator's record buffers run dry at arbitrary points inside SMT blocks.
type capReader struct {
	r trace.Reader
	k int
}

func (c capReader) NextBatch(dst []trace.Record) (int, error) {
	return c.r.NextBatch(dst[:min(len(dst), c.k)])
}

// FuzzBatchedLoopEquivalence is a record-boundary oracle: it drives randomly
// shaped workloads and machine configurations through the run loop twice,
// once on the workload's own reader and once with at most batchCap records
// (1..511) per refill, and requires bit-identical Stats. With a cap of 1
// every record follows a refill. The seed corpus covers every prefetcher,
// I-cache prefetcher and page-table kind, SMT, context switches and the
// page-crossing I-cache translation path, so a plain `go test` run already
// sweeps the run loop's interesting shapes.
func FuzzBatchedLoopEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint16(8_000), false, uint32(0), uint16(1))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(2), uint16(12_000), true, uint32(0), uint16(1))
	f.Add(uint8(2), uint8(2), uint8(2), uint8(4), uint16(10_000), false, uint32(5_000), uint16(3))
	f.Add(uint8(3), uint8(3), uint8(0), uint8(6), uint16(9_000), true, uint32(0), uint16(5))
	f.Add(uint8(4), uint8(1), uint8(2), uint8(8), uint16(11_000), true, uint32(3_000), uint16(13))
	f.Add(uint8(5), uint8(2), uint8(1), uint8(10), uint16(7_000), false, uint32(0), uint16(511))
	f.Add(uint8(6), uint8(3), uint8(0), uint8(1), uint16(15_000), true, uint32(7_000), uint16(100))
	f.Add(uint8(6), uint8(0), uint8(0), uint8(3), uint16(20_000), false, uint32(0), uint16(64))
	f.Fuzz(func(t *testing.T, pfK, icK, ptK, wlK uint8, measure uint16, smt bool, ctxSwitch uint32, batchCap uint16) {
		n := uint64(measure)
		if n < 1_000 {
			n = 1_000
		}
		k := max(1, int(batchCap%512))
		qmm := workloads.QMM()
		run := func(wrap func(trace.Reader) trace.Reader) Stats {
			cfg := DefaultConfig()
			cfg.Prefetcher = fuzzPrefetcher(pfK)
			cfg.ICachePrefetcher = fuzzICache(icK)
			cfg.ICacheTLBCost = icK%4 != 0
			cfg.PageTable = fuzzPageTables[ptK%3]
			cfg.ContextSwitchInterval = uint64(ctxSwitch)
			threads := []ThreadSpec{{Reader: wrap(qmm[int(wlK)%len(qmm)].NewReader())}}
			if smt {
				threads = append(threads, ThreadSpec{
					Reader:   wrap(qmm[(int(wlK)+1)%len(qmm)].NewReader()),
					VAOffset: 1 << 40,
				})
			}
			s := mustNew(t, cfg, threads)
			st, err := s.Run(n/4, n)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		whole := run(func(r trace.Reader) trace.Reader { return r })
		capped := run(func(r trace.Reader) trace.Reader { return capReader{r, k} })
		if whole != capped {
			t.Fatalf("%d-record batches changed Stats:\nwhole:  %+v\ncapped: %+v", k, whole, capped)
		}
	})
}

package sim

import (
	"context"
	"testing"

	"morrigan/internal/arch"
	"morrigan/internal/core"
	"morrigan/internal/machine"
)

// BenchmarkTranslateInstr measures the instruction-side translation path —
// ITLB/STLB probes, PB lookups, demand walks and prefetcher engagement —
// over a wandering page working set large enough to keep missing.
func BenchmarkTranslateInstr(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Prefetcher = machine.Morrigan(core.DefaultConfig())
	s, err := New(cfg, []ThreadSpec{{Reader: testWorkload()}})
	if err != nil {
		b.Fatal(err)
	}
	// Pre-map a page pool so the benchmark measures translation, not
	// first-touch demand paging.
	const pages = 1 << 14
	for v := arch.VPN(0); v < pages; v++ {
		s.pt.EnsureMapped(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vpn := arch.VPN(uint64(i)*2654435761) % pages
		pc := arch.VAddr(vpn) << arch.PageShift
		s.translateInstr(0, pc, vpn)
		s.core.Retire(1)
	}
}

// BenchmarkRunMorrigan measures the run loop end to end: the
// per-instruction cost of drive/step/fetch/data over the synthetic server
// workload with the Morrigan prefetcher, the configuration the campaign
// throughput gate tracks.
func BenchmarkRunMorrigan(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Prefetcher = machine.Morrigan(core.DefaultConfig())
	s, err := New(cfg, []ThreadSpec{{Reader: testWorkload()}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.run(context.Background(), uint64(b.N)); err != nil {
		b.Fatal(err)
	}
}

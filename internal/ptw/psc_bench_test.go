package ptw

import (
	"testing"

	"morrigan/internal/arch"
)

// BenchmarkPSCLookupHit measures the split-PSC probe with a warm region:
// the last-hit slot hint should make repeated same-region lookups a single
// compare per level.
func BenchmarkPSCLookupHit(b *testing.B) {
	p := NewPSC(DefaultPSCConfig(), 4)
	p.Fill(0, 0x1234, 0, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Lookup(0, 0x1234)
	}
}

// BenchmarkPSCLookupWandering measures lookups over a rotating set of
// regions, defeating the last-hit hint so the set scans are exercised.
func BenchmarkPSCLookupWandering(b *testing.B) {
	p := NewPSC(DefaultPSCConfig(), 4)
	vpns := make([]arch.VPN, 64)
	for i := range vpns {
		vpns[i] = arch.VPN(i) << (2 * arch.RadixBits)
		p.Fill(0, vpns[i], 0, 3)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Lookup(0, vpns[i%len(vpns)])
	}
}

// BenchmarkWalk measures a repeated demand walk of one mapped page: the
// table's pointer chase plus the full PSC and memory timing path.
func BenchmarkWalk(b *testing.B) {
	w, _, _ := newTestWalker(false)
	w.Walk(0, 42, 0, true) // map the page
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Walk(0, 42, arch.Cycle(i), true)
	}
}

// BenchmarkWalkSpatial measures what a spatial prefetch costs the walker:
// a prefetch walk plus the read of the fetched leaf line's PTEs, over a
// wandering set of half-filled line groups in distinct leaf nodes.
func BenchmarkWalkSpatial(b *testing.B) {
	w, pt, _ := newTestWalker(false)
	vpns := make([]arch.VPN, 64)
	for i := range vpns {
		base := arch.VPN(i) * 0x1_2345 &^ (arch.PTEsPerLine - 1)
		for j := arch.VPN(0); j < arch.PTEsPerLine; j += 2 {
			pt.EnsureMapped(base + j)
		}
		vpns[i] = base + 2
	}
	free := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vpn := vpns[i%len(vpns)]
		// Each walk starts after the previous one ended, so none is
		// dropped for lack of walker MSHRs.
		if res := w.Walk(0, vpn, arch.Cycle(i)<<16, false); res.LeafFetched {
			for _, pte := range pt.LineGroup(vpn) {
				if pte.Present {
					free++
				}
			}
		}
	}
	b.ReportMetric(float64(free)/float64(b.N), "ptes/op")
}

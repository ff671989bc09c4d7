package sim

import (
	"morrigan/internal/arch"
	"morrigan/internal/cache"
	"morrigan/internal/cpu"
	"morrigan/internal/stats"
)

// Stats is the snapshot of one measured simulation interval. Field names
// follow the paper's metrics.
type Stats struct {
	// Instructions retired in the interval.
	Instructions uint64
	// Cycles of execution time.
	Cycles arch.Cycle
	// IPC is instructions per cycle.
	IPC float64

	// Front-end structure behaviour (Figure 3).
	L1IAccesses uint64
	L1IMisses   uint64
	L1IMPKI     float64
	ITLBMisses  uint64
	ITLBMPKI    float64

	// Instruction STLB behaviour.
	ISTLBAccesses uint64
	ISTLBMisses   uint64
	ISTLBMPKI     float64
	// DSTLB behaviour (the data share of STLB misses).
	DSTLBAccesses uint64
	DSTLBMisses   uint64
	DSTLBMPKI     float64

	// TranslationCyclePct is the share of cycles serving iSTLB accesses
	// (Figure 4).
	TranslationCyclePct float64

	// PB behaviour.
	PBHits       uint64
	PBLateCycles arch.Cycle

	// Page walk behaviour (Figure 16 and Section 6.4).
	DemandIWalks    uint64
	DemandIWalkRefs uint64
	DemandDWalks    uint64
	DemandDWalkRefs uint64
	PrefetchWalks   uint64
	PrefetchRefs    uint64
	DroppedWalks    uint64
	// AvgIWalkLatency and AvgDWalkLatency are mean demand walk latencies
	// (the paper reports 69 and 112 cycles).
	AvgIWalkLatency float64
	AvgDWalkLatency float64
	// RefsPerWalk is mean memory references per demand walk (paper: 1.4).
	RefsPerWalk float64
	// PrefetchRefsByLevel is where prefetch walk references were served
	// (paper: 20/25/45/10% across L1/L2/LLC/DRAM).
	PrefetchRefsByLevel [arch.NumLevels]uint64

	// Prefetch issue accounting.
	PrefetchesIssued    uint64
	PrefetchesDiscarded uint64
	FreePTEsInstalled   uint64

	// Morrigan module attribution (Section 6.2: 93% IRIP / 7% SDP).
	IRIPHits uint64
	SDPHits  uint64

	// I-cache prefetcher translation interplay (Sections 3.5, 6.5).
	ICacheXPagePrefetches uint64
	ICacheXPageWalks      uint64
	ICachePBHits          uint64
	ICachePBServed        uint64

	// PSCHitRate is the aggregate page-structure-cache hit rate.
	PSCHitRate float64

	// ContextSwitches counts the context switches in the interval.
	ContextSwitches uint64

	// CorrectingWalks counts accessed-bit corrections for unused
	// prefetches (Section 4.3; requires Config.CorrectingWalks).
	CorrectingWalks uint64

	// Per-thread colocation accounting (index = hardware thread id;
	// single-threaded runs populate index 0 only). Fixed-size arrays keep
	// Stats comparable for the result store and fabric equality checks.
	ThreadInstructions [MaxThreads]uint64
	ThreadISTLBMisses  [MaxThreads]uint64
	ThreadPBHits       [MaxThreads]uint64
}

// Snapshot assembles the current statistics.
func (s *Simulator) Snapshot() Stats {
	instr := s.core.Retired()
	st := Stats{
		Instructions: instr,
		Cycles:       s.core.Cycles(),
		IPC:          s.core.IPC(),

		L1IAccesses: s.mem.L1I.Accesses(),
		L1IMisses:   s.mem.L1I.Misses(),
		L1IMPKI:     stats.MPKI(s.mem.L1I.Misses(), instr),
		ITLBMisses:  s.itlb.Misses(),
		ITLBMPKI:    stats.MPKI(s.itlb.Misses(), instr),

		ISTLBAccesses: s.c.istlbAccesses,
		ISTLBMisses:   s.c.istlbMisses,
		ISTLBMPKI:     stats.MPKI(s.c.istlbMisses, instr),
		DSTLBAccesses: s.c.dstlbAccesses,
		DSTLBMisses:   s.c.dstlbMisses,
		DSTLBMPKI:     stats.MPKI(s.c.dstlbMisses, instr),

		TranslationCyclePct: s.core.TranslationCyclePct(),

		PBHits:       s.c.pbHits,
		PBLateCycles: s.c.pbLateCycles,

		DemandIWalks:    s.c.demandIWalks,
		DemandIWalkRefs: s.c.demandIWalkRefs,
		DemandDWalks:    s.c.demandDWalks,
		DemandDWalkRefs: s.c.demandDWalkRefs,
		PrefetchWalks:   s.walker.PrefetchWalks(),
		PrefetchRefs:    s.walker.PrefetchRefs(),
		DroppedWalks:    s.walker.DroppedWalks(),
		RefsPerWalk:     s.walker.RefsPerDemandWalk(),

		PrefetchesIssued:    s.c.prefIssued,
		PrefetchesDiscarded: s.c.prefDiscarded,
		FreePTEsInstalled:   s.c.prefFreePTEs,

		ICacheXPagePrefetches: s.c.icacheXPrefetch,
		ICacheXPageWalks:      s.c.icacheXWalks,
		ICachePBHits:          s.c.icachePBHits,
		ICachePBServed:        s.c.icachePBServed,

		PSCHitRate: s.walker.PSC().HitRate(),

		ContextSwitches: s.c.contextSwitches,
		CorrectingWalks: s.c.correctingWalks,

		ThreadInstructions: s.c.threadInstr,
		ThreadISTLBMisses:  s.c.threadISTLBMisses,
		ThreadPBHits:       s.c.threadPBHits,
	}
	if s.c.demandIWalks > 0 {
		st.AvgIWalkLatency = float64(s.c.iWalkLatSum) / float64(s.c.demandIWalks)
	}
	if s.c.demandDWalks > 0 {
		st.AvgDWalkLatency = float64(s.c.dWalkLatSum) / float64(s.c.demandDWalks)
	}
	for l := 0; l < arch.NumLevels; l++ {
		st.PrefetchRefsByLevel[l] = s.mem.Served(cache.KindPTWPrefetch, arch.Level(l))
	}
	if m, ok := s.pf.(interface {
		IRIPHits() uint64
		SDPHits() uint64
	}); ok {
		st.IRIPHits = m.IRIPHits()
		st.SDPHits = m.SDPHits()
	}
	return st
}

// StallBreakdown returns the charged stall cycles by class, for diagnostics.
func (s *Simulator) StallBreakdown() map[string]arch.Cycle {
	out := make(map[string]arch.Cycle, cpu.NumStallKinds)
	for k := 0; k < cpu.NumStallKinds; k++ {
		kind := cpu.StallKind(k)
		out[kind.String()] = s.core.StallCycles(kind)
	}
	return out
}

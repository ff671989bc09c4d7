package sim

import (
	"context"
	"fmt"

	"morrigan/internal/arch"
	"morrigan/internal/cache"
	"morrigan/internal/pagetable"
	"morrigan/internal/trace"
)

// FastForward consumes n instructions functionally: translations stream
// through the TLB hierarchy, the page table is populated, and the cache
// hierarchy is kept warm (contents and replacement state advance; the
// returned latencies are discarded), but no cycles are charged and no
// prefetchers run. This is the warmup vehicle of sampled execution — it
// positions the trace at a representative interval with the TLBs, page table
// and caches in a state close to what full simulation would have left, at a
// fraction of the cost.
//
// Instructions consumed here count into FastForwarded, never into Executed,
// so throughput accounting for sampled jobs reflects only timed work. TLB
// and cache hit/miss counters do get polluted by the functional accesses;
// callers are expected to follow FastForward with RunContext, whose
// warmup/measure boundary resets all statistics.
//
// Context switches keep firing at the configured cadence (flushing the
// architecturally-tagged state exactly as timed execution would), on the
// clock timed execution uses: every instruction since the last stats reset,
// timed or functional.
func (s *Simulator) FastForward(ctx context.Context, n uint64) error {
	done, err := s.drive(ctx, n, false)
	s.reportProgress()
	if err != nil {
		return fmt.Errorf("sim: fast-forward: %w", err)
	}
	if done < n {
		return fmt.Errorf("sim: trace ended %d instructions short of the fast-forward target %d", n-done, n)
	}
	return nil
}

// ffStep warms one instruction's translations and cache lines without timing.
func (s *Simulator) ffStep(tid arch.ThreadID, th *thread, rec *trace.Record) {
	s.tick()
	pc := rec.PC + th.off
	vpn := pc.Page()
	newLine := pc.Line() != th.curLine || !th.haveVPN
	if !th.haveVPN || vpn != th.curVPN {
		pfn, ok := s.itlb.Lookup(tid, vpn)
		if !ok {
			if pfn, ok = s.stlb.Lookup(tid, vpn); !ok {
				// A real (zero-time) walk rather than a bare page-table
				// probe: it maps the page, warms the PSC and touches the
				// PTE cache lines, so a following timed slice sees walk
				// latencies close to full simulation's.
				pfn = s.walker.Walk(tid, vpn, 0, true).PFN
			}
			s.stlb.Insert(tid, vpn, pfn)
			s.itlb.Insert(tid, vpn, pfn)
		}
		th.curPFN = pfn
		th.curVPN = vpn
		th.haveVPN = true
	}
	if newLine {
		res := s.mem.Access(cache.KindFetch, arch.Translate(th.curPFN, pc))
		th.curLine = pc.Line()
		// Keep the I-cache prefetcher's predictor state and its fill
		// traffic's cache footprint warm: timed execution continuously
		// re-installs upcoming lines into L1I/L2, and slices started
		// without that pressure see far deeper instruction fetches.
		for _, vline := range s.icpf.OnFetch(pc.Line(), res.Level != arch.LevelL1) {
			s.ffPrefetchLine(tid, th, vline)
		}
	}
	if rec.Load != 0 {
		s.ffData(tid, rec.Load+th.off, false)
	}
	if rec.Store != 0 {
		s.ffData(tid, rec.Store+th.off, true)
	}
}

// ffPrefetchLine applies one I-cache prefetch candidate functionally: the
// translation is resolved at zero cost (ICacheTLBCost timing does not exist
// here) and the line is filled like prefetchInstrLine would, without
// touching pendingLines or the walker.
func (s *Simulator) ffPrefetchLine(tid arch.ThreadID, th *thread, vline uint64) {
	vpn := arch.VPN(vline / linesPerPage)
	var pfn arch.PFN
	switch {
	case th.haveVPN && vpn == th.curVPN:
		pfn = th.curPFN
	default:
		if p, ok := s.itlb.Peek(tid, vpn); ok {
			pfn = p
		} else if p, ok := s.stlb.Peek(tid, vpn); ok {
			pfn = p
		} else if pte, ok := s.pt.Lookup(vpn); ok {
			pfn = pte.PFN
		} else {
			return // unmapped page: a timed prefetch would be skipped too
		}
	}
	s.mem.PrefetchInto(arch.LevelL1, arch.Translate(pfn, arch.VAddr(vline*arch.LineSize)))
}

// ffData warms one data translation and its cache line, mirroring data()'s
// huge-page block keying so the warmed TLB contents match what timed
// execution would insert.
func (s *Simulator) ffData(tid arch.ThreadID, va arch.VAddr, store bool) {
	vpn := va.Page()
	key := vpn
	var blockOff arch.PFN
	if s.ptHuge != nil && s.ptHuge.IsHuge(vpn) {
		key = hugeKey(vpn)
		blockOff = arch.PFN(vpn & (pagetable.HugePages - 1))
	}
	pfn, ok := s.dtlb.Lookup(tid, key)
	if ok {
		pfn += blockOff
	} else {
		base, ok := s.stlb.Lookup(tid, key)
		if !ok {
			// Zero-time demand walk: maps the page and warms PSC and PTE
			// lines, mirroring data()'s miss path without the latency.
			base = s.walker.Walk(tid, vpn, 0, true).PFN - blockOff
			s.stlb.Insert(tid, key, base)
		}
		s.dtlb.Insert(tid, key, base)
		pfn = base + blockOff
	}
	kind := cache.KindLoad
	if store {
		kind = cache.KindStore
	}
	s.mem.Access(kind, arch.Translate(pfn, va))
}

// FastForwarded returns the total instructions consumed functionally by
// FastForward since construction. Never reset.
func (s *Simulator) FastForwarded() uint64 { return s.fastForwarded }

// SettleTiming declares all in-flight timed activity complete: pending
// instruction-line fills are dropped, prefetch-buffer ready times settle to
// zero, and walker MSHRs are freed. Cache, TLB, PB and predictor contents
// are untouched. Sampled execution calls this before each timed slice:
// RunContext's stats reset rebases the core clock to zero, and absolute
// ready/busy timestamps left by the previous slice's clock epoch would
// otherwise read as far-future and charge phantom stalls.
func (s *Simulator) SettleTiming() {
	s.pending.reset()
	s.pb.Settle()
	s.walker.Settle()
}

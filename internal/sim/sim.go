package sim

import (
	"context"
	"fmt"
	"io"

	"morrigan/internal/arch"
	"morrigan/internal/cache"
	"morrigan/internal/cpu"
	"morrigan/internal/icache"
	"morrigan/internal/pagetable"
	"morrigan/internal/ptw"
	"morrigan/internal/telemetry"
	"morrigan/internal/tlb"
	"morrigan/internal/tlbprefetch"
	"morrigan/internal/trace"
)

// batchSize is the per-thread record buffer refilled from the trace reader:
// one refill supplies up to this many instructions to drive, which consumes
// them as contiguous slices.
const batchSize = 512

// linesPerPage is the number of cache lines per 4 KB page, shared by the
// I-cache prefetch paths.
const linesPerPage = arch.PageSize / arch.LineSize

// thread is the per-hardware-thread front-end state.
type thread struct {
	reader trace.Reader
	off    arch.VAddr

	// buf[bpos:blen] holds fetched-ahead records. Where a refill ends never
	// shows in the Stats: drive takes the same record sequence whatever the
	// batch lengths.
	buf  []trace.Record
	bpos int
	blen int

	curLine uint64 // virtual line last fetched
	curVPN  arch.VPN
	curPFN  arch.PFN
	haveVPN bool
	done    bool
}

// refill replenishes the thread's record buffer, returning io.EOF at the end
// of the stream.
func (th *thread) refill() error {
	n, err := th.reader.NextBatch(th.buf)
	if n == 0 && err == nil {
		err = io.EOF // a reader breaking its contract ends the stream
	}
	th.blen, th.bpos = n, 0
	return err
}

// MaxThreads is the most hardware threads one simulated machine can run.
// The bound keeps per-thread statistics in fixed-size (comparable) arrays;
// colocation experiments use up to 16-way shared-STLB mixes.
const MaxThreads = 16

// Simulator is one simulated machine executing 1..MaxThreads threads.
type Simulator struct {
	cfg Config

	pt     pagetable.Translator
	ptHuge *pagetable.Table // non-nil when HugeDataPages is enabled
	mem    *cache.Hierarchy
	walker *ptw.Walker
	itlb   *tlb.TLB
	dtlb   *tlb.TLB
	stlb   *tlb.TLB
	pb     *tlbprefetch.PrefetchBuffer
	pf     tlbprefetch.Prefetcher
	icpf   icache.Prefetcher
	core   *cpu.Core

	threads []*thread

	// pending records in-flight instruction line prefetches: physical
	// line -> completion cycle. A demand fetch arriving earlier pays the
	// remainder (late-prefetch timeliness).
	pending pendingTable

	// sinceReset counts every instruction executed since the last stats
	// reset, timed or functional: the clock context switches fire on.
	// nextSwitch is its value at the next switch.
	sinceReset uint64
	nextSwitch uint64

	// executed counts every instruction stepped since construction, warmup
	// included and never reset — the denominator-free numerator for
	// simulation-throughput (simulated instructions per wall second)
	// accounting in the campaign runner.
	executed uint64

	// fastForwarded counts instructions consumed functionally by FastForward
	// (sampled-execution mode). Kept apart from executed so a sampled job's
	// simulated-instruction figure reflects only timing-simulated work.
	fastForwarded uint64

	c counters
}

// counters are the raw event tallies the Stats snapshot is derived from.
type counters struct {
	istlbAccesses   uint64
	istlbMisses     uint64
	contextSwitches uint64
	dstlbAccesses   uint64
	dstlbMisses     uint64
	pbHits          uint64
	pbLateHits      uint64
	pbLateCycles    arch.Cycle

	demandIWalks    uint64
	demandIWalkRefs uint64
	iWalkLatSum     arch.Cycle
	demandDWalks    uint64
	demandDWalkRefs uint64
	dWalkLatSum     arch.Cycle

	prefIssued    uint64
	prefDiscarded uint64
	prefInstalled uint64
	prefWalks     uint64
	prefFreePTEs  uint64

	icachePBHits    uint64
	icacheXWalks    uint64
	icachePBServed  uint64
	icacheXPrefetch uint64

	correctingWalks uint64

	// Per-thread tallies for colocation fairness analysis: retired
	// instructions, iSTLB misses, and PB hits by hardware thread. Fixed-size
	// arrays so Stats (and everything embedding it) stays comparable.
	threadInstr       [MaxThreads]uint64
	threadISTLBMisses [MaxThreads]uint64
	threadPBHits      [MaxThreads]uint64
}

// New builds a simulator over the given threads (1 for single-threaded runs,
// more for the SMT/colocation experiments, up to MaxThreads). It validates
// the machine spec and constructs every component, prefetchers included,
// afresh.
func New(cfg Config, threads []ThreadSpec) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(threads) < 1 || len(threads) > MaxThreads {
		return nil, fmt.Errorf("sim: %d threads; supported: 1..%d", len(threads), MaxThreads)
	}
	pt := cfg.NewPageTable()
	s := &Simulator{
		cfg:     cfg,
		pt:      pt,
		mem:     cache.NewHierarchy(cfg.Cache),
		core:    cpu.New(cfg.Core),
		itlb:    tlb.New("ITLB", cfg.ITLBEntries, cfg.ITLBWays, cfg.ITLBLatency),
		dtlb:    tlb.New("DTLB", cfg.DTLBEntries, cfg.DTLBWays, cfg.DTLBLatency),
		stlb:    tlb.New("STLB", cfg.STLBEntries, cfg.STLBWays, cfg.STLBLatency),
		pb:      tlbprefetch.NewPrefetchBuffer(cfg.PBEntries, cfg.PBLatency),
		pf:      cfg.Prefetcher.New(),
		icpf:    cfg.ICachePrefetcher.New(),
		pending: newPendingTable(),
	}
	s.walker = ptw.New(s.pt, s.mem, cfg.Walker)
	for _, ts := range threads {
		if ts.Reader == nil {
			return nil, fmt.Errorf("sim: thread with nil reader")
		}
		s.threads = append(s.threads, &thread{
			reader: ts.Reader,
			off:    ts.VAOffset,
			buf:    make([]trace.Record, batchSize),
		})
	}
	if cfg.HugeDataPages {
		// Map each thread's synthetic data region with 2 MB pages. Code
		// regions stay at 4 KB, as on real systems (Section 5).
		rt, err := hugeRegionTable(pt)
		if err != nil {
			return nil, err
		}
		s.ptHuge = rt
		for _, th := range s.threads {
			off := arch.VPN(th.off >> arch.PageShift)
			rt.AddHugeRegion(trace.DataBaseVPN+off, trace.DataBaseVPN+off+1<<15)
		}
	}
	s.nextSwitch = cfg.ContextSwitchInterval
	if cfg.CorrectingWalks {
		s.pb.SetEvictionHandler(func(tid arch.ThreadID, vpn arch.VPN) {
			if s.walker.CorrectAccessed(tid, vpn, s.now()) {
				s.c.correctingWalks++
			}
		})
	}
	return s, nil
}

// hugeRegionTable resolves the page-table implementation that can host 2 MB
// regions. Spec.Validate already rejects HugeDataPages on hashed tables, but a
// future radix translator that is not backed by *pagetable.Table must fail
// cleanly here rather than panicking on the assertion.
func hugeRegionTable(pt pagetable.Translator) (*pagetable.Table, error) {
	rt, ok := pt.(*pagetable.Table)
	if !ok {
		return nil, fmt.Errorf("sim: HugeDataPages requires the radix page-table implementation, got %T", pt)
	}
	return rt, nil
}

// now returns the current simulation time. The interval core model advances
// time by instruction dispatch plus charged stalls; the walker and PB use
// this clock for occupancy and timeliness.
func (s *Simulator) now() arch.Cycle { return s.core.Cycles() }

// Run executes warmup instructions, resets all statistics, then executes
// measure instructions and returns the snapshot, mirroring the paper's
// 50M-warmup/100M-measure methodology at whatever scale the caller picks.
func (s *Simulator) Run(warmup, measure uint64) (Stats, error) {
	return s.RunContext(context.Background(), warmup, measure)
}

// ProgressInterval is how many instructions execute between context checks
// in RunContext and Config.OnProgress reports — frequent enough that
// cancellation and per-job timeouts bite within milliseconds, rare enough to
// cost nothing. It is the sampling period of the telemetry series.
const ProgressInterval = 1 << 16

// RunContext is Run with cancellation: ctx is polled every
// ProgressInterval instructions, so campaign-level cancellation and
// per-job timeouts take effect mid-simulation instead of only between runs.
func (s *Simulator) RunContext(ctx context.Context, warmup, measure uint64) (Stats, error) {
	if warmup > 0 {
		if err := s.run(ctx, warmup); err != nil {
			return Stats{}, err
		}
	}
	s.resetStats()
	if err := s.run(ctx, measure); err != nil {
		return Stats{}, err
	}
	return s.Snapshot(), nil
}

// run executes n instructions in full timing detail. It stops early (without
// error) when every thread's trace ends.
func (s *Simulator) run(ctx context.Context, n uint64) error {
	_, err := s.drive(ctx, n, true)
	s.reportProgress()
	if err != nil {
		return fmt.Errorf("sim: run: %w", err)
	}
	return nil
}

// drive is the simulator's one record loop. It takes up to n records from
// the threads' buffers, SMTBlock records from each live thread in turn, and
// executes each one with step (timed) or ffStep (functional). It returns how
// many records it took, fewer than n only when every thread's trace has
// ended. A buffer running dry mid-block is refilled without ending the
// block, so where a reader's batches end never changes the rotation.
// Config.OnProgress hears from it at every context check, and from its
// callers when it returns.
func (s *Simulator) drive(ctx context.Context, n uint64, timed bool) (uint64, error) {
	done := uint64(0)
	nextCheck := uint64(ProgressInterval)
	ti := 0
	for done < n {
		if done >= nextCheck {
			if err := ctx.Err(); err != nil {
				return done, fmt.Errorf("interrupted: %w", err)
			}
			s.reportProgress()
			nextCheck += ProgressInterval
		}
		th := s.threads[ti]
		if th.done {
			ti = (ti + 1) % len(s.threads)
			if s.allDone() {
				return done, nil
			}
			continue
		}
		tid := arch.ThreadID(ti)
		block := min(uint64(s.cfg.SMTBlock), n-done)
		for block > 0 {
			if th.bpos >= th.blen {
				err := th.refill()
				if err == io.EOF {
					th.done = true
					break
				}
				if err != nil {
					return done, fmt.Errorf("reading trace: %w", err)
				}
			}
			take := min(uint64(th.blen-th.bpos), block)
			recs := th.buf[th.bpos : th.bpos+int(take)]
			th.bpos += int(take)
			if timed {
				for i := range recs {
					s.step(tid, th, &recs[i])
				}
				s.executed += take
			} else {
				for i := range recs {
					s.ffStep(tid, th, &recs[i])
				}
				s.fastForwarded += take
			}
			done += take
			block -= take
		}
		ti = (ti + 1) % len(s.threads)
	}
	return done, nil
}

func (s *Simulator) allDone() bool {
	for _, th := range s.threads {
		if !th.done {
			return false
		}
	}
	return true
}

// step executes one instruction.
func (s *Simulator) step(tid arch.ThreadID, th *thread, rec *trace.Record) {
	s.tick()
	pc := rec.PC + th.off
	if line := pc.Line(); line != th.curLine || !th.haveVPN {
		s.fetch(tid, th, pc)
		th.curLine = line
	}
	s.core.Retire(1)
	s.c.threadInstr[tid]++
	if rec.Load != 0 {
		s.data(tid, rec.Load+th.off, false)
	}
	if rec.Store != 0 {
		s.data(tid, rec.Store+th.off, true)
	}
}

// fetch performs the front-end work for a new instruction line: address
// translation through the TLB hierarchy (with PB and demand walks on iSTLB
// misses, engaging the prefetcher), the L1I access, and I-cache prefetching.
func (s *Simulator) fetch(tid arch.ThreadID, th *thread, pc arch.VAddr) {
	vpn := pc.Page()
	if !th.haveVPN || vpn != th.curVPN {
		th.curPFN = s.translateInstr(tid, pc, vpn)
		th.curVPN = vpn
		th.haveVPN = true
	}
	paddr := arch.Translate(th.curPFN, pc)
	res := s.mem.Access(cache.KindFetch, paddr)
	miss := res.Level != arch.LevelL1
	if miss {
		s.core.FetchMiss(res.Latency - s.mem.FillLatency(arch.LevelL1))
	} else if ready, ok := s.pending.take(paddr.Line()); ok {
		// The line was prefetched but the fill has not completed yet; the
		// fetch waits out the remainder (late prefetch).
		if now := s.now(); ready > now {
			s.core.FetchMiss(ready - now)
		}
	}
	for _, vline := range s.icpf.OnFetch(pc.Line(), miss) {
		s.prefetchInstrLine(tid, th, vline)
	}
}

// translateInstr resolves the instruction-side translation of vpn, charging
// front-end stalls per the paper's translation flow (Figure 1).
func (s *Simulator) translateInstr(tid arch.ThreadID, pc arch.VAddr, vpn arch.VPN) arch.PFN {
	if pfn, ok := s.itlb.Lookup(tid, vpn); ok {
		return pfn
	}
	// I-TLB miss: the STLB is probed (an iSTLB access).
	s.c.istlbAccesses++
	s.core.FrontEndStall(cpu.StallITLB, s.stlb.Latency())
	if s.cfg.PerfectISTLB {
		pfn := s.pt.EnsureMapped(vpn)
		s.stlb.Insert(tid, vpn, pfn)
		s.itlb.Insert(tid, vpn, pfn)
		return pfn
	}
	if pfn, ok := s.stlb.Lookup(tid, vpn); ok {
		s.itlb.Insert(tid, vpn, pfn)
		return pfn
	}

	// iSTLB miss.
	s.c.istlbMisses++
	s.c.threadISTLBMisses[tid]++
	if s.cfg.OnISTLBMiss != nil {
		s.cfg.OnISTLBMiss(tid, vpn)
	}
	missTime := s.now()

	var pfn arch.PFN
	pbHit := false
	if !s.cfg.PrefetchIntoSTLB {
		s.core.FrontEndStall(cpu.StallITLB, s.pb.Latency())
		if hit, token, ready, ok := s.pb.Lookup(tid, vpn); ok {
			pbHit = true
			pfn = hit
			s.c.pbHits++
			s.c.threadPBHits[tid]++
			if now := s.now(); ready > now {
				// Late prefetch: wait for the in-flight walk's remainder.
				s.c.pbLateHits++
				s.c.pbLateCycles += ready - now
				s.core.FrontEndStall(cpu.StallIWalk, ready-now)
			}
			if token.Kind() == tlbprefetch.TokenICache {
				s.c.icachePBServed++
			}
			s.pf.OnPrefetchHit(token)
		}
	}
	if !pbHit {
		walk := s.walker.Walk(tid, vpn, s.now(), true)
		s.core.FrontEndStall(cpu.StallIWalk, walk.Latency+walk.Queued)
		s.c.demandIWalks++
		s.c.demandIWalkRefs += uint64(walk.MemRefs)
		s.c.iWalkLatSum += walk.Latency
		pfn = walk.PFN
	}
	s.stlb.Insert(tid, vpn, pfn)
	s.itlb.Insert(tid, vpn, pfn)

	// Engage the prefetcher on every iSTLB miss, PB hit or not (Figure 12
	// step 7). Prefetch walks start at miss time, concurrently with the
	// demand walk (they use separate walker ports; Section 2.1 notes
	// prefetch walks are triggered in the background).
	s.issuePrefetches(tid, missTime, s.pf.OnMiss(tid, pc, vpn))
	return pfn
}

// issuePrefetches processes the prefetcher's requests: dedup against the PB,
// run prefetch page walks in the background, install results into the PB (or
// the STLB under P2TLB), and exploit page table locality for spatial
// requests.
func (s *Simulator) issuePrefetches(tid arch.ThreadID, at arch.Cycle, reqs []tlbprefetch.Request) {
	for _, r := range reqs {
		s.c.prefIssued++
		if s.cfg.PrefetchIntoSTLB {
			if s.stlb.Contains(tid, r.VPN) {
				s.c.prefDiscarded++
				continue
			}
		} else if s.pb.Contains(tid, r.VPN) {
			s.c.prefDiscarded++
			continue
		}
		walk := s.walker.Walk(tid, r.VPN, at, false)
		if walk.MemRefs == 0 && !walk.Present {
			continue // dropped for lack of walker MSHRs
		}
		s.c.prefWalks++
		if !walk.Present {
			continue // non-faulting prefetch to an unmapped page
		}
		ready := at + walk.Latency
		s.installPrefetch(tid, r.VPN, walk.PFN, r.Token, ready)
		if r.Spatial && walk.LeafFetched {
			// The leaf line just fetched carries up to 7 neighbouring
			// PTEs; install them for free (steps 14/17 of Figure 12).
			base := r.VPN.LineGroup()
			for i, pte := range s.pt.LineGroup(r.VPN) {
				if v := base + arch.VPN(i); pte.Present && v != r.VPN {
					s.installPrefetch(tid, v, pte.PFN, r.Token, ready)
					s.c.prefFreePTEs++
				}
			}
		}
	}
}

// installPrefetch places a prefetched translation in the PB, or directly in
// the STLB under the P2TLB configuration. ready is the cycle its page walk
// completes.
func (s *Simulator) installPrefetch(tid arch.ThreadID, vpn arch.VPN, pfn arch.PFN, token tlbprefetch.Token, ready arch.Cycle) {
	if s.cfg.PrefetchIntoSTLB {
		s.stlb.Insert(tid, vpn, pfn)
		s.c.prefInstalled++
		return
	}
	if !s.pb.Contains(tid, vpn) {
		s.pb.Insert(tid, vpn, pfn, token, ready)
		s.c.prefInstalled++
	}
}

// prefetchInstrLine services one I-cache prefetch candidate (a virtual line
// number). Lines whose page translation is not at hand either get it for
// free (IPC-1 style) or pay for a prefetch page walk, depending on
// Config.ICacheTLBCost.
func (s *Simulator) prefetchInstrLine(tid arch.ThreadID, th *thread, vline uint64) {
	vpn := arch.VPN(vline / linesPerPage)
	var pfn arch.PFN
	var extra arch.Cycle

	switch {
	case th.haveVPN && vpn == th.curVPN:
		pfn = th.curPFN
	default:
		if p, ok := s.itlb.Peek(tid, vpn); ok {
			pfn = p
			break
		}
		if p, ok := s.stlb.Peek(tid, vpn); ok {
			pfn = p
			break
		}
		if !s.cfg.ICacheTLBCost {
			// IPC-1 infrastructure: page-crossing prefetches are
			// translated at zero cost; unmapped pages are skipped.
			pte, ok := s.pt.Lookup(vpn)
			if !ok {
				return
			}
			pfn = pte.PFN
			break
		}
		s.c.icacheXPrefetch++
		if p, ok := s.pb.Peek(tid, vpn); ok {
			// An iSTLB prefetcher already fetched this translation —
			// the synergy of Section 6.5.
			s.c.icachePBHits++
			pfn = p
			break
		}
		// The prefetch needs its own page walk, occupying walker MSHRs
		// (the mechanism behind FNL+MMA+TLB's degradation, Section 3.5).
		s.c.icacheXWalks++
		walk := s.walker.Walk(tid, vpn, s.now(), false)
		if !walk.Present {
			return
		}
		s.installPrefetch(tid, vpn, walk.PFN, tlbprefetch.TokenICache, s.now()+walk.Latency)
		pfn = walk.PFN
		extra = walk.Latency
	}

	paddr := arch.Translate(pfn, arch.VAddr(vline*arch.LineSize))
	level := s.mem.PrefetchInto(arch.LevelL1, paddr)
	now := s.now()
	ready := now + extra + s.mem.FillLatency(level)
	if ready > now+s.mem.FillLatency(arch.LevelL1) {
		s.pending.insert(paddr.Line(), ready, now)
	}
}

// tick advances the context-switch clock by one instruction, switching first
// when the clock has reached the switch point.
func (s *Simulator) tick() {
	if s.cfg.ContextSwitchInterval > 0 && s.sinceReset >= s.nextSwitch {
		s.contextSwitch()
	}
	s.sinceReset++
}

// contextSwitch flushes the architecturally-tagged translation state, as an
// OS context switch would: TLBs, PSCs, the prefetch buffer and the
// prefetcher's prediction tables (Section 4.3). Cache contents survive (they
// are physically tagged), as does the page table itself. The next switch
// follows one interval later.
func (s *Simulator) contextSwitch() {
	s.c.contextSwitches++
	s.nextSwitch = s.sinceReset + s.cfg.ContextSwitchInterval
	s.itlb.Flush()
	s.dtlb.Flush()
	s.stlb.Flush()
	s.pb.Flush()
	s.walker.PSC().Flush()
	s.pf.Flush()
	s.icpf.Flush()
	for _, th := range s.threads {
		th.haveVPN = false
	}
}

// hugeKey maps a 2 MB-mapped page to the synthetic TLB key of its block, so
// one TLB entry covers all 512 pages of the mapping (huge-page TLB reach).
func hugeKey(vpn arch.VPN) arch.VPN {
	return arch.VPN(1)<<40 | vpn>>9
}

// data performs a load or store: translation through the data TLB path
// (with demand walks on dSTLB misses) and the cache access. Load latency is
// charged through the core's overlap-aware back-end model; stores are
// functional only (drained from the store buffer off the critical path).
func (s *Simulator) data(tid arch.ThreadID, va arch.VAddr, store bool) {
	vpn := va.Page()
	key := vpn
	var blockOff arch.PFN
	if s.ptHuge != nil && s.ptHuge.IsHuge(vpn) {
		// One TLB entry per 2 MB mapping: translate through the block.
		key = hugeKey(vpn)
		blockOff = arch.PFN(vpn & (pagetable.HugePages - 1))
	}
	var extra arch.Cycle
	pfn, ok := s.dtlb.Lookup(tid, key)
	if ok {
		pfn += blockOff
	}
	if !ok {
		s.c.dstlbAccesses++
		extra += s.stlb.Latency()
		pfn, ok = s.stlb.Lookup(tid, key)
		if ok {
			pfn += blockOff
		} else {
			s.c.dstlbMisses++
			walk := s.walker.Walk(tid, vpn, s.now(), true)
			extra += walk.Latency + walk.Queued
			s.c.demandDWalks++
			s.c.demandDWalkRefs += uint64(walk.MemRefs)
			s.c.dWalkLatSum += walk.Latency
			pfn = walk.PFN
			// For a huge mapping, cache the block base under the block key.
			s.stlb.Insert(tid, key, pfn-blockOff)
		}
		s.dtlb.Insert(tid, key, pfn-blockOff)
	}
	paddr := arch.Translate(pfn, va)
	kind := cache.KindLoad
	if store {
		kind = cache.KindStore
	}
	res := s.mem.Access(kind, paddr)
	if !store {
		s.core.DataStall(extra + res.Latency)
	}
}

// resetStats clears every component's counters at the warmup/measure
// boundary, keeping all microarchitectural state warm.
func (s *Simulator) resetStats() {
	s.core.ResetStats()
	s.mem.ResetStats()
	s.itlb.ResetStats()
	s.dtlb.ResetStats()
	s.stlb.ResetStats()
	s.pb.ResetStats()
	s.walker.ResetStats()
	s.c = counters{}
	// The context-switch clock restarts with the measurement interval.
	s.sinceReset, s.nextSwitch = 0, s.cfg.ContextSwitchInterval
	if r, ok := s.pf.(interface{ ResetStats() }); ok {
		r.ResetStats() // Morrigan's IRIP/SDP hit attribution
	}
}

// telemetrySample snapshots the counters Config.OnProgress receives. It reads
// the same sources as Snapshot, so a telemetry series built from the reports
// sums exactly to the aggregate Stats.
func (s *Simulator) telemetrySample() telemetry.Sample {
	return telemetry.Sample{
		Instructions:  s.core.Retired(),
		Cycles:        s.core.Cycles(),
		L1IMisses:     s.mem.L1I.Misses(),
		ITLBMisses:    s.itlb.Misses(),
		ISTLBAccesses: s.c.istlbAccesses,
		ISTLBMisses:   s.c.istlbMisses,
		DSTLBAccesses: s.c.dstlbAccesses,
		DSTLBMisses:   s.c.dstlbMisses,
		PBHits:        s.c.pbHits,
		PBLateHits:    s.c.pbLateHits,
		PrefIssued:    s.c.prefIssued,
		PrefDiscarded: s.c.prefDiscarded,
		PrefInstalled: s.c.prefInstalled,
		PBEvictions:   s.pb.Evictions(),
		PrefWalks:     s.walker.PrefetchWalks(),
		DemandIWalks:  s.c.demandIWalks,
		DemandDWalks:  s.c.demandDWalks,
		DroppedWalks:  s.walker.DroppedWalks(),
	}
}

// reportProgress hands the live counters to Config.OnProgress, when set.
func (s *Simulator) reportProgress() {
	if s.cfg.OnProgress != nil {
		s.cfg.OnProgress(Progress{Counters: s.telemetrySample(), Executed: s.executed, FastForwarded: s.fastForwarded})
	}
}

// Executed returns the total instructions stepped since construction, warmup
// included; unlike Stats.Instructions it is never reset, so it divides by
// wall-clock time into an honest simulation-throughput figure.
func (s *Simulator) Executed() uint64 { return s.executed }

// Hierarchy exposes the cache hierarchy.
func (s *Simulator) Hierarchy() *cache.Hierarchy { return s.mem }

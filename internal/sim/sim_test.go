package sim

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"morrigan/internal/arch"
	"morrigan/internal/core"
	"morrigan/internal/machine"
	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

// testWorkload returns a small deterministic server workload.
func testWorkload() trace.Reader {
	return workloads.QMM()[5].NewReader()
}

func mustNew(t *testing.T, cfg Config, threads []ThreadSpec) *Simulator {
	t.Helper()
	s, err := New(cfg, threads)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunBasicInvariants(t *testing.T) {
	s := mustNew(t, DefaultConfig(), []ThreadSpec{{Reader: testWorkload()}})
	st, err := s.Run(50_000, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != 200_000 {
		t.Fatalf("Instructions = %d", st.Instructions)
	}
	if st.Cycles == 0 || st.IPC <= 0 || st.IPC > 4 {
		t.Fatalf("Cycles=%d IPC=%v", st.Cycles, st.IPC)
	}
	if st.ISTLBMisses == 0 || st.DSTLBMisses == 0 {
		t.Fatalf("no STLB misses: i=%d d=%d", st.ISTLBMisses, st.DSTLBMisses)
	}
	if st.ISTLBMisses > st.ISTLBAccesses {
		t.Fatal("iSTLB misses exceed accesses")
	}
	// Without a prefetcher every iSTLB miss demand-walks.
	if st.DemandIWalks != st.ISTLBMisses {
		t.Fatalf("DemandIWalks=%d != ISTLBMisses=%d", st.DemandIWalks, st.ISTLBMisses)
	}
	if st.PBHits != 0 || st.PrefetchWalks != 0 {
		t.Fatal("prefetch activity without a prefetcher")
	}
	if st.AvgIWalkLatency <= 0 || st.RefsPerWalk < 1 {
		t.Fatalf("walk stats: lat=%v refs=%v", st.AvgIWalkLatency, st.RefsPerWalk)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		s := mustNew(t, DefaultConfig(), []ThreadSpec{{Reader: testWorkload()}})
		st, err := s.Run(20_000, 100_000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic simulation:\n%+v\n%+v", a, b)
	}
}

func TestPerfectISTLBEliminatesWalks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PerfectISTLB = true
	s := mustNew(t, cfg, []ThreadSpec{{Reader: testWorkload()}})
	st, err := s.Run(20_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.ISTLBMisses != 0 || st.DemandIWalks != 0 {
		t.Fatalf("perfect iSTLB still missed: %d misses, %d walks", st.ISTLBMisses, st.DemandIWalks)
	}
	// Data walks still happen.
	if st.DemandDWalks == 0 {
		t.Fatal("data walks should be unaffected")
	}
}

func TestPerfectISTLBIsFaster(t *testing.T) {
	base := mustNew(t, DefaultConfig(), []ThreadSpec{{Reader: testWorkload()}})
	bst, _ := base.Run(100_000, 400_000)
	cfg := DefaultConfig()
	cfg.PerfectISTLB = true
	perfect := mustNew(t, cfg, []ThreadSpec{{Reader: testWorkload()}})
	pst, _ := perfect.Run(100_000, 400_000)
	if pst.Cycles >= bst.Cycles {
		t.Fatalf("perfect iSTLB not faster: %d vs %d", pst.Cycles, bst.Cycles)
	}
}

func TestMorriganCoversMisses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Prefetcher = machine.Morrigan(core.DefaultConfig())
	s := mustNew(t, cfg, []ThreadSpec{{Reader: testWorkload()}})
	st, err := s.Run(200_000, 800_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.PBHits == 0 {
		t.Fatal("Morrigan produced no PB hits")
	}
	if st.DemandIWalks >= st.ISTLBMisses {
		t.Fatal("PB hits should eliminate some demand walks")
	}
	if st.IRIPHits == 0 || st.SDPHits == 0 {
		t.Fatalf("module attribution: irip=%d sdp=%d", st.IRIPHits, st.SDPHits)
	}
	if st.IRIPHits <= st.SDPHits {
		t.Fatalf("IRIP should dominate PB hits (Section 6.2): irip=%d sdp=%d", st.IRIPHits, st.SDPHits)
	}
	if st.PrefetchWalks == 0 || st.PrefetchRefs == 0 {
		t.Fatal("prefetch walks missing")
	}
	if st.FreePTEsInstalled == 0 {
		t.Fatal("spatial prefetching installed no free PTEs")
	}
}

func TestMorriganBeatsBaselineAndMP(t *testing.T) {
	run := func(pf machine.PrefetcherSpec) Stats {
		cfg := DefaultConfig()
		cfg.Prefetcher = pf
		s := mustNew(t, cfg, []ThreadSpec{{Reader: testWorkload()}})
		st, err := s.Run(300_000, 1_500_000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	base := run(machine.PrefetcherSpec{})
	mp := run(machine.MP(128, 4))
	mor := run(machine.Morrigan(core.DefaultConfig()))
	if mor.Cycles >= base.Cycles {
		t.Fatalf("Morrigan slower than baseline: %d vs %d", mor.Cycles, base.Cycles)
	}
	if mor.DemandIWalkRefs >= base.DemandIWalkRefs {
		t.Fatal("Morrigan did not cut demand walk references")
	}
	if mor.PBHits <= mp.PBHits {
		t.Fatalf("Morrigan (%d hits) should out-cover MP (%d hits)", mor.PBHits, mp.PBHits)
	}
}

func TestPrefetchIntoSTLBMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Prefetcher = machine.Morrigan(core.DefaultConfig())
	cfg.PrefetchIntoSTLB = true
	s := mustNew(t, cfg, []ThreadSpec{{Reader: testWorkload()}})
	st, err := s.Run(50_000, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	// P2TLB bypasses the PB entirely.
	if st.PBHits != 0 {
		t.Fatalf("PB hits under P2TLB: %d", st.PBHits)
	}
	if st.PrefetchWalks == 0 {
		t.Fatal("no prefetch walks under P2TLB")
	}
}

func TestSMTTwoThreads(t *testing.T) {
	qmm := workloads.QMM()
	cfg := DefaultConfig()
	s := mustNew(t, cfg, []ThreadSpec{
		{Reader: qmm[3].NewReader()},
		{Reader: qmm[7].NewReader(), VAOffset: 1 << 40},
	})
	st, err := s.Run(100_000, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != 400_000 {
		t.Fatalf("Instructions = %d", st.Instructions)
	}
	if st.ISTLBMisses == 0 {
		t.Fatal("no iSTLB misses under SMT")
	}
}

func TestSMTColocationIncreasesPressure(t *testing.T) {
	qmm := workloads.QMM()
	solo := mustNew(t, DefaultConfig(), []ThreadSpec{{Reader: qmm[3].NewReader()}})
	sst, _ := solo.Run(100_000, 400_000)
	pair := mustNew(t, DefaultConfig(), []ThreadSpec{
		{Reader: qmm[3].NewReader()},
		{Reader: qmm[7].NewReader(), VAOffset: 1 << 40},
	})
	pst, _ := pair.Run(100_000, 400_000)
	if pst.ISTLBMPKI <= sst.ISTLBMPKI {
		t.Fatalf("colocation should increase iSTLB MPKI: %.3f vs %.3f", pst.ISTLBMPKI, sst.ISTLBMPKI)
	}
}

func TestFNLMMAWithTLBCost(t *testing.T) {
	mk := func(tlbCost bool) Stats {
		cfg := DefaultConfig()
		cfg.ICachePrefetcher = machine.FNLMMA()
		cfg.ICacheTLBCost = tlbCost
		s := mustNew(t, cfg, []ThreadSpec{{Reader: testWorkload()}})
		st, err := s.Run(100_000, 500_000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	free := mk(false)
	costed := mk(true)
	if costed.ICacheXPageWalks == 0 {
		t.Fatal("page-crossing prefetches did not trigger walks")
	}
	if free.ICacheXPageWalks != 0 {
		t.Fatal("free-translation mode should not issue prefetch walks")
	}
	// The paper's "FNL+MMA" line is the IPC-1 infrastructure, where
	// instruction address translation is not modelled at all; that ideal
	// must upper-bound the realistic FNL+MMA+TLB configuration.
	ideal := func() Stats {
		cfg := DefaultConfig()
		cfg.ICachePrefetcher = machine.FNLMMA()
		cfg.PerfectISTLB = true
		s := mustNew(t, cfg, []ThreadSpec{{Reader: testWorkload()}})
		st, err := s.Run(100_000, 500_000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}()
	if costed.Cycles < ideal.Cycles {
		t.Fatalf("FNL+MMA+TLB (%d) faster than translation-free ideal (%d)", costed.Cycles, ideal.Cycles)
	}
}

func TestMorriganHelpsFNLMMA(t *testing.T) {
	mk := func(withMorrigan bool) Stats {
		cfg := DefaultConfig()
		cfg.ICachePrefetcher = machine.FNLMMA()
		cfg.ICacheTLBCost = true
		if withMorrigan {
			cfg.Prefetcher = machine.Morrigan(core.DefaultConfig())
		}
		s := mustNew(t, cfg, []ThreadSpec{{Reader: testWorkload()}})
		st, err := s.Run(200_000, 800_000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	alone := mk(false)
	combined := mk(true)
	// Section 6.5's synergy: page-crossing prefetches find translations in
	// Morrigan's PB.
	if combined.ICachePBHits == 0 {
		t.Fatal("no page-crossing prefetch hit Morrigan's PB")
	}
	if combined.Cycles >= alone.Cycles {
		t.Fatalf("Morrigan+FNL+MMA (%d) not faster than FNL+MMA (%d)", combined.Cycles, alone.Cycles)
	}
	_ = alone
}

func TestEnlargedSTLB(t *testing.T) {
	cfg := DefaultConfig()
	cfg.STLBEntries = 1920 // +384 entries, ISO-storage-ish with Morrigan
	s := mustNew(t, cfg, []ThreadSpec{{Reader: testWorkload()}})
	st, err := s.Run(100_000, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	base := mustNew(t, DefaultConfig(), []ThreadSpec{{Reader: testWorkload()}})
	bst, _ := base.Run(100_000, 400_000)
	if st.ISTLBMisses >= bst.ISTLBMisses {
		t.Fatalf("larger STLB should miss less: %d vs %d", st.ISTLBMisses, bst.ISTLBMisses)
	}
}

func TestASAPReducesWalkLatency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Walker.ASAP = true
	s := mustNew(t, cfg, []ThreadSpec{{Reader: testWorkload()}})
	ast, _ := s.Run(100_000, 400_000)
	base := mustNew(t, DefaultConfig(), []ThreadSpec{{Reader: testWorkload()}})
	bst, _ := base.Run(100_000, 400_000)
	if ast.AvgIWalkLatency > bst.AvgIWalkLatency {
		t.Fatalf("ASAP walk latency %v > baseline %v", ast.AvgIWalkLatency, bst.AvgIWalkLatency)
	}
}

func TestOnISTLBMissHook(t *testing.T) {
	var seen []arch.VPN
	cfg := DefaultConfig()
	cfg.OnISTLBMiss = func(tid arch.ThreadID, vpn arch.VPN) { seen = append(seen, vpn) }
	s := mustNew(t, cfg, []ThreadSpec{{Reader: testWorkload()}})
	st, err := s.Run(0, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(seen)) != st.ISTLBMisses {
		t.Fatalf("hook saw %d misses, stats say %d", len(seen), st.ISTLBMisses)
	}
}

func TestFiniteTraceEndsRun(t *testing.T) {
	recs := make([]trace.Record, 1000)
	for i := range recs {
		recs[i].PC = arch.VAddr(0x400000 + i*4)
	}
	s := mustNew(t, DefaultConfig(), []ThreadSpec{{Reader: &trace.SliceReader{Records: recs}}})
	st, err := s.Run(0, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != 1000 {
		t.Fatalf("Instructions = %d, want 1000 (trace length)", st.Instructions)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.ITLBEntries = 0 },
		func(c *Config) { c.DTLBEntries = 10; c.DTLBWays = 4 },
		func(c *Config) { c.STLBWays = 0 },
		func(c *Config) { c.PBEntries = 0 },
		func(c *Config) { c.SMTBlock = 0 },
		func(c *Config) { c.PerfectISTLB = true; c.Prefetcher = machine.SP() },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(cfg, []ThreadSpec{{Reader: testWorkload()}}); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(DefaultConfig(), nil); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := New(DefaultConfig(), []ThreadSpec{{Reader: nil}}); err == nil {
		t.Error("nil reader accepted")
	}
	over := make([]ThreadSpec, MaxThreads+1)
	for i := range over {
		over[i] = ThreadSpec{Reader: testWorkload()}
	}
	if _, err := New(DefaultConfig(), over); err == nil {
		t.Errorf("%d threads accepted, want cap at %d", len(over), MaxThreads)
	}
}

// TestNWayColocationPerThreadStats: a 4-way colocated run retires the asked
// instruction count, attributes work to every thread, and the per-thread
// arrays sum exactly to the machine-wide counters they decompose.
func TestNWayColocationPerThreadStats(t *testing.T) {
	qmm := workloads.QMM()
	const ways = 4
	threads := make([]ThreadSpec, ways)
	for i := range threads {
		threads[i] = ThreadSpec{
			Reader:   qmm[i].NewReader(),
			VAOffset: arch.VAddr(i) * (1 << 40),
		}
	}
	cfg := DefaultConfig()
	cfg.Prefetcher = machine.Morrigan(core.DefaultConfig())
	s := mustNew(t, cfg, threads)
	st, err := s.Run(20_000, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != 200_000 {
		t.Fatalf("Instructions = %d", st.Instructions)
	}
	var instr, misses, pbHits uint64
	for i := 0; i < ways; i++ {
		if st.ThreadInstructions[i] == 0 {
			t.Errorf("thread %d retired nothing", i)
		}
		instr += st.ThreadInstructions[i]
		misses += st.ThreadISTLBMisses[i]
		pbHits += st.ThreadPBHits[i]
	}
	for i := ways; i < MaxThreads; i++ {
		if st.ThreadInstructions[i]+st.ThreadISTLBMisses[i]+st.ThreadPBHits[i] != 0 {
			t.Errorf("unpopulated thread %d has nonzero stats", i)
		}
	}
	if instr != st.Instructions {
		t.Errorf("per-thread instructions sum %d != total %d", instr, st.Instructions)
	}
	if misses != st.ISTLBMisses {
		t.Errorf("per-thread iSTLB misses sum %d != total %d", misses, st.ISTLBMisses)
	}
	if pbHits != st.PBHits {
		t.Errorf("per-thread PB hits sum %d != total %d", pbHits, st.PBHits)
	}
	if st.PBHits == 0 {
		t.Error("no PB hits under Morrigan at 4-way pressure")
	}
}

func TestStallBreakdownKeys(t *testing.T) {
	s := mustNew(t, DefaultConfig(), []ThreadSpec{{Reader: testWorkload()}})
	if _, err := s.Run(0, 50_000); err != nil {
		t.Fatal(err)
	}
	bd := s.StallBreakdown()
	for _, k := range []string{"icache", "itlb-lookup", "iwalk", "data"} {
		if _, ok := bd[k]; !ok {
			t.Errorf("missing stall class %q (have %s)", k, strings.Join(keys(bd), ","))
		}
	}
}

func keys(m map[string]arch.Cycle) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestWarmupResetsStats(t *testing.T) {
	s := mustNew(t, DefaultConfig(), []ThreadSpec{{Reader: testWorkload()}})
	st, err := s.Run(100_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	// Measured instructions must exclude warmup.
	if st.Instructions != 100_000 {
		t.Fatalf("Instructions = %d", st.Instructions)
	}
	// Warmed caches: the measured interval should miss less than a cold run
	// of the same length.
	cold := mustNew(t, DefaultConfig(), []ThreadSpec{{Reader: testWorkload()}})
	cst, _ := cold.Run(0, 100_000)
	if st.ISTLBMisses >= cst.ISTLBMisses {
		t.Fatalf("warmup did not reduce misses: %d vs %d", st.ISTLBMisses, cst.ISTLBMisses)
	}
}

func TestPageTableKinds(t *testing.T) {
	for _, kind := range []string{machine.PageTableRadix4, machine.PageTableRadix5, machine.PageTableHashed} {
		cfg := DefaultConfig()
		cfg.PageTable = kind
		s := mustNew(t, cfg, []ThreadSpec{{Reader: testWorkload()}})
		st, err := s.Run(50_000, 200_000)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if st.DemandIWalks == 0 || st.Instructions != 200_000 {
			t.Fatalf("%v: %+v", kind, st)
		}
	}
}

// TestNewHostMemory requires building a single-thread Table 1 machine to
// allocate at most 1 MiB of host memory on every page-table kind: what the
// caches, TLBs and walker hold, not a host array sized by the simulated
// hashed table.
func TestNewHostMemory(t *testing.T) {
	for _, kind := range []string{machine.PageTableRadix4, machine.PageTableRadix5, machine.PageTableHashed} {
		cfg := DefaultConfig()
		cfg.PageTable = kind
		threads := []ThreadSpec{{Reader: testWorkload()}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := mustNew(t, cfg, threads)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(s)
		got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20)
		t.Logf("%s: New allocated %d bytes", kind, got)
		if got > limit {
			t.Errorf("%s: New allocated %d bytes, want at most %d", kind, got, limit)
		}
	}
}

func TestRadix5WalksCostMore(t *testing.T) {
	run := func(kind string) Stats {
		cfg := DefaultConfig()
		cfg.PageTable = kind
		s := mustNew(t, cfg, []ThreadSpec{{Reader: testWorkload()}})
		st, err := s.Run(100_000, 400_000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	r4 := run(machine.PageTableRadix4)
	r5 := run(machine.PageTableRadix5)
	// The PML5 level is not PSC-cached, so 5-level walks reference memory
	// at least as often (Section 4.3: the extra level can lengthen walks).
	if r5.RefsPerWalk < r4.RefsPerWalk {
		t.Fatalf("refs/walk: 5-level %.2f < 4-level %.2f", r5.RefsPerWalk, r4.RefsPerWalk)
	}
}

func TestHashedTableSingleRefWalks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageTable = machine.PageTableHashed
	s := mustNew(t, cfg, []ThreadSpec{{Reader: testWorkload()}})
	st, err := s.Run(100_000, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	// Collision-light hashed walks average close to one reference.
	if st.RefsPerWalk > 1.5 {
		t.Fatalf("hashed RefsPerWalk = %.2f", st.RefsPerWalk)
	}
	if st.PSCHitRate != 0 {
		t.Fatal("PSC should be idle with a hashed table")
	}
}

func TestMorriganWorksOverHashedTable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageTable = machine.PageTableHashed
	cfg.Prefetcher = machine.Morrigan(core.DefaultConfig())
	s := mustNew(t, cfg, []ThreadSpec{{Reader: testWorkload()}})
	st, err := s.Run(200_000, 800_000)
	if err != nil {
		t.Fatal(err)
	}
	// Section 4.3: Morrigan operates the same over hashed page tables
	// because they preserve page table locality.
	if st.PBHits == 0 || st.FreePTEsInstalled == 0 {
		t.Fatalf("Morrigan inactive over hashed table: %+v", st)
	}
}

func TestContextSwitchesFlushState(t *testing.T) {
	base := mustNew(t, DefaultConfig(), []ThreadSpec{{Reader: testWorkload()}})
	bst, _ := base.Run(100_000, 400_000)

	cfg := DefaultConfig()
	cfg.ContextSwitchInterval = 50_000
	s := mustNew(t, cfg, []ThreadSpec{{Reader: testWorkload()}})
	st, err := s.Run(100_000, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	// Switches fire at 50k, 100k, ..., 350k retired instructions; the
	// boundary at 400k has no following instruction in the interval.
	if st.ContextSwitches != 7 {
		t.Fatalf("ContextSwitches = %d, want 7", st.ContextSwitches)
	}
	if st.ISTLBMisses <= bst.ISTLBMisses {
		t.Fatal("context switches should add TLB misses")
	}
}

// TestFastForwardContextSwitchClock checks that FastForward and timed
// execution switch on one clock, restarted by each stats reset: a
// fast-forward right after a timed slice continues the slice's count
// instead of the instructions fast-forwarded before it.
func TestFastForwardContextSwitchClock(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.ContextSwitchInterval = 10_000
	s := mustNew(t, cfg, []ThreadSpec{{Reader: testWorkload()}})
	if err := s.FastForward(ctx, 50_000); err != nil {
		t.Fatal(err)
	}
	// Switches at 10k, 20k, 30k and 40k; the boundary at 50k has no
	// following instruction.
	if got := s.Snapshot().ContextSwitches; got != 4 {
		t.Fatalf("FastForward(50,000): %d context switches, want 4", got)
	}
	if _, err := s.RunContext(ctx, 0, 1_000); err != nil {
		t.Fatal(err)
	}
	if err := s.FastForward(ctx, 5_000); err != nil {
		t.Fatal(err)
	}
	// 6,000 instructions since the stats reset: no switch is due.
	if got := s.Snapshot().ContextSwitches; got != 0 {
		t.Fatalf("RunContext(0, 1,000) then FastForward(5,000): %d context switches, want 0", got)
	}
	if err := s.FastForward(ctx, 5_000); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().ContextSwitches; got != 1 {
		t.Fatalf("11,000 instructions after the reset: %d context switches, want 1", got)
	}
}

func TestMorriganRecoversAfterContextSwitches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ContextSwitchInterval = 100_000
	cfg.Prefetcher = machine.Morrigan(core.DefaultConfig())
	s := mustNew(t, cfg, []ThreadSpec{{Reader: testWorkload()}})
	st, err := s.Run(200_000, 800_000)
	if err != nil {
		t.Fatal(err)
	}
	// Section 4.3: the small tables refill quickly after a flush, so
	// coverage survives periodic context switches.
	if st.PBHits == 0 {
		t.Fatal("no PB hits with context switching")
	}
	if st.ContextSwitches == 0 {
		t.Fatal("no context switches recorded")
	}
}

func TestCorrectingWalksResetAccessedBits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CorrectingWalks = true
	cfg.Prefetcher = machine.Morrigan(core.DefaultConfig())
	s := mustNew(t, cfg, []ThreadSpec{{Reader: testWorkload()}})
	st, err := s.Run(200_000, 800_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.CorrectingWalks == 0 {
		t.Fatal("no correcting walks despite PB evictions")
	}
	// Corrections never exceed useless evictions.
	if st.CorrectingWalks > st.PrefetchesIssued {
		t.Fatalf("correcting walks %d exceed prefetches %d", st.CorrectingWalks, st.PrefetchesIssued)
	}
	// The feature is off by default.
	off := mustNew(t, DefaultConfig(), []ThreadSpec{{Reader: testWorkload()}})
	ost, _ := off.Run(100_000, 400_000)
	if ost.CorrectingWalks != 0 {
		t.Fatal("correcting walks enabled by default")
	}
}

func TestHugeDataPagesReduceDataMisses(t *testing.T) {
	// A large-footprint workload: the code working set alone exceeds the
	// STLB, which is the regime the paper's Figure 2 measures (iSTLB MPKI
	// stays high even with transparent huge pages for data).
	big := func() trace.Reader { return workloads.QMM()[40].NewReader() }
	base := mustNew(t, DefaultConfig(), []ThreadSpec{{Reader: big()}})
	bst, _ := base.Run(150_000, 600_000)

	cfg := DefaultConfig()
	cfg.HugeDataPages = true
	s := mustNew(t, cfg, []ThreadSpec{{Reader: big()}})
	st, err := s.Run(150_000, 600_000)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Section 5 argument: huge pages collapse the data side...
	if st.DSTLBMisses*4 >= bst.DSTLBMisses {
		t.Fatalf("huge data pages should collapse dSTLB misses: %d vs %d",
			st.DSTLBMisses, bst.DSTLBMisses)
	}
	// ...but the instruction side (4 KB code) remains a bottleneck.
	if st.ISTLBMPKI < 0.2 {
		t.Fatalf("iSTLB MPKI = %.3f: instruction bottleneck vanished", st.ISTLBMPKI)
	}
}

func TestHugeDataPagesRejectHashedTable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HugeDataPages = true
	cfg.PageTable = machine.PageTableHashed
	if _, err := New(cfg, []ThreadSpec{{Reader: testWorkload()}}); err == nil {
		t.Fatal("huge pages over a hashed table accepted")
	}
}

func TestHugeDataPagesWithMorrigan(t *testing.T) {
	// With huge data pages a single workload's code can become
	// STLB-resident; colocate two large workloads (the datacenter norm,
	// Section 5) so instruction pressure persists and Morrigan has misses
	// to cover.
	qmm := workloads.QMM()
	cfg := DefaultConfig()
	cfg.HugeDataPages = true
	cfg.Prefetcher = machine.Morrigan(core.ScaledConfig(2))
	s := mustNew(t, cfg, []ThreadSpec{
		{Reader: qmm[40].NewReader()},
		{Reader: qmm[43].NewReader(), VAOffset: 1 << 40},
	})
	st, err := s.Run(300_000, 1_200_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.PBHits == 0 {
		t.Fatal("Morrigan inactive with huge data pages under colocation")
	}
	if st.DemandIWalks+st.PBHits != st.ISTLBMisses {
		t.Fatal("accounting identity broken")
	}
}

package machine_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"morrigan/internal/arch"
	"morrigan/internal/core"
	"morrigan/internal/machine"
	"morrigan/internal/sim"
	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

// updateGolden regenerates testdata/golden_stats.json from the current
// simulator.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_stats.json")

// The kind matrix: every prefetcher, I-cache prefetcher and page-table kind
// a Spec can name.
var (
	matrixPFSpecs = []struct {
		name string
		spec func() machine.PrefetcherSpec
	}{
		{"none", func() machine.PrefetcherSpec { return machine.PrefetcherSpec{} }},
		{"sp", machine.SP},
		{"asp", func() machine.PrefetcherSpec { return machine.ASP(256) }},
		{"dp", func() machine.PrefetcherSpec { return machine.DP(256) }},
		{"mp", func() machine.PrefetcherSpec { return machine.MP(128, 4) }},
		{"mp-unbounded", func() machine.PrefetcherSpec { return machine.UnboundedMP(2) }},
		{"morrigan", func() machine.PrefetcherSpec { return machine.Morrigan(core.DefaultConfig()) }},
	}
	matrixICSpecs = []struct {
		name string
		spec func() machine.ICacheSpec
	}{
		{"next-line", func() machine.ICacheSpec { return machine.ICacheSpec{} }},
		{"fnl-mma", machine.FNLMMA},
		{"epi", machine.EPI},
		{"djolt", machine.DJolt},
	}
	matrixPTKinds = []string{"radix-4", "radix-5", "hashed"}
)

// stressShapes are the run-loop shapes the kind matrix holds fixed: SMT
// colocation, context switches, correcting walks, huge data pages and
// prefetch-into-STLB.
var stressShapes = []struct {
	name    string
	spec    func() machine.Spec
	threads int
}{
	{"smt-morrigan", func() machine.Spec {
		s := machine.Default()
		s.Prefetcher = machine.Morrigan(core.DefaultConfig())
		return s
	}, 2},
	{"context-switches", func() machine.Spec {
		s := machine.Default()
		s.Prefetcher = machine.Morrigan(core.DefaultConfig())
		s.ContextSwitchInterval = 3_000
		return s
	}, 1},
	{"correcting-walks", func() machine.Spec {
		s := machine.Default()
		s.Prefetcher = machine.Morrigan(core.DefaultConfig())
		s.CorrectingWalks = true
		return s
	}, 1},
	{"huge-data-pages", func() machine.Spec {
		s := machine.Default()
		s.Prefetcher = machine.SP()
		s.HugeDataPages = true
		return s
	}, 1},
	{"prefetch-into-stlb", func() machine.Spec {
		s := machine.Default()
		s.Prefetcher = machine.Morrigan(core.DefaultConfig())
		s.PrefetchIntoSTLB = true
		return s
	}, 1},
}

// goldenCase is one pinned simulation: a machine, the workloads of its
// hardware threads (thread i runs at VAOffset i<<40) and the window.
type goldenCase struct {
	name            string
	spec            machine.Spec
	threads         []workloads.Spec
	warmup, measure uint64
	// evictionHeavy cases must miss the LLC more often than it has lines,
	// so every cache level runs its replacement policy under pressure.
	evictionHeavy bool
	// schedule, when set, replaces the warmup/measure window with sampled
	// execution's call sequence: each slice fast-forwards, settles timing
	// and runs a timed window, and the digest pins every slice's Stats.
	schedule []ffSlice
}

// ffSlice is one FastForward → SettleTiming → RunContext round.
type ffSlice struct{ fastForward, warmup, measure uint64 }

// ffSchedule mixes long and short fast-forwards around timed slices. No
// length is a multiple of the 8-record SMT block, so a context switch or a
// slice boundary can fall inside a block.
var ffSchedule = []ffSlice{
	{fastForward: 20_003, warmup: 1_001, measure: 5_005},
	{fastForward: 9_997, warmup: 0, measure: 3_003},
	{fastForward: 15_011, warmup: 2_005, measure: 4_001},
}

// goldenEntry is one case's line in the golden file. The digest pins every
// Stats field; the four counters make a drift readable in the diff.
type goldenEntry struct {
	Case        string     `json:"case"`
	StatsSHA256 string     `json:"stats_sha256"`
	Cycles      arch.Cycle `json:"cycles"`
	ISTLBMisses uint64     `json:"istlb_misses"`
	PBHits      uint64     `json:"pb_hits"`
	L1IMisses   uint64     `json:"l1i_misses"`
}

// goldenCases enumerates every pinned case: the kind matrix, the stress
// shapes, the eviction-heavy cases and the fast-forward cases.
func goldenCases() []goldenCase {
	var cases []goldenCase
	cases = append(cases, kindMatrixCases()...)
	cases = append(cases, stressCases()...)
	cases = append(cases, evictionCases()...)
	return append(cases, fastForwardCases()...)
}

// kindMatrixCases runs the full kind matrix on one workload. Page-crossing
// I-cache translation cost is on whenever the I-cache prefetcher crosses
// pages, so the TokenICache PB path runs too.
func kindMatrixCases() []goldenCase {
	qmm := workloads.QMM()
	var cases []goldenCase
	for _, pf := range matrixPFSpecs {
		for _, ic := range matrixICSpecs {
			for _, pt := range matrixPTKinds {
				s := machine.Default()
				s.Prefetcher = pf.spec()
				s.ICachePrefetcher = ic.spec()
				s.PageTable = pt
				s.ICacheTLBCost = ic.name != "next-line"
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("%s/%s/%s", pf.name, ic.name, pt), spec: s,
					threads: qmm[3:4], warmup: 2_000, measure: 10_000,
				})
			}
		}
	}
	return cases
}

// stressCases runs each stress shape.
func stressCases() []goldenCase {
	qmm := workloads.QMM()
	var cases []goldenCase
	for _, sh := range stressShapes {
		cases = append(cases, goldenCase{
			name: "stress/" + sh.name, spec: sh.spec(),
			threads: qmm[1 : 1+sh.threads], warmup: 3_000, measure: 15_000,
		})
	}
	return cases
}

// evictionCases runs the six Figure 15 benchmark workloads on a machine with
// 16x fewer L2 and LLC sets, with and without Morrigan, plus Morrigan behind
// the non-power-of-two iso-storage STLB of Figure 18.
func evictionCases() []goldenCase {
	qmm := workloads.QMM()
	var cases []goldenCase
	small := machine.Default()
	small.Cache.L2Sets /= 16
	small.Cache.LLCSets /= 16
	morrigan := small
	morrigan.Prefetcher = machine.Morrigan(core.DefaultConfig())
	for _, i := range []int{0, 9, 18, 26, 35, 44} {
		for _, c := range []struct {
			name string
			spec machine.Spec
		}{{"baseline", small}, {"morrigan", morrigan}} {
			cases = append(cases, goldenCase{
				name: "evict/" + qmm[i].Name + "/" + c.name, spec: c.spec,
				threads: qmm[i : i+1], warmup: 100_000, measure: 400_000, evictionHeavy: true,
			})
		}
	}
	iso := morrigan
	iso.STLBEntries = 1920 // 320 sets of 6 ways
	return append(cases, goldenCase{
		name: "evict/" + qmm[0].Name + "/morrigan-stlb-320-sets", spec: iso,
		threads: qmm[0:1], warmup: 100_000, measure: 400_000, evictionHeavy: true,
	})
}

// fastForwardCases runs Morrigan with every I-cache prefetcher on one and
// two threads through ffSchedule, switching contexts every 7,001
// instructions.
func fastForwardCases() []goldenCase {
	qmm := workloads.QMM()
	var cases []goldenCase
	for _, threads := range []int{1, 2} {
		for _, ic := range matrixICSpecs {
			s := machine.Default()
			s.Prefetcher = machine.Morrigan(core.DefaultConfig())
			s.ICachePrefetcher = ic.spec()
			s.ICacheTLBCost = ic.name != "next-line"
			s.ContextSwitchInterval = 7_001
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("fastforward/%dt/%s", threads, ic.name), spec: s,
				threads: qmm[5 : 5+threads], schedule: ffSchedule,
			})
		}
	}
	return cases
}

// runGolden simulates one case. wrap, when non-nil, wraps each thread's
// reader.
func runGolden(t *testing.T, c goldenCase, wrap func(trace.Reader) trace.Reader) goldenEntry {
	t.Helper()
	threads := make([]sim.ThreadSpec, len(c.threads))
	for i, w := range c.threads {
		r := w.NewReader()
		if wrap != nil {
			r = wrap(r)
		}
		threads[i] = sim.ThreadSpec{Reader: r, VAOffset: arch.VAddr(i) << 40}
	}
	m, err := sim.New(sim.Config{Spec: c.spec}, threads)
	if err != nil {
		t.Fatal(err)
	}
	// A scheduled case digests the JSON list of its slices' Stats; the
	// readable counters sum over the slices.
	e := goldenEntry{Case: c.name}
	var digested any
	if c.schedule == nil {
		st, err := m.Run(c.warmup, c.measure)
		if err != nil {
			t.Fatal(err)
		}
		if llc := m.Hierarchy().LLC; c.evictionHeavy && llc.Misses() <= uint64(llc.Entries()) {
			t.Errorf("%d measured LLC misses against %d lines: not eviction-heavy", llc.Misses(), llc.Entries())
		}
		e.add(st)
		digested = st
	} else {
		var slices []sim.Stats
		for _, sl := range c.schedule {
			if err := m.FastForward(context.Background(), sl.fastForward); err != nil {
				t.Fatal(err)
			}
			m.SettleTiming()
			st, err := m.RunContext(context.Background(), sl.warmup, sl.measure)
			if err != nil {
				t.Fatal(err)
			}
			e.add(st)
			slices = append(slices, st)
		}
		digested = slices
	}
	raw, err := json.Marshal(digested)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	e.StatsSHA256 = hex.EncodeToString(sum[:])
	return e
}

// add accumulates st's readable counters into e.
func (e *goldenEntry) add(st sim.Stats) {
	e.Cycles += st.Cycles
	e.ISTLBMisses += st.ISTLBMisses
	e.PBHits += st.PBHits
	e.L1IMisses += st.L1IMisses
}

// goldenPath is the golden file, relative to the package directory.
var goldenPath = filepath.Join("testdata", "golden_stats.json")

// loadGolden reads the golden file's entries by case name.
func loadGolden(t *testing.T) map[string]goldenEntry {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatal(err)
	}
	want := map[string]goldenEntry{}
	for _, e := range entries {
		want[e.Case] = e
	}
	return want
}

// TestStatsGolden pins the Stats of every golden case, as data, to the
// values the simulator produced when the file was generated. Regenerate
// with -update-golden only for an intended model change.
func TestStatsGolden(t *testing.T) {
	want := map[string]goldenEntry{}
	if !*updateGolden {
		want = loadGolden(t)
	}
	cases := goldenCases()
	got := make([]goldenEntry, len(cases))
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got[i] = runGolden(t, c, nil)
			if w, ok := want[c.name]; !*updateGolden && got[i] != w {
				t.Errorf("Stats drifted from the golden file (present=%v):\n got  %+v\n want %+v", ok, got[i], w)
			}
		})
	}
	if !*updateGolden {
		if len(want) != len(cases) {
			t.Errorf("golden file holds %d cases, the test enumerates %d", len(want), len(cases))
		}
		return
	}
	for _, e := range got {
		if e.Case == "" {
			t.Fatal("not writing the golden file: -update-golden needs every case to run (no -run filter on subtests)")
		}
	}
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d cases to %s", len(got), goldenPath)
}

// recordAtATime delivers its reader's records one per NextBatch, so every
// record the simulator takes follows a buffer refill.
type recordAtATime struct{ trace.Reader }

func (r recordAtATime) NextBatch(dst []trace.Record) (int, error) {
	return r.Reader.NextBatch(dst[:1])
}

// checkRecordAtATime runs each case with every thread's trace delivered one
// record per batch and requires the golden Stats: where a reader's batches
// end must never show in a result. Subtests drop prefix from case names.
func checkRecordAtATime(t *testing.T, cases []goldenCase, prefix string) {
	want := loadGolden(t)
	oneRecord := func(r trace.Reader) trace.Reader { return recordAtATime{r} }
	for _, c := range cases {
		t.Run(strings.TrimPrefix(c.name, prefix), func(t *testing.T) {
			if got := runGolden(t, c, oneRecord); got != want[c.name] {
				t.Errorf("one-record batches moved Stats off the golden file:\n got  %+v\n want %+v", got, want[c.name])
			}
		})
	}
}

// TestBatchedEquivalenceAcrossKinds runs the kind matrix one record per
// batch.
func TestBatchedEquivalenceAcrossKinds(t *testing.T) {
	checkRecordAtATime(t, kindMatrixCases(), "")
}

// TestBatchedEquivalenceStressShapes runs the stress shapes and the
// fast-forward schedules one record per batch.
func TestBatchedEquivalenceStressShapes(t *testing.T) {
	checkRecordAtATime(t, append(stressCases(), fastForwardCases()...), "stress/")
}

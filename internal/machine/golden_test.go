package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"morrigan/internal/arch"
	"morrigan/internal/core"
	"morrigan/internal/sim"
	"morrigan/internal/workloads"
)

// updateGolden regenerates testdata/golden_stats.json from the current
// simulator.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_stats.json")

// goldenCase is one pinned simulation: a machine, the workloads of its
// hardware threads (thread i runs at VAOffset i<<40) and the window.
type goldenCase struct {
	name            string
	spec            Spec
	threads         []workloads.Spec
	warmup, measure uint64
	// evictionHeavy cases must miss the LLC more often than it has lines,
	// so every cache level runs its replacement policy under pressure.
	evictionHeavy bool
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

// goldenCases enumerates the batched equivalence suite's kind matrix and
// stress shapes at their own windows, then the eviction-heavy cases: the six
// Figure 15 benchmark workloads on a machine with 16x fewer L2 and LLC sets,
// with and without Morrigan, plus Morrigan behind the non-power-of-two
// iso-storage STLB of Figure 18.
func goldenCases() []goldenCase {
	qmm := workloads.QMM()
	var cases []goldenCase
	for _, pf := range batchedPFSpecs {
		for _, ic := range batchedICSpecs {
			for _, pt := range batchedPTKinds {
				s := Default()
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
	for _, sh := range stressShapes {
		cases = append(cases, goldenCase{
			name: "stress/" + sh.name, spec: sh.spec(),
			threads: qmm[1 : 1+sh.threads], warmup: 3_000, measure: 15_000,
		})
	}
	small := Default()
	small.Cache.L2Sets /= 16
	small.Cache.LLCSets /= 16
	morrigan := small
	morrigan.Prefetcher = Morrigan(core.DefaultConfig())
	for _, i := range []int{0, 9, 18, 26, 35, 44} {
		for _, c := range []struct {
			name string
			spec Spec
		}{{"baseline", small}, {"morrigan", morrigan}} {
			cases = append(cases, goldenCase{
				name: "evict/" + qmm[i].Name + "/" + c.name, spec: c.spec,
				threads: qmm[i : i+1], warmup: 100_000, measure: 400_000, evictionHeavy: true,
			})
		}
	}
	iso := morrigan
	iso.STLBEntries = 1920 // 320 sets of 6 ways
	cases = append(cases, goldenCase{
		name: "evict/" + qmm[0].Name + "/morrigan-stlb-320-sets", spec: iso,
		threads: qmm[0:1], warmup: 100_000, measure: 400_000, evictionHeavy: true,
	})
	return cases
}

// runGolden simulates one case on the default (batched) loop.
func runGolden(t *testing.T, c goldenCase) goldenEntry {
	t.Helper()
	cfg, err := c.spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	threads := make([]sim.ThreadSpec, len(c.threads))
	for i, w := range c.threads {
		threads[i] = sim.ThreadSpec{Reader: w.NewReader(), VAOffset: arch.VAddr(i) << 40}
	}
	m, err := sim.New(cfg, threads)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run(c.warmup, c.measure)
	if err != nil {
		t.Fatal(err)
	}
	if llc := m.Hierarchy().LLC; c.evictionHeavy && llc.Misses() <= uint64(llc.Entries()) {
		t.Errorf("%d measured LLC misses against %d lines: not eviction-heavy", llc.Misses(), llc.Entries())
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return goldenEntry{
		Case:        c.name,
		StatsSHA256: hex.EncodeToString(sum[:]),
		Cycles:      st.Cycles,
		ISTLBMisses: st.ISTLBMisses,
		PBHits:      st.PBHits,
		L1IMisses:   st.L1IMisses,
	}
}

// TestStatsGolden pins the Stats of every golden case, as data, to the
// values the simulator produced when the file was generated. Unlike the
// batched-vs-reference suite, whose two loops share the TLB and cache
// models, it catches a change in those models' replacement behaviour.
// Regenerate with -update-golden only for an intended model change.
func TestStatsGolden(t *testing.T) {
	path := filepath.Join("testdata", "golden_stats.json")
	want := map[string]goldenEntry{}
	if !*updateGolden {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
		}
		var entries []goldenEntry
		if err := json.Unmarshal(raw, &entries); err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			want[e.Case] = e
		}
	}
	cases := goldenCases()
	got := make([]goldenEntry, len(cases))
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got[i] = runGolden(t, c)
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
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d cases to %s", len(got), path)
}

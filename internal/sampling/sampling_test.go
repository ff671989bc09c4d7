package sampling

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"morrigan/internal/arch"
	"morrigan/internal/sim"
	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

func TestPolicyValidate(t *testing.T) {
	base := Policy{Interval: 1000, Clusters: 4, SliceWarmup: 500, Seed: 1}
	cases := []struct {
		name    string
		mutate  func(*Policy)
		measure uint64
		wantErr bool
	}{
		{"ok", func(*Policy) {}, 10_000, false},
		{"zero interval", func(p *Policy) { p.Interval = 0 }, 10_000, true},
		{"zero clusters", func(p *Policy) { p.Clusters = 0 }, 10_000, true},
		{"measure shorter than interval", func(*Policy) {}, 500, true},
		{"measure not a multiple", func(*Policy) {}, 10_500, true},
		{"warmup too long", func(p *Policy) { p.SliceWarmup = 4001 }, 10_000, true},
		{"warmup at the limit", func(p *Policy) { p.SliceWarmup = 4000 }, 10_000, false},
		{"zero warmup", func(p *Policy) { p.SliceWarmup = 0 }, 10_000, false},
	}
	for _, tc := range cases {
		p := base
		tc.mutate(&p)
		err := p.Validate(tc.measure)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: Validate(%d) = %v, wantErr=%v", tc.name, tc.measure, err, tc.wantErr)
		}
	}
}

func TestDefaultPolicyValidates(t *testing.T) {
	if err := DefaultPolicy().Validate(10_000_000); err != nil {
		t.Fatalf("default policy invalid: %v", err)
	}
}

// loopTrace builds n instructions striding through `pages` instruction pages.
func loopTrace(n, pages int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		page := uint64(i%pages + 1)
		recs[i].PC = arch.VAddr(page*arch.PageSize + uint64(i%64)*8)
	}
	return recs
}

func TestBuildProfileDeterministic(t *testing.T) {
	w := workloads.QMM()[0]
	const skip, measure, interval = 2_000, 20_000, 2_000
	a, err := BuildProfile(w.NewReader(), w.Hash(), skip, measure, interval)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildProfile(w.NewReader(), w.Hash(), skip, measure, interval)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two profiling passes over the same stream differ")
	}
	if len(a.Intervals) != measure/interval {
		t.Fatalf("intervals = %d, want %d", len(a.Intervals), measure/interval)
	}
	var transitions uint64
	for i, f := range a.Intervals {
		if f.Instructions != interval {
			t.Errorf("interval %d profiled %d instructions, want %d", i, f.Instructions, interval)
		}
		if f.MissPCSkew < 0 || f.MissPCSkew > 1 {
			t.Errorf("interval %d skew %g out of [0,1]", i, f.MissPCSkew)
		}
		if f.ISTLBMisses > f.ITLBMisses {
			t.Errorf("interval %d: STLB misses %d exceed ITLB misses %d", i, f.ISTLBMisses, f.ITLBMisses)
		}
		transitions += f.PageTransitions
	}
	if transitions == 0 {
		t.Error("no page transitions recorded over the whole window")
	}
}

func TestBuildProfileDropsTruncatedInterval(t *testing.T) {
	// 2.5 intervals of records: the truncated final interval is dropped.
	r := &trace.SliceReader{Records: loopTrace(2_500, 8)}
	prof, err := BuildProfile(r, "w", 0, 10_000, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Intervals) != 2 {
		t.Fatalf("intervals = %d, want 2 (truncated third dropped)", len(prof.Intervals))
	}
}

func TestBuildProfileErrors(t *testing.T) {
	if _, err := BuildProfile(&trace.SliceReader{Records: loopTrace(500, 8)}, "w", 0, 10_000, 1_000); err == nil {
		t.Error("stream shorter than one interval accepted")
	}
	if _, err := BuildProfile(&trace.SliceReader{}, "w", 0, 10_000, 0); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := BuildProfile(&trace.SliceReader{}, "w", 0, 500, 1_000); err == nil {
		t.Error("measure shorter than interval accepted")
	}
}

func TestClusterDeterministicWeightsAndOrder(t *testing.T) {
	w := workloads.QMM()[1]
	prof, err := BuildProfile(w.NewReader(), w.Hash(), 0, 40_000, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	pol := Policy{Interval: 2_000, Clusters: 4, Seed: 7}
	a, err := Cluster(prof, pol)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cluster(prof, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("clustering the same profile twice differs")
	}
	if a.Intervals != len(prof.Intervals) || a.Interval != prof.Interval {
		t.Errorf("plan window = (%d, %d), want (%d, %d)", a.Intervals, a.Interval, len(prof.Intervals), prof.Interval)
	}
	if len(a.Reps) == 0 || len(a.Reps) > pol.Clusters {
		t.Fatalf("reps = %d, want 1..%d", len(a.Reps), pol.Clusters)
	}
	var sum float64
	for i, rep := range a.Reps {
		if rep.Index < 0 || rep.Index >= a.Intervals {
			t.Errorf("rep %d index %d out of window", i, rep.Index)
		}
		if i > 0 && rep.Index <= a.Reps[i-1].Index {
			t.Errorf("reps not strictly ascending: %d then %d", a.Reps[i-1].Index, rep.Index)
		}
		sum += rep.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %g, want 1", sum)
	}
}

func TestClusterClampsToIntervalCount(t *testing.T) {
	r := &trace.SliceReader{Records: loopTrace(5_000, 8)}
	prof, err := BuildProfile(r, "w", 0, 5_000, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Cluster(prof, Policy{Interval: 1_000, Clusters: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Reps) > len(prof.Intervals) {
		t.Errorf("reps = %d exceed the %d intervals", len(plan.Reps), len(prof.Intervals))
	}
	var sum float64
	for _, rep := range plan.Reps {
		sum += rep.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %g, want 1", sum)
	}
	if _, err := Cluster(&Profile{}, Policy{Interval: 1_000, Clusters: 4, Seed: 1}); err == nil {
		t.Error("empty profile accepted")
	}
}

func TestExtrapolateScalesAndRecomputesRatios(t *testing.T) {
	a := sim.Stats{Instructions: 1_000, Cycles: 2_000, IPC: 0.5, ITLBMisses: 10, ITLBMPKI: 10, ISTLBMisses: 4, DemandIWalks: 4, DemandIWalkRefs: 8}
	b := sim.Stats{Instructions: 1_000, Cycles: 1_000, IPC: 1.0, ITLBMisses: 30, ITLBMPKI: 30, ISTLBMisses: 8, DemandIWalks: 2, DemandIWalkRefs: 2}
	a.PrefetchRefsByLevel[0], b.PrefetchRefsByLevel[0] = 100, 200

	est, ci := Extrapolate([]sim.Stats{a, b}, []float64{0.5, 0.5}, 10)
	if est.Instructions != 10_000 {
		t.Errorf("Instructions = %d, want 10000", est.Instructions)
	}
	if est.Cycles != 15_000 {
		t.Errorf("Cycles = %d, want 15000", est.Cycles)
	}
	// IPC is recomputed from the extrapolated counters, not averaged
	// (weighted-mean IPC would be 0.75; the counter ratio is 2/3).
	if want := 10_000.0 / 15_000.0; math.Abs(est.IPC-want) > 1e-9 {
		t.Errorf("IPC = %g, want %g", est.IPC, want)
	}
	if est.ITLBMisses != 200 {
		t.Errorf("ITLBMisses = %d, want 200", est.ITLBMisses)
	}
	if math.Abs(est.ITLBMPKI-20) > 1e-9 {
		t.Errorf("ITLBMPKI = %g, want 20", est.ITLBMPKI)
	}
	if est.PrefetchRefsByLevel[0] != 1_500 {
		t.Errorf("PrefetchRefsByLevel[0] = %d, want 1500", est.PrefetchRefsByLevel[0])
	}
	if want := 10.0 / 6.0; math.Abs(est.RefsPerWalk-want) > 1e-9 {
		t.Errorf("RefsPerWalk = %g, want %g", est.RefsPerWalk, want)
	}
	if ci.IPC <= 0 || ci.ITLBMPKI <= 0 {
		t.Errorf("CI half-widths must be positive with differing slices: %+v", ci)
	}
	// The weighted-mean IPC (0.75) must fall inside the recomputed value's
	// sampling spread: the half-width covers between-slice variance.
	if math.Abs(est.IPC-0.75) > ci.IPC {
		t.Errorf("weighted mean 0.75 outside IPC CI %g ± %g", est.IPC, ci.IPC)
	}
}

func TestExtrapolateIdenticalSlicesBiasGuardOnly(t *testing.T) {
	s := sim.Stats{Instructions: 1_000, Cycles: 2_000, IPC: 0.5}
	_, ci := Extrapolate([]sim.Stats{s, s, s}, []float64{0.5, 0.25, 0.25}, 12)
	// Zero between-slice variance leaves exactly the systematic bias guard.
	if want := biasGuardPct * 0.5; math.Abs(ci.IPC-want) > 1e-12 {
		t.Errorf("identical-slice IPC half-width = %g, want bias guard %g", ci.IPC, want)
	}
}

func TestProfileKeySensitivity(t *testing.T) {
	base := ProfileKey("w", 1, 100, 10)
	keys := map[string]string{
		"workload": ProfileKey("w2", 1, 100, 10),
		"skip":     ProfileKey("w", 2, 100, 10),
		"measure":  ProfileKey("w", 1, 200, 10),
		"interval": ProfileKey("w", 1, 100, 20),
	}
	for dim, k := range keys {
		if k == base {
			t.Errorf("changing %s did not change the profile key", dim)
		}
	}
	if ProfileKey("w", 1, 100, 10) != base {
		t.Error("profile key not deterministic")
	}
}

func TestProfileStoreBuildReuseAndCorruption(t *testing.T) {
	dir := t.TempDir()
	ps, err := OpenProfileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	builds := 0
	newReader := func() (trace.Reader, error) {
		builds++
		return &trace.SliceReader{Records: loopTrace(5_000, 8)}, nil
	}

	a, err := ps.Profile("w", 0, 5_000, 1_000, newReader)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ps.Profile("w", 0, 5_000, 1_000, newReader)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Errorf("functional pass ran %d times, want 1", builds)
	}
	if ps.Built() != 1 || ps.Reused() != 1 {
		t.Errorf("built=%d reused=%d, want 1/1", ps.Built(), ps.Reused())
	}
	if b != a {
		t.Error("second request did not get the instance held in memory")
	}

	// A second store instance over the same directory reuses the artifact,
	// and the profile decoded from disk matches the one built.
	ps2, err := OpenProfileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ps2.Profile("w", 0, 5_000, 1_000, newReader)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 || ps2.Built() != 0 || ps2.Reused() != 1 {
		t.Errorf("disk reuse: builds=%d built=%d reused=%d, want 1/0/1", builds, ps2.Built(), ps2.Reused())
	}
	if d == a {
		t.Error("a fresh store returned the first store's instance")
	}
	if !reflect.DeepEqual(a, d) {
		t.Error("profile loaded from disk differs from built profile")
	}

	// Corrupting the artifact triggers a silent rebuild, not an error.
	key := ProfileKey("w", 0, 5_000, 1_000)
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	ps3, err := OpenProfileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ps3.Profile("w", 0, 5_000, 1_000, newReader)
	if err != nil {
		t.Fatal(err)
	}
	if ps3.Built() != 1 {
		t.Errorf("corrupt artifact not rebuilt: built=%d", ps3.Built())
	}
	if !reflect.DeepEqual(a, c) {
		t.Error("rebuilt profile differs from original")
	}

	// A mismatched window must never serve another window's artifact.
	if _, err := ps3.Profile("w", 0, 4_000, 1_000, newReader); err != nil {
		t.Fatal(err)
	}
	if ps3.Built() != 2 {
		t.Errorf("distinct window served from cache: built=%d, want 2", ps3.Built())
	}
}

// profileStoreModes opens the two kinds of ProfileStore: memory-only and
// backed by a fresh directory.
func profileStoreModes(t *testing.T) map[string]*ProfileStore {
	stores := map[string]*ProfileStore{}
	for mode, dir := range map[string]string{"memory": "", "disk": t.TempDir()} {
		ps, err := OpenProfileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		stores[mode] = ps
	}
	return stores
}

// TestMemProfileCacheSharesAcrossConfigs checks that a campaign's
// configurations share one profile per workload and window, memory-only or
// on disk: six concurrent requests build once and get the same instance,
// and a later request is served that instance from memory.
func TestMemProfileCacheSharesAcrossConfigs(t *testing.T) {
	for mode, ps := range profileStoreModes(t) {
		var builds atomic.Int32
		newReader := func() (trace.Reader, error) {
			builds.Add(1)
			return &trace.SliceReader{Records: loopTrace(5_000, 8)}, nil
		}

		// Six "configs" of the same workload and window — the fig15 shape —
		// asking at once.
		profs := make([]*Profile, 6)
		var wg sync.WaitGroup
		for i := range profs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p, err := ps.Profile("w", 0, 5_000, 1_000, newReader)
				if err != nil {
					t.Error(err)
				}
				profs[i] = p
			}()
		}
		wg.Wait()
		for _, p := range profs[1:] {
			if p != profs[0] {
				t.Errorf("%s: store returned a different profile instance", mode)
			}
		}
		if builds.Load() != 1 {
			t.Errorf("%s: functional pass ran %d times, want 1", mode, builds.Load())
		}
		if ps.Built() != 1 || ps.Reused() != 5 {
			t.Errorf("%s: built=%d reused=%d, want 1/5", mode, ps.Built(), ps.Reused())
		}

		// A finished build stays cached: a sweep at -jobs 1 asks one config
		// at a time and must still profile once.
		later, err := ps.Profile("w", 0, 5_000, 1_000, newReader)
		if err != nil {
			t.Fatal(err)
		}
		if later != profs[0] {
			t.Errorf("%s: later request got a different profile instance", mode)
		}
		if builds.Load() != 1 || ps.Built() != 1 || ps.Reused() != 6 {
			t.Errorf("%s: after a later request builds=%d built=%d reused=%d, want 1/1/6",
				mode, builds.Load(), ps.Built(), ps.Reused())
		}

		// A different window is a different key.
		if _, err := ps.Profile("w", 0, 5_000, 500, newReader); err != nil {
			t.Fatal(err)
		}
		if ps.Built() != 2 {
			t.Errorf("%s: built=%d after new window, want 2", mode, ps.Built())
		}

		// The cached profile matches a direct build bit for bit.
		direct, err := BuildProfile(&trace.SliceReader{Records: loopTrace(5_000, 8)}, "w", 0, 5_000, 1_000)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(profs[0], direct) {
			t.Errorf("%s: cached profile differs from a direct build", mode)
		}
	}
}

// TestMemProfileCacheErrorNotCached checks that a failed build is not
// cached: the next request for the key builds again.
func TestMemProfileCacheErrorNotCached(t *testing.T) {
	for mode, ps := range profileStoreModes(t) {
		fail := true
		newReader := func() (trace.Reader, error) {
			if fail {
				return nil, errors.New("transient")
			}
			return &trace.SliceReader{Records: loopTrace(5_000, 8)}, nil
		}
		if _, err := ps.Profile("w", 0, 5_000, 1_000, newReader); err == nil {
			t.Fatalf("%s: reader error not surfaced", mode)
		}
		fail = false
		if _, err := ps.Profile("w", 0, 5_000, 1_000, newReader); err != nil {
			t.Fatalf("%s: failed build poisoned the key: %v", mode, err)
		}
		if ps.Built() != 1 {
			t.Errorf("%s: built=%d, want 1", mode, ps.Built())
		}
	}
}

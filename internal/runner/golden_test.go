package runner

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"morrigan/internal/core"
	"morrigan/internal/machine"
	"morrigan/internal/sampling"
	"morrigan/internal/sim"
	"morrigan/internal/workloads"
)

// updateGolden regenerates testdata/golden_stats.json from the current
// simulator. The full-run entry was captured before sampling existed, so a
// passing TestFullRunStatsGolden proves full (non-sampled) runs still produce
// bit-identical Stats.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenRun is one job's entry in testdata/golden_stats.json, which maps a
// golden job's name to its result.
type goldenRun struct {
	Stats    sim.Stats         `json:"stats"`
	Sampling *sampling.Outcome `json:"sampling,omitempty"`
}

// goldenJob is the fixed job the golden tests pin: the default Table 1
// machine on qmm-srv-01 at a small, fast scale.
func goldenJob(t *testing.T) Job {
	t.Helper()
	w, ok := workloads.ByName("qmm-srv-01")
	if !ok {
		t.Fatal("workload qmm-srv-01 not found")
	}
	return Job{
		Workload:  "qmm-srv-01",
		Machine:   machine.Default(),
		Workloads: []workloads.Spec{w},
		Warmup:    50_000,
		Measure:   200_000,
	}
}

// goldenJobKey is goldenJob's canonical key as derived before the sampling
// subsystem landed. Job.Key for full (non-sampled) jobs must never drift:
// every persisted journal, result store and fabric campaign identifies
// results by it.
const goldenJobKey = "1700cc429492e6e54d072a516759a0c971e8763077ba39e3e3c6b4020aafb5b7"

func TestJobKeyGolden(t *testing.T) {
	key, keyed := goldenJob(t).Key()
	if !keyed {
		t.Fatal("golden job is unkeyed")
	}
	if key != goldenJobKey {
		t.Errorf("canonical job key drifted:\n got  %s\n want %s\n"+
			"full-run keys must be bit-identical across releases (persisted journals and stores depend on it)",
			key, goldenJobKey)
	}
}

// TestFullRunStatsGolden locks the full (non-sampled) execution path to the
// pre-sampling Stats, bit for bit.
func TestFullRunStatsGolden(t *testing.T) {
	checkRunGolden(t, "full", goldenJob(t))
}

// TestSampledRunStatsGolden pins a sampled Morrigan job on qmm-srv-01: the
// profiling pass, the clustering, the fast-forwards between slices and the
// extrapolation all feed its Stats and outcome.
func TestSampledRunStatsGolden(t *testing.T) {
	j := goldenJob(t)
	j.Machine.Prefetcher = machine.Morrigan(core.DefaultConfig())
	j.Sampling = &sampling.Policy{Interval: 10_000, Clusters: 4, SliceWarmup: 2_500, Seed: 1}
	checkRunGolden(t, "sampled-morrigan", j)
}

// checkRunGolden runs j and compares its result with the golden file's
// entry under name, or with -update-golden rewrites that entry.
func checkRunGolden(t *testing.T, name string, j Job) {
	t.Helper()
	results, err := Run(context.Background(), []Job{j}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	got := goldenRun{Stats: results[0].Stats, Sampling: results[0].Sampling}

	path := filepath.Join("testdata", "golden_stats.json")
	runs := map[string]goldenRun{}
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, &runs)
	}
	if *updateGolden {
		if err != nil {
			runs = map[string]goldenRun{}
		}
		runs[name] = got
		raw, err := json.MarshalIndent(runs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s to %s", name, path)
		return
	}
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	want, ok := runs[name]
	if !ok {
		t.Fatalf("golden file has no %q entry (regenerate with -update-golden)", name)
	}
	if got.Stats != want.Stats {
		t.Errorf("%s Stats drifted from the golden file:\n got  %+v\n want %+v", name, got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Sampling, want.Sampling) {
		t.Errorf("%s sampling outcome drifted from the golden file:\n got  %+v\n want %+v", name, got.Sampling, want.Sampling)
	}
}

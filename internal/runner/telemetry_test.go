package runner

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"morrigan/internal/core"
	"morrigan/internal/machine"
	"morrigan/internal/sim"
	"morrigan/internal/telemetry"
	"morrigan/internal/workloads"
)

// readSeries parses a telemetry file and returns the sum of every d_* field
// over its sample lines, and each sample's position (its "instructions").
func readSeries(t *testing.T, path string) (sums map[string]uint64, at []uint64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines, err := telemetry.ParseJSONL(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if iv := lines[0]["interval"]; iv != float64(sim.ProgressInterval) {
		t.Errorf("%s: header interval %v, want %d", path, iv, sim.ProgressInterval)
	}
	sums = map[string]uint64{}
	for _, l := range lines {
		switch l["kind"] {
		case telemetry.KindSample:
			at = append(at, uint64(l["instructions"].(float64)))
			for k, v := range l {
				if strings.HasPrefix(k, "d_") {
					sums[k] += uint64(v.(float64))
				}
			}
		case telemetry.KindHeader, telemetry.KindSummary:
		default:
			t.Errorf("%s: unexpected line kind %v", path, l["kind"])
		}
	}
	return sums, at
}

// checkAxis requires one sample per progress interval of the measurement
// window plus a shorter last one. A warmup report that became a sample
// would shift the axis; the sums alone cannot show it, since consecutive
// differences telescope to the last report whatever the first one was.
func checkAxis(t *testing.T, name string, at []uint64, measure uint64) {
	t.Helper()
	var want []uint64
	for n := uint64(sim.ProgressInterval); ; n += sim.ProgressInterval {
		want = append(want, min(n, measure))
		if n >= measure {
			break
		}
	}
	if !slices.Equal(at, want) {
		t.Errorf("%s: samples at %v, want %v", name, at, want)
	}
}

// checkSumsMatchStats requires every d_* field that Stats also reports to sum
// to the Stats value, and late ≤ used == PB hits.
func checkSumsMatchStats(t *testing.T, name string, sums map[string]uint64, st sim.Stats) {
	t.Helper()
	want := map[string]uint64{
		"d_instructions":       st.Instructions,
		"d_cycles":             uint64(st.Cycles),
		"d_l1i_misses":         st.L1IMisses,
		"d_itlb_misses":        st.ITLBMisses,
		"d_istlb_accesses":     st.ISTLBAccesses,
		"d_istlb_misses":       st.ISTLBMisses,
		"d_pb_hits":            st.PBHits,
		"d_prefetch_used":      st.PBHits,
		"d_prefetch_issued":    st.PrefetchesIssued,
		"d_prefetch_discarded": st.PrefetchesDiscarded,
		"d_prefetch_walks":     st.PrefetchWalks,
		"d_demand_iwalks":      st.DemandIWalks,
		"d_demand_dwalks":      st.DemandDWalks,
		"d_dropped_walks":      st.DroppedWalks,
	}
	for field, w := range want {
		if got := sums[field]; got != w {
			t.Errorf("%s: %s sums to %d, Stats has %d", name, field, got, w)
		}
	}
	if sums["d_prefetch_late"] > sums["d_prefetch_used"] {
		t.Errorf("%s: d_prefetch_late %d > d_prefetch_used %d", name, sums["d_prefetch_late"], sums["d_prefetch_used"])
	}
}

// TestCampaignTelemetryFiles: a campaign with telemetry attached writes one
// parseable JSONL file per job whose samples sum to the job's Stats, records
// the path in Result and Record, and leaves simulation statistics
// bit-identical to a run without telemetry.
func TestCampaignTelemetryFiles(t *testing.T) {
	jobs := testJobs(4)
	dir := t.TempDir()
	plain, err := Run(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	results, err := Run(context.Background(), jobs, Options{
		Workers:   2,
		Telemetry: &TelemetryOptions{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}

	for i, res := range results {
		if res.TelemetryPath == "" {
			t.Fatalf("job %d: no telemetry path", i)
		}
		sums, at := readSeries(t, res.TelemetryPath)
		checkSumsMatchStats(t, res.Job.Name(), sums, res.Stats)
		checkAxis(t, res.Job.Name(), at, res.Job.Measure)
		if res.Stats != plain[i].Stats {
			t.Fatalf("job %d: stats diverge under telemetry", i)
		}
		if rec := NewRecord(res); rec.Telemetry != res.TelemetryPath {
			t.Fatalf("job %d: record telemetry %q", i, rec.Telemetry)
		}
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(jobs) {
		t.Fatalf("%d telemetry files for %d jobs", len(ents), len(jobs))
	}
}

// TestTelemetrySamplesSumToStats: each job's series covers its measurement
// window exactly — one sample per progress interval plus a shorter last one,
// summing to the job's Stats — whether the warmup ends before the first
// progress report or after it, under P2TLB and for an SMT pair.
func TestTelemetrySamplesSumToStats(t *testing.T) {
	qmm := workloads.QMM()
	morrigan := machine.Default()
	morrigan.Prefetcher = machine.Morrigan(core.DefaultConfig())
	p2tlb := morrigan
	p2tlb.PrefetchIntoSTLB = true
	job := func(name string, m machine.Spec, warmup, measure uint64, ws ...workloads.Spec) Job {
		return Job{Experiment: "telemetry", Config: name, Workload: ws[0].Name, Machine: m, Workloads: ws, Warmup: warmup, Measure: measure}
	}
	jobs := []Job{
		job("warmup-below-interval", morrigan, 50_000, 200_000, qmm[0]),
		job("warmup-above-interval", morrigan, 100_000, 150_000, qmm[6]),
		job("p2tlb", p2tlb, 50_000, 300_000, qmm[4]),
		job("smt", morrigan, 30_000, 150_000, qmm[2], qmm[18]),
	}
	results, err := Run(context.Background(), jobs, Options{Workers: 2, Telemetry: &TelemetryOptions{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		name := res.Job.Config
		sums, at := readSeries(t, res.TelemetryPath)
		checkSumsMatchStats(t, name, sums, res.Stats)
		checkAxis(t, name, at, res.Job.Measure)
		if sums["d_prefetch_installed"] == 0 {
			t.Errorf("%s: no prefetch installed", name)
		}
	}
}

// TestTelemetryPathNaming: file names are job-ordered, sanitized, and
// collision-free even for identically named jobs.
func TestTelemetryPathNaming(t *testing.T) {
	topt := &TelemetryOptions{Dir: "out"}
	j := Job{Experiment: "fig15", Config: "Morrigan 2x", Workload: "qmm/srv:07"}
	got := topt.telemetryPath(3, j)
	want := filepath.Join("out", "003-fig15_Morrigan_2x_qmm_srv_07.jsonl")
	if got != want {
		t.Fatalf("path = %q, want %q", got, want)
	}
	if a, b := topt.telemetryPath(0, j), topt.telemetryPath(1, j); a == b {
		t.Fatal("same-name jobs collide")
	}
}

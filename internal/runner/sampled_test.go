package runner

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"morrigan/internal/machine"
	"morrigan/internal/sampling"
	"morrigan/internal/workloads"
)

// sampledTestJob builds one small single-workload job in sampled mode.
func sampledTestJob() Job {
	w := workloads.QMM()[0]
	return Job{
		Experiment: "test",
		Config:     "sampled",
		Workload:   w.Name,
		Machine:    machine.Default(),
		Workloads:  []workloads.Spec{w},
		Warmup:     5_000,
		Measure:    20_000,
		Sampling:   &sampling.Policy{Interval: 2_000, Clusters: 4, SliceWarmup: 500, Seed: 1},
	}
}

func TestSampledKeyDivergesFromFull(t *testing.T) {
	j := sampledTestJob()
	sampled, ok := j.Key()
	if !ok {
		t.Fatal("sampled job unkeyed")
	}
	full := j
	full.Sampling = nil
	fullKey, ok := full.Key()
	if !ok {
		t.Fatal("full job unkeyed")
	}
	if sampled == fullKey {
		t.Fatal("sampled and full jobs share a key — a full-run result could satisfy a sampled job")
	}

	// Every policy field is identity: changing it must change the key.
	for name, mutate := range map[string]func(*sampling.Policy){
		"interval":    func(p *sampling.Policy) { p.Interval = 4_000 },
		"clusters":    func(p *sampling.Policy) { p.Clusters = 2 },
		"slicewarmup": func(p *sampling.Policy) { p.SliceWarmup = 1_000 },
		"seed":        func(p *sampling.Policy) { p.Seed = 2 },
	} {
		mutated := sampledTestJob()
		mutate(mutated.Sampling)
		k, _ := mutated.Key()
		if k == sampled {
			t.Errorf("changing policy %s did not change the job key", name)
		}
	}

	if k2, _ := sampledTestJob().Key(); k2 != sampled {
		t.Error("sampled key not deterministic")
	}
	// A stored record re-derives the key Job.Key gave, and the policy is
	// part of that derivation.
	rec := NewStoredRecord(sampled, Result{Job: j, Sampling: &sampling.Outcome{Policy: *j.Sampling}})
	if !rec.Verified() {
		t.Error("a sampled record does not re-derive Job.Key")
	}
	rec.Sampling = nil
	if rec.Verified() {
		t.Error("a sampled key verified without its policy")
	}
	rec.Key = fullKey
	if !rec.Verified() {
		t.Error("a full-run record does not re-derive the full-run key")
	}
}

// TestSampledRunEndToEnd: a sampled job through Run() produces an outcome
// whose bookkeeping is internally consistent, and the extrapolated Stats
// cover the full measurement window.
func TestSampledRunEndToEnd(t *testing.T) {
	j := sampledTestJob()
	results, err := Run(context.Background(), []Job{j}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	o := res.Sampling
	if o == nil {
		t.Fatal("sampled result carries no outcome")
	}
	if o.Policy != *j.Sampling {
		t.Errorf("outcome policy %+v, want %+v", o.Policy, *j.Sampling)
	}
	if want := int(j.Measure / j.Sampling.Interval); o.Intervals != want {
		t.Errorf("intervals = %d, want %d", o.Intervals, want)
	}
	if o.Slices <= 0 || o.Slices > j.Sampling.Clusters {
		t.Errorf("slices = %d, want 1..%d", o.Slices, j.Sampling.Clusters)
	}
	maxTimed := uint64(o.Slices) * (j.Sampling.Interval + j.Sampling.SliceWarmup)
	if o.TimedInstructions == 0 || o.TimedInstructions > maxTimed {
		t.Errorf("timed = %d, want 1..%d", o.TimedInstructions, maxTimed)
	}
	if res.Stats.Instructions != j.Measure {
		t.Errorf("extrapolated Instructions = %d, want the %d-instruction window", res.Stats.Instructions, j.Measure)
	}
	if res.Stats.IPC <= 0 {
		t.Errorf("extrapolated IPC = %g", res.Stats.IPC)
	}
	// SimInstructions must reflect only timed work, so sampled throughput
	// figures are not inflated by fast-forwarding.
	if res.SimInstructions != o.TimedInstructions {
		t.Errorf("SimInstructions = %d, want timed %d", res.SimInstructions, o.TimedInstructions)
	}
}

func TestSampledRunDeterministic(t *testing.T) {
	jobs := []Job{sampledTestJob()}
	a, err := Run(context.Background(), jobs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), jobs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a[0].Stats, b[0].Stats) {
		t.Error("sampled stats differ across identical runs")
	}
	if !reflect.DeepEqual(a[0].Sampling, b[0].Sampling) {
		t.Error("sampled outcomes differ across identical runs")
	}
}

// TestSampledJournalRoundTrip: a journaled sampled result resumes with its
// outcome intact, keyed by the sampled (not the full-run) identity.
func TestSampledJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	jobs := []Job{sampledTestJob()}
	first := runJournaled(t, path, jobs, false, 1)
	if first[0].Err != nil {
		t.Fatal(first[0].Err)
	}

	second := runJournaled(t, path, jobs, true, 1)
	if second[0].Reused != ReusedJournal {
		t.Fatalf("Reused = %q, want %q", second[0].Reused, ReusedJournal)
	}
	if !reflect.DeepEqual(first[0].Stats, second[0].Stats) {
		t.Error("resumed sampled stats differ")
	}
	if second[0].Sampling == nil || !reflect.DeepEqual(first[0].Sampling, second[0].Sampling) {
		t.Error("sampled outcome lost or changed across the journal round trip")
	}

	// The journal entry must NOT satisfy the same job run unsampled.
	full := jobs[0]
	full.Sampling = nil
	fullRes := runJournaled(t, path, []Job{full}, true, 1)
	if fullRes[0].Reused == ReusedJournal {
		t.Error("full-run job served from a sampled journal entry")
	}
	if fullRes[0].Sampling != nil {
		t.Error("full-run result carries a sampling outcome")
	}
}

func TestSampledRejectsIneligibleJobs(t *testing.T) {
	qmm := workloads.QMM()
	j := sampledTestJob()
	j.Workloads = []workloads.Spec{qmm[0], qmm[1]} // SMT pair
	results, err := Run(context.Background(), []Job{j}, Options{Workers: 1})
	if err == nil {
		t.Fatal("multi-workload sampled job accepted")
	}
	if results[0].Err == nil {
		t.Fatal("job error not reported")
	}
}

// TestSampledAccuracy is the acceptance harness: on a paper-suite workload at
// harness scale, the sampled run's 95% confidence intervals must contain the
// full run's IPC and instruction-STLB MPKI while timing at least 10x fewer
// instructions.
func TestSampledAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-instruction accuracy harness")
	}
	w, _ := workloads.ByName("qmm-srv-01")
	full := Job{
		Experiment: "accuracy", Config: "full", Workload: w.Name,
		Machine:   machine.Default(),
		Workloads: []workloads.Spec{w},
		Warmup:    100_000,
		Measure:   4_000_000,
	}
	sampled := full
	sampled.Config = "sampled"
	sampled.Sampling = &sampling.Policy{Interval: 40_000, Clusters: 8, SliceWarmup: 10_000, Seed: 1}

	results, err := Run(context.Background(), []Job{full, sampled}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	f, s := results[0], results[1]
	o := s.Sampling
	if o == nil {
		t.Fatal("no sampling outcome")
	}

	if d := math.Abs(f.Stats.IPC - s.Stats.IPC); d > o.CI95.IPC {
		t.Errorf("full IPC %.4f outside sampled %.4f ± %.4f", f.Stats.IPC, s.Stats.IPC, o.CI95.IPC)
	}
	if d := math.Abs(f.Stats.ISTLBMPKI - s.Stats.ISTLBMPKI); d > o.CI95.ISTLBMPKI {
		t.Errorf("full iSTLB MPKI %.4f outside sampled %.4f ± %.4f", f.Stats.ISTLBMPKI, s.Stats.ISTLBMPKI, o.CI95.ISTLBMPKI)
	}
	if o.TimedInstructions*10 > f.SimInstructions {
		t.Errorf("timed %d instructions — less than 10x below the full run's %d", o.TimedInstructions, f.SimInstructions)
	}
	t.Logf("full IPC %.4f vs sampled %.4f ± %.4f; full iSTLB %.4f vs %.4f ± %.4f; timed %d of %d (%.1fx)",
		f.Stats.IPC, s.Stats.IPC, o.CI95.IPC,
		f.Stats.ISTLBMPKI, s.Stats.ISTLBMPKI, o.CI95.ISTLBMPKI,
		o.TimedInstructions, f.SimInstructions, float64(f.SimInstructions)/float64(o.TimedInstructions))
}

// TestProgressTrackerETAWarmStore is the warm-store ETA regression test: jobs
// served from the journal or result store finish instantly and must not enter
// the throughput estimate, or a mostly-warm campaign's ETA collapses toward
// zero while the remaining cold jobs still run in full.
func TestProgressTrackerETAWarmStore(t *testing.T) {
	var events []Event
	p := newProgressTracker(4, func(e Event) { events = append(events, e) })
	p.started = time.Now().Add(-8 * time.Second)

	// Two warm hits (free) and one executed job in the first 8 seconds.
	p.done(Result{Job: Job{Workload: "a"}, Reused: ReusedStore})
	p.done(Result{Job: Job{Workload: "b"}, Reused: ReusedJournal})
	p.done(Result{Job: Job{Workload: "c"}})

	// One job remains; the only executed job took ~8s, so the honest ETA is
	// ~8s. Counting the two free jobs would report ~2.7s.
	e := events[len(events)-1]
	if e.ETA < 7*time.Second || e.ETA > 9*time.Second {
		t.Fatalf("warm-store ETA = %v, want ~8s (reused jobs leaked into the throughput estimate)", e.ETA)
	}

	// All-reused prefix: no executed job yet means no estimate, not a zero
	// division or a nonsense value.
	var events2 []Event
	p2 := newProgressTracker(3, func(e Event) { events2 = append(events2, e) })
	p2.started = time.Now().Add(-4 * time.Second)
	p2.done(Result{Job: Job{Workload: "a"}, Reused: ReusedCache})
	p2.done(Result{Job: Job{Workload: "b"}, Reused: ReusedStore})
	for _, e := range events2 {
		if e.ETA != 0 {
			t.Fatalf("ETA = %v with no executed jobs, want 0 (unknown)", e.ETA)
		}
	}
}

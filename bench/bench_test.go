package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestQuartiles(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{7}, 7, 7},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{2.5, 0.5, 1.5, 4, 3, 10}, 1.25, 5.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if q1, q3 := quartiles(nil); !math.IsNaN(q1) || !math.IsNaN(q3) {
		t.Errorf("quartiles(nil) = %v, %v; want NaN", q1, q3)
	}
}

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{5}, 50, 5},
		{[]float64{5}, 99, 5},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{1, 2, 3, 4}, 0, 1},
		{[]float64{1, 2, 3, 4}, 100, 4},
		{[]float64{1, 2, 3, 4}, 99, 3.97},
		{[]float64{10, 20, 30, 40, 50}, 25, 20},
		{[]float64{10, 20, 30, 40, 50}, 90, 46},
	} {
		if got := percentile(tc.xs, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v; want %v", tc.xs, tc.p, got, tc.want)
		}
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median(nil) = %v; want NaN", got)
	}
}

func TestAttributeCPU(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "pprof_traces.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := attributeCPU(f)
	if err != nil {
		t.Fatal(err)
	}
	// math/rand under the generator is trace; the arch helper frame is
	// skipped for the tlb constructor that called it; the GC worker and
	// the benchmark's own code are go-runtime.
	want := map[string]float64{
		"trace": 10e6, "sim": 20e6, "cache": 30e6, "go-runtime": 20e6,
		"tlb": 10e6, "core": 1500e6, "tlbprefetch": 0.25e6, "ptw": 200e6,
	}
	var total float64
	for l, v := range got {
		total += v
		if math.Abs(v-want[l]) > 1e-3 {
			t.Errorf("%s = %v ns; want %v", l, v, want[l])
		}
	}
	for l := range want {
		if _, ok := got[l]; !ok {
			t.Errorf("layer %s missing", l)
		}
	}
	if math.Abs(total-1790.25e6) > 1e-3 {
		t.Errorf("attributed %v ns; want the profile's 1790.25ms", total)
	}
	if _, err := attributeCPU(bytes.NewBufferString("-----------+---\n  10xs  f\n")); err == nil {
		t.Error("bad sample value accepted")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "minstr_per_cpu_s", Better: "higher", Bound: 0.1}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}
	s := func(med, q1, q3 float64) summary { return summary{Median: med, Q1: q1, Q3: q3} }
	for _, tc := range []struct {
		m    metricDef
		a, b summary
		want string
	}{
		{lower, s(10, 9.9, 10.1), s(10.5, 10.4, 10.6), "ok"},
		{lower, s(10, 9.9, 10.1), s(11.5, 11.4, 11.6), "worse"},
		{lower, s(10, 9.9, 10.1), s(8.5, 8.4, 8.6), "better"},
		{lower, s(10, 9, 11.5), s(12, 11.9, 12.1), "unresolved"},
		{higher, s(10, 9.9, 10.1), s(8.5, 8.4, 8.6), "worse"},
		{higher, s(10, 9.9, 10.1), s(11.5, 11.4, 11.6), "better"},
		// Process-start jitter is within set-up's half-second slack...
		{setup, s(0.002, 0.0015, 0.003), s(0.003, 0.002, 0.004), "ok"},
		// ...but a long set-up is held to its relative bound.
		{setup, s(4, 3.9, 4.1), s(5.2, 5.1, 5.3), "worse"},
	} {
		if got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v -> %v: %s; want %s", tc.m.Better, tc.a, tc.b, got, tc.want)
		}
	}
}

// TestSmoke runs every workload at smoke scale in this process, traced,
// and checks that the run is correct and that every BENCHMARK.json metric
// is emitted and finite.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	bm, err := openBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	o := options{seed: 1, trace: true, scale: "smoke", outdir: dir}
	var stdout, stderr bytes.Buffer
	if code := driveWith(context.Background(), o, bm, inProcess, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}

	var final finalLine
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &final); err != nil {
		t.Fatal(err)
	}
	if !final.Correct || final.Failed != 0 || final.Attempted == 0 {
		t.Errorf("final line: correct %v, %d of %d failed", final.Correct, final.Failed, final.Attempted)
	}

	raw, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res resultFile
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	measured := map[string]bool{}
	for _, bw := range bm.Workloads {
		wr := res.Workloads[bw.Name]
		if wr == nil {
			t.Fatalf("workload %s missing from the result file", bw.Name)
		}
		if wr.Digest == "" || !wr.Correct {
			t.Errorf("%s: digest %q, correct %v, failed checks %v", bw.Name, wr.Digest, wr.Correct, wr.Checks)
		}
		for _, m := range bm.EndToEnd {
			s, ok := wr.Metrics[m.Name]
			if !ok || !isFinite(s.Median) || !isFinite(s.Q1) || !isFinite(s.Q3) || s.N < minRepeats {
				t.Errorf("%s: end-to-end %s = %+v", bw.Name, m.Name, s)
			}
		}
		for _, m := range bm.PerLayer {
			v, ok := final.Metrics[bw.Name+"/"+m.Name]
			if !ok || !isFinite(v.Value) || v.Unit != m.Unit {
				t.Errorf("%s: per-layer %s = %+v, emitted %v", bw.Name, m.Name, v, ok)
			}
			if _, ok := wr.Layers[m.Name]; ok {
				measured[m.Name] = true
			}
		}
	}
	for _, m := range bm.PerLayer {
		if !measured[m.Name] {
			t.Errorf("per-layer %s is measured on no workload", m.Name)
		}
	}
}

// TestRepeatChecks asserts that each workload's own checks run.
func TestRepeatChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	want := map[string][]string{
		"fig15-full":   {"morrigan_top_coverage", "pb_hits_bounded"},
		"sampled-long": {"pb_hits_bounded"},
		"colo-8way":    {"pb_hits_bounded"},
		"sweep-short":  {"rerun_tables_identical", "rerun_simulates_no_keyed_job", "pb_hits_bounded"},
	}
	for name, checks := range want {
		r, err := runRepeat(repeatArgs{Workload: name, Scale: "smoke", Seed: 2, WorkRoot: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ran := map[string]bool{}
		for _, c := range r.Checks {
			ran[c.Name] = true
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", name, c.Name, c.Detail)
			}
		}
		for _, c := range checks {
			if !ran[c] {
				t.Errorf("%s: check %s did not run", name, c)
			}
		}
		if r.Jobs == 0 || r.Instructions == 0 || r.Digest == "" {
			t.Errorf("%s: %d jobs, %d instructions, digest %q", name, r.Jobs, r.Instructions, r.Digest)
		}
	}
}

package runner

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"morrigan/internal/sampling"
	"morrigan/internal/spans"
)

// TestTracingDoesNotChangeStats is the tracing purity check: attaching a span
// recorder must leave every job's statistics bit-identical. Tracing is an
// inert observer, exactly like Options.Observer.
func TestTracingDoesNotChangeStats(t *testing.T) {
	jobs := testJobs(4)
	plain, err := Run(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := spans.NewRecorder("")
	traced, err := Run(context.Background(), jobs, Options{Workers: 2, Spans: rec})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if !reflect.DeepEqual(plain[i].Stats, traced[i].Stats) {
			t.Errorf("job %d: stats differ with tracing attached", i)
		}
	}
	if rec.Len() == 0 {
		t.Fatal("traced run recorded no spans")
	}
}

// TestTraceSpansCoverLifecycle runs a traced campaign and checks every job
// contributes an execute span (keyed by its canonical JobKey) plus the
// phase spans underneath it, all with sane clocks.
func TestTraceSpansCoverLifecycle(t *testing.T) {
	jobs := testJobs(3)
	rec := spans.NewRecorder("local")
	if _, err := Run(context.Background(), jobs, Options{Workers: 2, Spans: rec}); err != nil {
		t.Fatal(err)
	}

	byTrace := map[string]map[string]spans.Span{}
	for _, sp := range rec.Spans() {
		if sp.StartNS < 0 || sp.DurNS < 0 {
			t.Errorf("span %s/%s has negative clock: start=%d dur=%d", sp.TraceID, sp.Name, sp.StartNS, sp.DurNS)
		}
		if sp.Worker != "local" {
			t.Errorf("span %s/%s worker = %q, want recorder's", sp.TraceID, sp.Name, sp.Worker)
		}
		m := byTrace[sp.TraceID]
		if m == nil {
			m = map[string]spans.Span{}
			byTrace[sp.TraceID] = m
		}
		m[sp.Name] = sp
	}

	for i, j := range jobs {
		key, keyed := j.Key()
		if !keyed {
			t.Fatalf("job %d unexpectedly unkeyed", i)
		}
		phases, ok := byTrace[key]
		if !ok {
			t.Errorf("job %d: no spans under trace id %s", i, key)
			continue
		}
		for _, name := range []string{"execute", "build", "threads", "simulate"} {
			if _, ok := phases[name]; !ok {
				t.Errorf("job %d: missing %q span (have %v)", i, name, spanNames(phases))
			}
		}
		exec := phases["execute"]
		if exec.Attrs["ok"] != "true" {
			t.Errorf("job %d: execute span ok attr = %q", i, exec.Attrs["ok"])
		}
		if want := fmt.Sprint(j.Warmup + j.Measure); exec.Attrs["instructions"] != want {
			t.Errorf("job %d: execute span instructions attr = %q, want %s", i, exec.Attrs["instructions"], want)
		}
		for _, name := range []string{"build", "simulate"} {
			sp := phases[name]
			if sp.StartNS < exec.StartNS || sp.End() > exec.End() {
				t.Errorf("job %d: %s span [%d,%d] escapes execute [%d,%d]",
					i, name, sp.StartNS, sp.End(), exec.StartNS, exec.End())
			}
		}
	}
}

// TestTraceSampledJob checks sampled executions carry all four sample.* phase
// spans and the execute span reports the sampled slice count.
func TestTraceSampledJob(t *testing.T) {
	jobs := testJobs(1)
	// A warmup longer than the slice warmup leaves a gap to fast-forward
	// before the first representative.
	jobs[0].Warmup = 50_000
	jobs[0].Measure = 200_000
	jobs[0].Sampling = &sampling.Policy{Interval: 50_000, Clusters: 2, SliceWarmup: 10_000, Seed: 1}
	rec := spans.NewRecorder("")
	if _, err := Run(context.Background(), jobs, Options{Workers: 1, Spans: rec}); err != nil {
		t.Fatal(err)
	}

	var sawExec bool
	phases := map[string]bool{}
	for _, sp := range rec.Spans() {
		switch {
		case sp.Name == "execute":
			sawExec = true
			if sp.Attrs["sampled_slices"] == "" || sp.Attrs["sampled_slices"] == "0" {
				t.Errorf("execute span sampled_slices = %q, want > 0", sp.Attrs["sampled_slices"])
			}
		case strings.HasPrefix(sp.Name, "sample."):
			phases[sp.Name] = true
		}
	}
	if !sawExec {
		t.Error("no execute span in sampled run")
	}
	for _, name := range []string{"sample.fastforward", "sample.settle", "sample.slicewarmup", "sample.measure"} {
		if !phases[name] {
			t.Errorf("no %s span in sampled run (have %v)", name, allNames(rec))
		}
	}
}

func spanNames(m map[string]spans.Span) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	return names
}

func allNames(rec *spans.Recorder) []string {
	var names []string
	for _, sp := range rec.Spans() {
		names = append(names, sp.Name)
	}
	return names
}

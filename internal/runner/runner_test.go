package runner

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"morrigan/internal/core"
	"morrigan/internal/machine"
	"morrigan/internal/sim"
	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

// testJobs enumerates n small simulations over distinct workloads and
// configurations, as pure data (machine spec + workload specs) so each job
// carries a canonical identity.
func testJobs(n int) []Job {
	qmm := workloads.QMM()
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		w := qmm[i%len(qmm)]
		m := machine.Default()
		if i%2 == 1 {
			m.Prefetcher = machine.Morrigan(core.DefaultConfig())
		}
		jobs[i] = Job{
			Experiment: "test",
			Config:     fmt.Sprintf("cfg%d", i%2),
			Workload:   w.Name,
			Machine:    m,
			Workloads:  []workloads.Spec{w},
			Warmup:     5_000,
			Measure:    20_000,
		}
	}
	return jobs
}

// TestRunDeterministicAcrossWorkers is the campaign-level determinism and
// concurrency-safety check: the same jobs run serially and over a pool of
// four workers (concurrent simulations, exercised under -race) must produce
// bit-identical statistics in the same order.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	jobs := testJobs(6)
	serial, err := Run(context.Background(), jobs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), jobs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(jobs) || len(parallel) != len(jobs) {
		t.Fatalf("result counts: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range jobs {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("job %d errs: serial %v, parallel %v", i, serial[i].Err, parallel[i].Err)
		}
		if !reflect.DeepEqual(serial[i].Stats, parallel[i].Stats) {
			t.Errorf("job %d: stats differ between serial and parallel runs", i)
		}
	}
}

func TestRunPanicIsolation(t *testing.T) {
	jobs := testJobs(3)
	jobs[1].Config = "boom"
	jobs[1].Instrument = func(*sim.Config) { panic("synthetic failure") }
	results, err := Run(context.Background(), jobs, Options{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("campaign err = %v, want the panicking job's error", err)
	}
	if !strings.Contains(results[1].Err.Error(), "synthetic failure") {
		t.Errorf("job 1 err = %v, want captured panic", results[1].Err)
	}
	if !strings.Contains(results[1].Err.Error(), "runner_test.go") {
		t.Errorf("job 1 err lacks a stack trace: %v", results[1].Err)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Errorf("job %d failed alongside the panic: %v", i, results[i].Err)
		}
		if results[i].Stats.Instructions == 0 {
			t.Errorf("job %d has empty stats", i)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := testJobs(4)
	results, err := Run(ctx, jobs, Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("campaign err = %v, want context.Canceled", err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	for i, res := range results {
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("job %d err = %v, want context.Canceled", i, res.Err)
		}
	}
}

func TestRunPerJobTimeout(t *testing.T) {
	jobs := testJobs(1)
	jobs[0].Measure = 50_000_000 // far beyond what 1ns allows
	results, err := Run(context.Background(), jobs, Options{Workers: 1, Timeout: time.Nanosecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("campaign err = %v, want context.DeadlineExceeded", err)
	}
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Errorf("job err = %v, want context.DeadlineExceeded", results[0].Err)
	}
}

func TestRunEmptyAndNilContext(t *testing.T) {
	//lint:ignore SA1012 nil ctx is part of Run's documented contract
	results, err := Run(nil, nil, Options{})
	if err != nil || len(results) != 0 {
		t.Fatalf("empty campaign = %v, %v", results, err)
	}
}

func TestJobName(t *testing.T) {
	cases := []struct {
		job  Job
		want string
	}{
		{Job{Experiment: "fig15", Config: "Morrigan", Workload: "qmm-srv-07"}, "fig15/Morrigan/qmm-srv-07"},
		{Job{Experiment: "fig2", Workload: "cassandra"}, "fig2/cassandra"},
		{Job{Experiment: "table1"}, "table1"},
	}
	for _, c := range cases {
		if got := c.job.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestWriterProgress(t *testing.T) {
	if WriterProgress(nil) != nil {
		t.Error("WriterProgress(nil) should disable progress")
	}
	var buf bytes.Buffer
	jobs := testJobs(3)
	if _, err := Run(context.Background(), jobs, Options{Workers: 2, Progress: WriterProgress(&buf)}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(jobs) {
		t.Fatalf("got %d progress lines, want %d:\n%s", len(lines), len(jobs), buf.String())
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "[") || !strings.Contains(line, "/3] test/") || !strings.Contains(line, " ok (") {
			t.Errorf("malformed progress line %q", line)
		}
	}
	if !strings.Contains(buf.String(), "[3/3]") {
		t.Errorf("final line should report 3/3:\n%s", buf.String())
	}
}

func TestCampaignJSON(t *testing.T) {
	jobs := testJobs(2)
	jobs[1].Instrument = func(*sim.Config) { panic("broken") }
	results, _ := Run(context.Background(), jobs, Options{Workers: 1})

	var rec Recorder
	rec.Add(results)
	if rec.Len() != 2 {
		t.Fatalf("Len = %d", rec.Len())
	}
	var buf bytes.Buffer
	c := rec.Campaign()
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Campaign
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Schema != SchemaVersion {
		t.Errorf("schema = %d, want %d", decoded.Schema, SchemaVersion)
	}
	if len(decoded.Records) != 2 {
		t.Fatalf("records = %d", len(decoded.Records))
	}
	ok, failed := decoded.Records[0], decoded.Records[1]
	if ok.Error != "" || ok.Stats == nil || ok.Stats.Instructions != jobs[0].Measure {
		t.Errorf("ok record = %+v", ok)
	}
	if failed.Error == "" || failed.Stats != nil {
		t.Errorf("failed record should carry the error and no stats: %+v", failed)
	}
	if ok.Experiment != "test" || ok.Workload != jobs[0].Workload || ok.Measure != jobs[0].Measure {
		t.Errorf("record identity = %+v", ok)
	}
}

func TestCampaignCSV(t *testing.T) {
	jobs := testJobs(2)
	jobs[1].Instrument = func(*sim.Config) { panic("broken") }
	results, _ := Run(context.Background(), jobs, Options{Workers: 1})

	var rec Recorder
	rec.Add(results)
	var buf bytes.Buffer
	c := rec.Campaign()
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d CSV rows, want header + 2", len(rows))
	}
	header := rows[0]
	for _, want := range []string{"experiment", "workload", "elapsed_ms", "Instructions", "Cycles", "PBHits"} {
		found := false
		for _, h := range header {
			if h == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("CSV header missing %q", want)
		}
	}
	for i, row := range rows[1:] {
		if len(row) != len(header) {
			t.Errorf("row %d has %d cells, header has %d", i, len(row), len(header))
		}
	}
	if rows[2][6] == "" { // error column of the failed job
		t.Error("failed job's error column is empty")
	}
}

// mapStore is an in-memory ResultStore.
type mapStore struct {
	mu sync.Mutex
	m  map[string]Stored
}

func (s *mapStore) Lookup(key string) (Stored, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.m[key]
	return st, ok
}

func (s *mapStore) Put(key string, res Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = Stored{Stats: res.Stats, Sampling: res.Sampling}
	return nil
}

// TestShortStreamFailsUnstored: a workload-described job whose stream ends
// before Measure instructions fails, and no reuse layer keeps its result
// under the key that promises the full window.
func TestShortStreamFailsUnstored(t *testing.T) {
	job := testJobs(1)[0]
	recs, err := trace.Slice(job.Workloads[0].NewReader(), 1_000)
	if err != nil {
		t.Fatal(err)
	}
	jn, err := OpenJournal(filepath.Join(t.TempDir(), "run.journal"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	store := &mapStore{m: map[string]Stored{}}
	cache := NewResultCache()
	results, err := Run(context.Background(), []Job{job}, Options{
		Journal: jn,
		Store:   store,
		Cache:   cache,
		NewReader: func(workloads.Spec) (trace.Reader, error) {
			return &trace.SliceReader{Records: recs}, nil
		},
	})
	want := fmt.Sprintf("trace ended after 0 of %d measured instructions", job.Measure)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run error = %v, want one containing %q", err, want)
	}
	if results[0].Err == nil {
		t.Error("the short job's result carries no error")
	}
	if jn.Len() != 0 || len(store.m) != 0 || len(cache.entries) != 0 {
		t.Errorf("short result kept: %d journaled, %d stored, %d cached", jn.Len(), len(store.m), len(cache.entries))
	}
}

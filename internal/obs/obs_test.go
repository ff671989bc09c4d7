package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"morrigan/internal/arch"
	"morrigan/internal/core"
	"morrigan/internal/machine"
	"morrigan/internal/runner"
	"morrigan/internal/sampling"
	"morrigan/internal/sim"
	"morrigan/internal/telemetry"
	"morrigan/internal/workloads"
)

// testJobs enumerates n small simulations over distinct workloads, as pure
// data (machine spec + workload specs).
func testJobs(n int) []runner.Job {
	qmm := workloads.QMM()
	jobs := make([]runner.Job, n)
	for i := 0; i < n; i++ {
		w := qmm[i%len(qmm)]
		m := machine.Default()
		if i%2 == 1 {
			m.Prefetcher = machine.Morrigan(core.DefaultConfig())
		}
		jobs[i] = runner.Job{
			Experiment: "obs",
			Config:     fmt.Sprintf("cfg%d", i%2),
			Workload:   w.Name,
			Machine:    m,
			Workloads:  []workloads.Spec{w},
			Warmup:     5_000,
			Measure:    50_000,
		}
	}
	return jobs
}

// get fetches a path from the test server and returns the body.
func get(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestMetricsExposition scrapes /metrics during and after a live campaign:
// the output must be valid exposition format, carry the campaign and host
// families, and keep its counters monotone across scrapes.
func TestMetricsExposition(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Scrape mid-campaign from a competing goroutine (exercised under -race).
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				resp, err := ts.Client().Get(ts.URL + "/metrics")
				if err != nil {
					t.Errorf("mid-campaign scrape: %v", err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("mid-campaign scrape read: %v", err)
					return
				}
				if err := ValidateExposition(strings.NewReader(string(body))); err != nil {
					t.Errorf("mid-campaign exposition: %v", err)
					return
				}
			}
		}
	}()

	if _, err := runner.Run(context.Background(), testJobs(4), runner.Options{Workers: 2, Observer: srv}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-scraped

	body := get(t, ts, "/metrics")
	if err := ValidateExposition(strings.NewReader(string(body))); err != nil {
		t.Fatalf("final exposition invalid: %v\n%s", err, body)
	}
	first, err := ParseExposition(strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"morrigan_campaign_jobs", "morrigan_campaign_jobs_done_total",
		"morrigan_campaign_jobs_failed_total", "morrigan_campaign_eta_seconds",
		"morrigan_campaign_instructions_total",
		"morrigan_host_heap_alloc_bytes", "morrigan_host_goroutines",
		"morrigan_scrapes_total",
	} {
		if _, ok := first[name]; !ok {
			t.Errorf("metric %s missing from exposition", name)
		}
	}
	if got := first["morrigan_campaign_jobs_done_total"]; got != 4 {
		t.Errorf("jobs_done_total = %v, want 4", got)
	}
	if got := first["morrigan_campaign_jobs_failed_total"]; got != 0 {
		t.Errorf("jobs_failed_total = %v, want 0", got)
	}
	if first["morrigan_campaign_instructions_total"] <= 0 {
		t.Error("instructions_total not positive after a completed campaign")
	}

	// Counter monotonicity across scrapes.
	second, err := ParseExposition(strings.NewReader(string(get(t, ts, "/metrics"))))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"morrigan_campaign_jobs_done_total", "morrigan_campaign_jobs_failed_total",
		"morrigan_campaign_instructions_total", "morrigan_campaign_elapsed_seconds",
		"morrigan_campaign_job_seconds_total", "morrigan_host_gc_total",
		"morrigan_host_gc_pause_seconds_total", "morrigan_scrapes_total",
	} {
		if second[name] < first[name] {
			t.Errorf("counter %s went backwards across scrapes: %v -> %v", name, first[name], second[name])
		}
	}
	if second["morrigan_scrapes_total"] != first["morrigan_scrapes_total"]+1 {
		t.Errorf("scrapes_total: %v then %v, want +1", first["morrigan_scrapes_total"], second["morrigan_scrapes_total"])
	}
}

// progress builds one progress report: executed instructions in total and
// the measured counters since the last stats reset.
func progress(executed, instr, cycles, istlbMisses, dstlbMisses, pbHits uint64) sim.Progress {
	return sim.Progress{
		Counters: telemetry.Sample{
			Instructions: instr, Cycles: arch.Cycle(cycles),
			ISTLBMisses: istlbMisses, DSTLBMisses: dstlbMisses, PBHits: pbHits,
		},
		Executed: executed,
	}
}

// scrape parses one /metrics exposition.
func scrape(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	vals, err := ParseExposition(strings.NewReader(string(get(t, ts, "/metrics"))))
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// TestPerJobGauges drives the observer surface directly with hand-made
// progress reports and asserts the per-job series and their label sets
// appear while the job is active and disappear after it finishes.
func TestPerJobGauges(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	job := runner.Job{Experiment: "obs", Config: "live", Workload: "wl-1"}
	srv.CampaignStarted(1)
	srv.JobStarted(0, job)
	srv.JobProgress(0, progress(220_000, 200_000, 100_000, 400, 100, 100))

	vals := scrape(t, ts)
	series := `{index="0",job="obs/live/wl-1"}`
	if got := vals["morrigan_job_instructions"+series]; got != 220_000 {
		t.Errorf("job instructions = %v, want the executed 220000", got)
	}
	if got := vals["morrigan_job_cycles"+series]; got != 100_000 {
		t.Errorf("job cycles = %v, want 100000", got)
	}
	if got := vals["morrigan_job_ipc"+series]; got != 2 {
		t.Errorf("job ipc = %v, want 2", got)
	}
	if got := vals["morrigan_job_istlb_mpki"+series]; got != 2 {
		t.Errorf("job istlb_mpki = %v, want 2", got)
	}
	if got := vals["morrigan_job_dstlb_mpki"+series]; got != 0.5 {
		t.Errorf("job dstlb_mpki = %v, want 0.5", got)
	}
	if got := vals["morrigan_job_pb_hit_rate"+series]; got != 0.25 {
		t.Errorf("job pb_hit_rate = %v, want 0.25", got)
	}

	srv.JobFinished(0, runner.Result{Job: job, SimInstructions: 250_000})
	vals = scrape(t, ts)
	if _, ok := vals["morrigan_job_instructions"+series]; ok {
		t.Error("per-job series still exposed after JobFinished")
	}
	if got := vals["morrigan_campaign_instructions_total"]; got != 250_000 {
		t.Errorf("instructions_total = %v, want the finished job's 250000", got)
	}
}

// TestInstructionsTotalAcrossReset drives one job's progress across its
// warmup/measure boundary, where the measured counters restart, and then
// finishes it. morrigan_campaign_instructions_total follows the executed
// total: it never decreases and ends at the result's SimInstructions.
func TestInstructionsTotalAcrossReset(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	job := runner.Job{Experiment: "obs", Config: "reset", Workload: "wl-2"}
	series := `{index="0",job="obs/reset/wl-2"}`
	srv.CampaignStarted(1)
	srv.JobStarted(0, job)
	steps := []struct {
		p          sim.Progress
		wantCycles float64
	}{
		{progress(65_536, 65_536, 90_000, 0, 0, 0), 90_000},
		{progress(100_000, 100_000, 140_000, 0, 0, 0), 140_000}, // end of warmup
		{progress(165_536, 65_536, 80_000, 0, 0, 0), 80_000},    // measured counters restarted
		{progress(300_000, 200_000, 250_000, 0, 0, 0), 250_000}, // end of measurement
	}
	last := 0.0
	for i, step := range steps {
		srv.JobProgress(0, step.p)
		vals := scrape(t, ts)
		got := vals["morrigan_campaign_instructions_total"]
		if got < last {
			t.Errorf("step %d: instructions_total fell from %v to %v", i, last, got)
		}
		if got != float64(step.p.Executed) {
			t.Errorf("step %d: instructions_total = %v, want the executed %d", i, got, step.p.Executed)
		}
		if c := vals["morrigan_job_cycles"+series]; c != step.wantCycles {
			t.Errorf("step %d: job cycles = %v, want %v", i, c, step.wantCycles)
		}
		last = got
	}
	srv.JobFinished(0, runner.Result{Job: job, SimInstructions: 300_000})
	if got := scrape(t, ts)["morrigan_campaign_instructions_total"]; got != 300_000 {
		t.Errorf("instructions_total after JobFinished = %v, want SimInstructions 300000", got)
	}
}

// TestSamplingRunCounters checks the morrigan_sampling_* run counters count
// finished sampled results that simulated, and ignore reused and full-run
// ones.
func TestSamplingRunCounters(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	out := &sampling.Outcome{TimedInstructions: 100, FastForwarded: 900}
	srv.CampaignStarted(4)
	srv.JobFinished(0, runner.Result{Sampling: out})
	srv.JobFinished(1, runner.Result{Sampling: out})
	srv.JobFinished(2, runner.Result{Sampling: out, Reused: runner.ReusedStore})
	srv.JobFinished(3, runner.Result{SimInstructions: 5_000})
	vals := scrape(t, ts)
	for name, want := range map[string]float64{
		"morrigan_sampling_runs_total":                       2,
		"morrigan_sampling_timed_instructions_total":         200,
		"morrigan_sampling_fastforwarded_instructions_total": 1_800,
	} {
		if got := vals[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestCampaignStatus checks the /campaign JSON document.
func TestCampaignStatus(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, err := runner.Run(context.Background(), testJobs(3), runner.Options{Workers: 3, Observer: srv}); err != nil {
		t.Fatal(err)
	}
	var st struct {
		Schema     int `json:"schema"`
		JobsTotal  int `json:"jobs_total"`
		JobsDone   int `json:"jobs_done"`
		JobsFailed int `json:"jobs_failed"`
		Recent     []struct {
			Name        string  `json:"name"`
			OK          bool    `json:"ok"`
			InstrPerSec float64 `json:"instr_per_sec"`
		} `json:"recent"`
	}
	body := get(t, ts, "/campaign")
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Schema != 2 || statusSchemaVersion != 2 {
		t.Errorf("schema = %d (statusSchemaVersion %d), want 2", st.Schema, statusSchemaVersion)
	}
	// Schema 2's exact top-level keys: adding a key leaves the schema as it
	// is, removing one bumps it, and either updates this list.
	var top map[string]json.RawMessage
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(top))
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	wantKeys := []string{"active", "elapsed_seconds", "eta_seconds", "instructions", "jobs_active",
		"jobs_done", "jobs_failed", "jobs_total", "recent", "schema", "sse_dropped_events"}
	if !reflect.DeepEqual(keys, wantKeys) {
		t.Errorf("/campaign keys = %v, want %v", keys, wantKeys)
	}
	if st.JobsTotal != 3 || st.JobsDone != 3 || st.JobsFailed != 0 {
		t.Errorf("totals = %d/%d/%d, want 3/3/0", st.JobsTotal, st.JobsDone, st.JobsFailed)
	}
	if len(st.Recent) != 3 {
		t.Fatalf("recent has %d entries, want 3", len(st.Recent))
	}
	for _, r := range st.Recent {
		if !r.OK || r.InstrPerSec <= 0 {
			t.Errorf("recent job %s: ok=%v instr_per_sec=%v", r.Name, r.OK, r.InstrPerSec)
		}
	}
}

// TestETACountsSimulatedJobs checks that reused jobs, which finish
// instantly, do not enter the ETA's rate: of 10 jobs, 8 served from the
// store and 1 simulated in the first 10 s leave 1 job and an ETA of 10 s,
// the runner's estimate, not 10 s spread over 9 finished jobs.
func TestETACountsSimulatedJobs(t *testing.T) {
	srv := New()
	srv.CampaignStarted(10)
	for i := 0; i < 8; i++ {
		srv.JobFinished(i, runner.Result{Job: runner.Job{Workload: fmt.Sprint("w", i)}, Reused: "store"})
	}
	srv.JobFinished(8, runner.Result{Job: runner.Job{Workload: "w8"}, Elapsed: 10 * time.Second})
	now := time.Now()
	srv.mu.Lock()
	srv.started = now.Add(-10 * time.Second)
	got := srv.eta(now)
	srv.mu.Unlock()
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("eta = %.3f s, want 10 s", got)
	}
}

func TestHealthz(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if got := string(get(t, ts, "/healthz")); got != "ok\n" {
		t.Errorf("healthz = %q, want ok", got)
	}
}

// TestObserverDoesNotPerturbResults is the acceptance check that attaching
// the observability server is purely observational: the same campaign run
// with and without an attached server must produce byte-identical statistics.
func TestObserverDoesNotPerturbResults(t *testing.T) {
	jobs := testJobs(4)
	plain, err := runner.Run(context.Background(), jobs, runner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	done := make(chan struct{})
	go func() { // scrape concurrently to maximise interference opportunity
		defer close(done)
		for i := 0; i < 50; i++ {
			resp, err := ts.Client().Get(ts.URL + "/metrics")
			if err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	observed, err := runner.Run(context.Background(), jobs, runner.Options{Workers: 2, Observer: srv})
	if err != nil {
		t.Fatal(err)
	}
	<-done

	for i := range jobs {
		a, err := json.Marshal(plain[i].Stats)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(observed[i].Stats)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("job %d: stats differ with observer attached:\n  plain:    %s\n  observed: %s", i, a, b)
		}
		if !reflect.DeepEqual(plain[i].Stats, observed[i].Stats) {
			t.Errorf("job %d: stats structs differ with observer attached", i)
		}
	}
}

// TestStartAndClose exercises the real listener path (':0' port binding).
func TestStartAndClose(t *testing.T) {
	srv := New()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz over real listener: status %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr.String() + "/healthz"); err == nil {
		t.Error("server still reachable after Close")
	}
}

// TestExpositionFile validates an exposition scraped by an external process
// (the CI smoke step): set METRICS_FILE to a file captured with curl.
func TestExpositionFile(t *testing.T) {
	path := os.Getenv("METRICS_FILE")
	if path == "" {
		t.Skip("METRICS_FILE not set (CI smoke helper)")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := ValidateExposition(f); err != nil {
		t.Fatalf("exposition in %s invalid: %v", path, err)
	}
}

package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"morrigan/internal/machine"
	"morrigan/internal/resultstore"
	"morrigan/internal/runner"
	"morrigan/internal/sim"
	"morrigan/internal/tracestore"
	"morrigan/internal/workloads"
)

// fabricJobs builds n keyed jobs with distinct canonical keys (the measure
// window varies) at a scale small enough for test campaigns.
func fabricJobs(n int) []runner.Job {
	qmm := workloads.QMM()
	jobs := make([]runner.Job, n)
	for i := range jobs {
		spec := qmm[i%len(qmm)]
		jobs[i] = runner.Job{
			Experiment: "fabrictest",
			Config:     fmt.Sprintf("cfg%d", i),
			Workload:   spec.Name,
			Machine:    machine.Default(),
			Workloads:  []workloads.Spec{spec},
			Warmup:     5_000,
			Measure:    uint64(20_000 + 1_000*i),
		}
	}
	return jobs
}

// startFabric mounts a coordinator on an httptest server and launches workers
// against it. The returned stop function cancels the workers and waits for
// their clean exit before the server and coordinator shut down.
func startFabric(t *testing.T, coord *Coordinator, workers ...*Worker) (base string, stop func()) {
	t.Helper()
	srv := httptest.NewServer(coord.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, w := range workers {
		w.base = srv.URL
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker run: %v", err)
			}
		}(w)
	}
	return srv.URL, func() {
		cancel()
		wg.Wait()
		srv.Close()
		coord.Close()
	}
}

func newTestWorker(t *testing.T, name string, opt WorkerOptions) *Worker {
	t.Helper()
	opt.Coordinator = "http://placeholder" // overwritten by startFabric
	opt.Name = name
	if opt.PollWait == 0 {
		opt.PollWait = 500 * time.Millisecond
	}
	w, err := NewWorker(opt)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestFabricDistributedEquivalence is the core acceptance check: a campaign
// delegated to two fabric workers produces bit-identical stats to the same
// jobs simulated in-process.
func TestFabricDistributedEquivalence(t *testing.T) {
	jobs := fabricJobs(6)
	local, err := runner.Run(context.Background(), jobs, runner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	coord := NewCoordinator(CoordinatorOptions{})
	_, stop := startFabric(t, coord,
		newTestWorker(t, "w1", WorkerOptions{}),
		newTestWorker(t, "w2", WorkerOptions{}))
	defer stop()

	remote, err := runner.Run(context.Background(), jobs, runner.Options{Workers: 4, Remote: coord})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if remote[i].Err != nil {
			t.Fatalf("job %d failed over the fabric: %v", i, remote[i].Err)
		}
		if remote[i].Stats != local[i].Stats {
			t.Errorf("job %d: fabric stats differ from the in-process run", i)
		}
	}
	st := coord.Status()
	if st.JobsDone != len(jobs) || st.JobsPending != 0 || st.JobsLeased != 0 {
		t.Errorf("status = %+v, want %d done and nothing outstanding", st, len(jobs))
	}
	if st.Workers != 2 {
		t.Errorf("status counted %d workers, want 2", st.Workers)
	}
}

// TestFabricWorkerKilledMidCampaign kills one of two workers while the
// campaign is in flight. Its leased job expires and is reassigned, and the
// merged results are still bit-identical to an in-process run.
func TestFabricWorkerKilledMidCampaign(t *testing.T) {
	jobs := fabricJobs(8)
	local, err := runner.Run(context.Background(), jobs, runner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 150 * time.Millisecond})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	defer coord.Close()

	victimCtx, killVictim := context.WithCancel(context.Background())
	defer killVictim()
	victim := newTestWorker(t, "victim", WorkerOptions{})
	victim.base = srv.URL
	victimDone := make(chan struct{})
	go func() {
		defer close(victimDone)
		if err := victim.Run(victimCtx); err != nil {
			t.Errorf("victim run: %v", err)
		}
	}()

	campaignDone := make(chan struct{})
	var remote []runner.Result
	var remoteErr error
	go func() {
		defer close(campaignDone)
		remote, remoteErr = runner.Run(context.Background(), jobs, runner.Options{Workers: 4, Remote: coord})
	}()

	// Kill the victim once the campaign is demonstrably in flight: at least
	// one job finished, more still outstanding. If the victim races through
	// everything first the kill degenerates to a no-op, so keep the check
	// tight with a short poll interval.
	killed := false
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		st := coord.Status()
		if st.JobsDone >= 1 && st.JobsDone < len(jobs) {
			killVictim()
			killed = true
			break
		}
		if st.JobsDone == len(jobs) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	<-victimDone

	// The survivor joins after the kill and must finish the campaign alone,
	// picking up the victim's expired lease.
	survivorCtx, stopSurvivor := context.WithCancel(context.Background())
	defer stopSurvivor()
	survivor := newTestWorker(t, "survivor", WorkerOptions{})
	survivor.base = srv.URL
	survivorDone := make(chan struct{})
	go func() {
		defer close(survivorDone)
		if err := survivor.Run(survivorCtx); err != nil {
			t.Errorf("survivor run: %v", err)
		}
	}()

	select {
	case <-campaignDone:
	case <-time.After(60 * time.Second):
		t.Fatalf("campaign did not finish after worker kill; status %+v", coord.Status())
	}
	stopSurvivor()
	<-survivorDone

	if remoteErr != nil {
		t.Fatal(remoteErr)
	}
	for i := range jobs {
		if remote[i].Err != nil {
			t.Fatalf("job %d failed: %v", i, remote[i].Err)
		}
		if remote[i].Stats != local[i].Stats {
			t.Errorf("job %d: stats differ from the in-process run after worker kill", i)
		}
	}
	if !killed {
		t.Log("victim finished the campaign before the kill window; reassignment not exercised this run")
	}
}

// TestFabricWarmStoreRerun: a distributed campaign backed by a result store
// populates it; a rerun of the same jobs against a coordinator with NO
// workers completes entirely from the store — zero jobs cross the wire.
func TestFabricWarmStoreRerun(t *testing.T) {
	dir := t.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs := fabricJobs(4)

	coord := NewCoordinator(CoordinatorOptions{})
	_, stop := startFabric(t, coord, newTestWorker(t, "w1", WorkerOptions{}))
	first, err := runner.Run(context.Background(), jobs, runner.Options{Workers: 2, Remote: coord, Store: store})
	stop()
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != len(jobs) {
		t.Fatalf("store holds %d results after the campaign, want %d", store.Len(), len(jobs))
	}

	// Fresh process: reopen the store, fresh coordinator, no workers at all.
	// If any job reached the fabric the run would stall until the timeout.
	reopened, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	idle := NewCoordinator(CoordinatorOptions{})
	defer idle.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	second, err := runner.Run(ctx, jobs, runner.Options{Workers: 2, Remote: idle, Store: reopened})
	if err != nil {
		t.Fatal(err)
	}
	for i := range second {
		if second[i].Reused != runner.ReusedStore {
			t.Errorf("job %d: Reused = %q, want %q", i, second[i].Reused, runner.ReusedStore)
		}
		if second[i].Stats != first[i].Stats {
			t.Errorf("job %d: store-served stats differ from the fabric run", i)
		}
	}
	if st := idle.Status(); st.JobsDone+st.JobsPending+st.JobsLeased != 0 {
		t.Errorf("warm rerun sent jobs to the fabric: %+v", st)
	}
}

// postJSON is a bare HTTP client for driving the protocol directly.
func postJSON(t *testing.T, url string, body any, dst any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if dst != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestFabricLeaseExpiryAndMismatch drives the protocol over raw HTTP: a
// worker leases a job and goes silent; after the TTL the job is re-leased to
// another worker whose submission wins; the original straggler's differing
// late submission is discarded and flagged as a mismatch.
func TestFabricLeaseExpiryAndMismatch(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 50 * time.Millisecond})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	defer coord.Close()

	job := fabricJobs(1)[0]
	key, ok := job.Key()
	if !ok {
		t.Fatal("test job has no key")
	}
	resCh := make(chan runner.Result, 1)
	go func() {
		res, err := coord.ExecuteRemote(context.Background(), job, key, nil)
		if err != nil {
			t.Error(err)
		}
		resCh <- res
	}()

	// Worker one leases and never heartbeats.
	var l1 leaseResponse
	for {
		status := postJSON(t, srv.URL+"/fabric/lease", leaseRequest{Worker: "silent", WaitMS: 1000}, &l1)
		if status == http.StatusOK {
			break
		}
		if status != http.StatusNoContent {
			t.Fatalf("lease status %d", status)
		}
	}
	if l1.Key != key {
		t.Fatalf("leased key %.12s, want %.12s", l1.Key, key)
	}

	// After the TTL the lease expires and the job is re-leased.
	time.Sleep(100 * time.Millisecond)
	var l2 leaseResponse
	status := postJSON(t, srv.URL+"/fabric/lease", leaseRequest{Worker: "heir", WaitMS: 2000}, &l2)
	if status != http.StatusOK {
		t.Fatalf("re-lease status %d, want 200", status)
	}
	if l2.Key != key || l2.LeaseID == l1.LeaseID {
		t.Fatalf("re-lease = %+v, want the same key under a new lease", l2)
	}

	// The silent worker's original lease is now Gone.
	if status := postJSON(t, srv.URL+"/fabric/heartbeat", heartbeatRequest{LeaseID: l1.LeaseID}, nil); status != http.StatusGone {
		t.Errorf("stale heartbeat status %d, want 410", status)
	}
	// The heir's lease heartbeats fine.
	if status := postJSON(t, srv.URL+"/fabric/heartbeat", heartbeatRequest{LeaseID: l2.LeaseID}, nil); status != http.StatusOK {
		t.Errorf("live heartbeat status %d, want 200", status)
	}

	// The heir submits; its result wins and unblocks the campaign.
	win := wireResult{Stats: sim.Stats{Instructions: 42}, SimInstructions: 42}
	var sub submitResponse
	if status := postJSON(t, srv.URL+"/fabric/submit", submitRequest{Worker: "heir", LeaseID: l2.LeaseID, Key: key, Result: win}, &sub); status != http.StatusOK {
		t.Fatalf("submit status %d", status)
	}
	if !sub.Accepted || sub.Duplicate {
		t.Fatalf("winning submit response %+v", sub)
	}
	res := <-resCh
	if res.Err != nil || res.Stats.Instructions != 42 {
		t.Fatalf("campaign received %+v, want the heir's stats", res)
	}

	// The straggler reappears with DIFFERENT stats: discarded, flagged.
	lose := wireResult{Stats: sim.Stats{Instructions: 43}, SimInstructions: 43}
	sub = submitResponse{}
	if status := postJSON(t, srv.URL+"/fabric/submit", submitRequest{Worker: "silent", LeaseID: l1.LeaseID, Key: key, Result: lose}, &sub); status != http.StatusOK {
		t.Fatalf("straggler submit status %d", status)
	}
	if sub.Accepted || !sub.Duplicate || !sub.Mismatch {
		t.Errorf("straggler submit response %+v, want duplicate+mismatch", sub)
	}

	st := coord.Status()
	if st.LeaseExpirations < 1 || st.DuplicateSubmits != 1 || st.MismatchSubmits != 1 {
		t.Errorf("status counters %+v, want >=1 expiration, 1 duplicate, 1 mismatch", st)
	}
}

// TestFabricCorpusFetch: a worker with an empty local tracestore fetches the
// coordinator's materialised containers by workload hash, and the resulting
// stats match a live-generated in-process run.
func TestFabricCorpusFetch(t *testing.T) {
	coordStore, err := tracestore.Open(tracestore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer coordStore.Close()
	workerStore, err := tracestore.Open(tracestore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer workerStore.Close()

	jobs := fabricJobs(2)
	local, err := runner.Run(context.Background(), jobs, runner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	coord := NewCoordinator(CoordinatorOptions{Corpus: coordStore})
	_, stop := startFabric(t, coord, newTestWorker(t, "w1", WorkerOptions{Corpus: workerStore}))
	defer stop()

	remote, err := runner.Run(context.Background(), jobs, runner.Options{Workers: 2, Remote: coord})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if remote[i].Err != nil {
			t.Fatalf("job %d failed: %v", i, remote[i].Err)
		}
		if remote[i].Stats != local[i].Stats {
			t.Errorf("job %d: corpus-fed stats differ from the live-generated run", i)
		}
	}
	if st := coord.Status(); st.CorpusServed == 0 {
		t.Error("coordinator served no corpus containers")
	}
	// The worker's store now holds every workload the jobs referenced.
	man := workerStore.Manifest()
	for i, j := range jobs {
		for _, spec := range j.Workloads {
			e, ok := man.Entries[spec.Hash()]
			if !ok {
				t.Errorf("job %d: workload %s missing from the worker store after fetch", i, spec.Name)
				continue
			}
			if e.Records < j.Warmup+j.Measure {
				t.Errorf("job %d: fetched container holds %d records, want >= %d", i, e.Records, j.Warmup+j.Measure)
			}
		}
	}
}

// TestFabricCoordinatorCloseUnblocks: closing the coordinator fails every
// unresolved job so campaign goroutines blocked in ExecuteRemote return.
func TestFabricCoordinatorCloseUnblocks(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	job := fabricJobs(1)[0]
	key, _ := job.Key()
	errCh := make(chan error, 1)
	go func() {
		res, err := coord.ExecuteRemote(context.Background(), job, key, nil)
		if err != nil {
			errCh <- err
			return
		}
		errCh <- res.Err
	}()
	// Let the goroutine enqueue before closing.
	for {
		if st := coord.Status(); st.JobsPending == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("pending job resolved without error on coordinator close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ExecuteRemote still blocked after coordinator close")
	}
	// New work is refused after close.
	if _, err := coord.ExecuteRemote(context.Background(), job, key, nil); err == nil {
		t.Fatal("ExecuteRemote accepted work after close")
	}
}

// TestWorkerProtocolMismatch drives a worker against a fake coordinator that
// grants leases under protocol 1. Retrying cannot fix a version skew, so Run
// must return an error naming both versions at once, without running the
// job: no heartbeat, no submission.
func TestWorkerProtocolMismatch(t *testing.T) {
	job := fabricJobs(1)[0]
	key, _ := job.Key()
	var mu sync.Mutex
	leases, others := 0, 0
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if r.URL.Path != "/fabric/lease" {
			others++
			http.NotFound(w, r)
			return
		}
		leases++
		writeJSON(w, http.StatusOK, leaseResponse{
			Protocol: 1,
			LeaseID:  fmt.Sprintf("l%d", leases),
			Key:      key,
			Job:      encodeJob(job),
			TTLMS:    30_000,
		})
	}))
	defer fake.Close()

	w, err := NewWorker(WorkerOptions{Coordinator: fake.URL, Name: "w1", PollWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err = w.Run(ctx)
	if err == nil {
		t.Fatal("Run returned nil against a protocol-1 coordinator, want a protocol error")
	}
	if ctx.Err() != nil {
		t.Errorf("Run returned only when its 2 s context ended: %v", err)
	}
	for _, want := range []string{"protocol 1", fmt.Sprintf("worker %d", ProtocolVersion)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Run error %q does not name %q", err, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if leases != 1 || others != 0 || w.JobsRun() != 0 {
		t.Errorf("worker made %d lease and %d other requests and ran %d jobs, want 1, 0 and 0", leases, others, w.JobsRun())
	}
}

// TestFabricHealthEndpoints: liveness always answers ok; readiness flips once
// a campaign attaches.
func TestFabricHealthEndpoints(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", got)
	}
	if got := get("/healthz/live"); got != http.StatusOK {
		t.Errorf("/healthz/live = %d, want 200", got)
	}
	if got := get("/healthz/ready"); got != http.StatusServiceUnavailable {
		t.Errorf("/healthz/ready before attach = %d, want 503", got)
	}

	job := fabricJobs(1)[0]
	key, _ := job.Key()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		coord.ExecuteRemote(ctx, job, key, nil)
	}()
	for {
		if st := coord.Status(); st.JobsPending == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := get("/healthz/ready"); got != http.StatusOK {
		t.Errorf("/healthz/ready after attach = %d, want 200", got)
	}
	cancel()
	<-done
}

// TestFabricJobWireRoundTrip: a job survives the wire encoding with its
// canonical key intact — the property the worker's key re-derivation check
// (and the whole content-addressed design) rests on.
func TestFabricJobWireRoundTrip(t *testing.T) {
	for i, j := range fabricJobs(3) {
		key, ok := j.Key()
		if !ok {
			t.Fatalf("job %d has no key", i)
		}
		raw, err := json.Marshal(encodeJob(j))
		if err != nil {
			t.Fatal(err)
		}
		var wj wireJob
		if err := json.Unmarshal(raw, &wj); err != nil {
			t.Fatal(err)
		}
		back := decodeJob(wj)
		got, ok := back.Key()
		if !ok || got != key {
			t.Errorf("job %d: key %.12s after round trip, want %.12s", i, got, key)
		}
		if back.Experiment != j.Experiment || back.Config != j.Config || back.Workload != j.Workload {
			t.Errorf("job %d: display fields lost on the wire", i)
		}
	}
}

package fabric

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"morrigan/internal/runner"
	"morrigan/internal/spans"
)

// TestFabricTraceAssembly runs a traced two-worker campaign in which every
// process keeps its own recorder, as `experiments -fabric -trace-out` and
// `fabric work -trace-out` do. The workers' recorders hold exactly one
// execute span per job between them; the coordinator's holds a lease.wait
// and a lease span per job and no worker span; every trace id is a job key;
// and — the inertness half — the merged stats are bit-identical to an
// untraced in-process run.
func TestFabricTraceAssembly(t *testing.T) {
	jobs := fabricJobs(5)
	local, err := runner.Run(context.Background(), jobs, runner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	rec := spans.NewRecorder("coordinator")
	workerRecs := map[string]*spans.Recorder{"w1": spans.NewRecorder("w1"), "w2": spans.NewRecorder("w2")}
	coord := NewCoordinator(CoordinatorOptions{Spans: rec})
	_, stop := startFabric(t, coord,
		newTestWorker(t, "w1", WorkerOptions{Spans: workerRecs["w1"]}),
		newTestWorker(t, "w2", WorkerOptions{Spans: workerRecs["w2"]}))
	defer stop()

	remote, err := runner.Run(context.Background(), jobs,
		runner.Options{Workers: 4, Remote: coord, Spans: rec})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if remote[i].Err != nil {
			t.Fatalf("job %d failed over the fabric: %v", i, remote[i].Err)
		}
		if remote[i].Stats != local[i].Stats {
			t.Errorf("job %d: traced fabric stats differ from the untraced in-process run", i)
		}
	}

	keys := map[string]bool{}
	for _, j := range jobs {
		k, ok := j.Key()
		if !ok {
			t.Fatal("fabric test job has no key")
		}
		keys[k] = true
	}
	executes := map[string]int{}
	for name, wr := range workerRecs {
		for _, sp := range wr.Spans() {
			if !keys[sp.TraceID] {
				t.Errorf("%s span %s has trace id %.12s… that is no job key", name, sp.Name, sp.TraceID)
			}
			if sp.Worker != name {
				t.Errorf("%s recorded a span for worker %q", name, sp.Worker)
			}
			if sp.Name == "execute" {
				executes[sp.TraceID]++
			}
		}
	}
	coordPhases := map[string]map[string]int{}
	for _, sp := range rec.Spans() {
		if !keys[sp.TraceID] {
			t.Errorf("coordinator span %s has trace id %.12s… that is no job key", sp.Name, sp.TraceID)
			continue
		}
		if _, ok := workerRecs[sp.Worker]; ok || sp.Name == "execute" {
			t.Errorf("coordinator recorder holds worker span %s from %q", sp.Name, sp.Worker)
		}
		if coordPhases[sp.TraceID] == nil {
			coordPhases[sp.TraceID] = map[string]int{}
		}
		coordPhases[sp.TraceID][sp.Name]++
	}
	for k := range keys {
		if executes[k] != 1 {
			t.Errorf("job %.12s… has %d execute spans across the workers, want 1", k, executes[k])
		}
		for _, name := range []string{"lease.wait", "lease"} {
			if n := coordPhases[k][name]; n != 1 {
				t.Errorf("job %.12s… has %d coordinator %q spans, want 1", k, n, name)
			}
		}
	}

	// Fleet view: both workers accounted, all leases drained.
	st := coord.Status()
	if len(st.Fleet) != 2 {
		t.Fatalf("fleet has %d workers, want 2", len(st.Fleet))
	}
	done := 0
	for _, fw := range st.Fleet {
		if fw.ActiveLeases != 0 {
			t.Errorf("worker %s still shows %d active leases", fw.Name, fw.ActiveLeases)
		}
		done += fw.JobsDone
	}
	if done != len(jobs) {
		t.Errorf("fleet jobs_done sums to %d, want %d", done, len(jobs))
	}
}

// TestFabricAbandonReason drives a worker against a hostile fake coordinator
// that grants one lease then declares it Gone on the first heartbeat. The
// worker must cancel the job, submit nothing, and record an abandon span whose
// reason is the heartbeat verdict.
func TestFabricAbandonReason(t *testing.T) {
	job := fabricJobs(1)[0]
	job.Measure = 3_000_000 // slow enough that the heartbeat fires mid-job
	key, _ := job.Key()

	var mu sync.Mutex
	granted := false
	submitted := false
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/fabric/lease":
			mu.Lock()
			first := !granted
			granted = true
			mu.Unlock()
			if !first {
				w.WriteHeader(http.StatusNoContent)
				return
			}
			writeJSON(w, http.StatusOK, leaseResponse{
				Protocol: ProtocolVersion,
				LeaseID:  "l1",
				Key:      key,
				Job:      encodeJob(job),
				TTLMS:    300, // heartbeat every 100ms, mid-job but not timeout-tight
			})
		case "/fabric/heartbeat":
			http.Error(w, "gone", http.StatusGone)
		case "/fabric/submit":
			mu.Lock()
			submitted = true
			mu.Unlock()
			writeJSON(w, http.StatusOK, submitResponse{Accepted: true})
		default:
			http.NotFound(w, r)
		}
	}))
	defer fake.Close()

	rec := spans.NewRecorder("w1")
	w, err := NewWorker(WorkerOptions{
		Coordinator: fake.URL,
		Name:        "w1",
		PollWait:    50 * time.Millisecond,
		Spans:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := w.Run(ctx); err != nil {
			t.Errorf("worker run: %v", err)
		}
	}()

	var abandon *spans.Span
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		for _, sp := range rec.Spans() {
			if sp.Name == "abandon" {
				abandon = &sp
				break
			}
		}
		if abandon != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done

	if abandon == nil {
		t.Fatal("worker never recorded an abandon span after losing its lease")
	}
	if abandon.TraceID != key {
		t.Errorf("abandon span trace id %.12s…, want the job key", abandon.TraceID)
	}
	if got := abandon.Attrs["reason"]; got != "lease lost" {
		t.Errorf("abandon reason = %q, want \"lease lost\"", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if submitted {
		t.Error("worker submitted a result for a job it should have abandoned")
	}
}

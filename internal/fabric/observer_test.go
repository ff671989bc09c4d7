package fabric

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"morrigan/internal/runner"
	"morrigan/internal/sim"
)

// lifecycleObserver records the runner.Observer calls a campaign receives.
type lifecycleObserver struct {
	mu    sync.Mutex
	calls []string // "campaign", "started", "progress", "finished", in arrival order
}

func (o *lifecycleObserver) record(call string) {
	o.mu.Lock()
	o.calls = append(o.calls, call)
	o.mu.Unlock()
}

func (o *lifecycleObserver) CampaignStarted(int)            { o.record("campaign") }
func (o *lifecycleObserver) JobStarted(int, runner.Job)     { o.record("started") }
func (o *lifecycleObserver) JobProgress(int, sim.Progress)  { o.record("progress") }
func (o *lifecycleObserver) JobFinished(int, runner.Result) { o.record("finished") }

func (o *lifecycleObserver) snapshot() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return slices.Clone(o.calls)
}

// TestFabricDelegatedJobObserved: a job delegated to a worker counts as
// running in the coordinator-side observer from the moment a worker leases
// it until its result returns, so the live view's jobs_active includes it.
// While it waits in the queue it is not started. Its live counters stay on
// the worker.
func TestFabricDelegatedJobObserved(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	base, stop := startFabric(t, coord) // no worker yet
	defer stop()

	obs := &lifecycleObserver{}
	type outcome struct {
		res []runner.Result
		err error
	}
	ran := make(chan outcome, 1)
	go func() {
		res, err := runner.Run(context.Background(), fabricJobs(1), runner.Options{Workers: 1, Remote: coord, Observer: obs})
		ran <- outcome{res, err}
	}()
	for deadline := time.Now().Add(10 * time.Second); coord.Status().JobsPending != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("job never queued at the coordinator")
		}
	}
	if calls := obs.snapshot(); !slices.Equal(calls, []string{"campaign"}) {
		t.Fatalf("observer calls while queued %v, want [campaign]", calls)
	}

	w := newTestWorker(t, "w1", WorkerOptions{})
	w.base = base
	ctx, cancel := context.WithCancel(context.Background())
	worked := make(chan struct{})
	go func() {
		defer close(worked)
		if err := w.Run(ctx); err != nil {
			t.Errorf("worker run: %v", err)
		}
	}()
	defer func() { cancel(); <-worked }()

	out := <-ran
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res[0].Err != nil {
		t.Fatal(out.res[0].Err)
	}
	if want := []string{"campaign", "started", "finished"}; !slices.Equal(obs.snapshot(), want) {
		t.Fatalf("observer calls %v, want %v", obs.snapshot(), want)
	}
}

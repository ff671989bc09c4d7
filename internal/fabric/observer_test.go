package fabric

import (
	"context"
	"slices"
	"sync"
	"testing"

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

// TestFabricDelegatedJobObserved: a job delegated to a worker counts as
// running in the coordinator-side observer from the moment it is handed
// over until its result returns, so the live view's jobs_active includes
// it. Its live counters stay on the worker.
func TestFabricDelegatedJobObserved(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	_, stop := startFabric(t, coord, newTestWorker(t, "w1", WorkerOptions{}))
	defer stop()

	obs := &lifecycleObserver{}
	res, err := runner.Run(context.Background(), fabricJobs(1), runner.Options{Workers: 1, Remote: coord, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if want := []string{"campaign", "started", "finished"}; !slices.Equal(obs.calls, want) {
		t.Fatalf("observer calls %v, want %v", obs.calls, want)
	}
}

package fabric

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"morrigan/internal/runner"
	"morrigan/internal/sim"
)

// TestFabricDrainWaitsForOutstandingLeases pins the graceful-shutdown
// contract: Drain stops granting leases immediately, but blocks until every
// already-granted lease resolves (by submit or expiry), so no worker's
// in-flight simulation is thrown away.
func TestFabricDrainWaitsForOutstandingLeases(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	defer coord.Close()

	jobs := fabricJobs(2)
	key, ok := jobs[0].Key()
	if !ok {
		t.Fatal("test job has no key")
	}
	resCh := make(chan runner.Result, 1)
	go func() {
		res, err := coord.ExecuteRemote(context.Background(), jobs[0], key, nil)
		if err != nil {
			t.Error(err)
		}
		resCh <- res
	}()

	// A worker leases the job before the drain begins.
	var l leaseResponse
	for {
		status := postJSON(t, srv.URL+"/fabric/lease", leaseRequest{Worker: "w1", WaitMS: 1000}, &l)
		if status == http.StatusOK {
			break
		}
		if status != http.StatusNoContent {
			t.Fatalf("lease status %d", status)
		}
	}

	// Drain must not return while that lease is outstanding.
	drained := make(chan error, 1)
	go func() { drained <- coord.Drain(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("drain returned with a lease outstanding (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}

	// In-flight submissions are still accepted while draining, but no new
	// lease is granted for them.
	key2, _ := jobs[1].Key()
	go func() {
		_, _ = coord.ExecuteRemote(context.Background(), jobs[1], key2, nil) // unblocked by Close
	}()
	time.Sleep(50 * time.Millisecond) // let the second job enqueue
	var l2 leaseResponse
	if status := postJSON(t, srv.URL+"/fabric/lease", leaseRequest{Worker: "w2", WaitMS: 1}, &l2); status != http.StatusNoContent {
		t.Errorf("lease during drain: status %d, want 204 (no job granted)", status)
	}

	// A bounded Drain gives up with an error rather than hanging forever.
	expired, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := coord.Drain(expired); err == nil {
		t.Error("drain with an expired context returned nil, want an error naming the outstanding lease")
	}

	// The worker submits its result: the lease resolves and the original
	// drain completes cleanly.
	win := wireResult{Stats: sim.Stats{Instructions: 7}, SimInstructions: 7}
	var sub submitResponse
	if status := postJSON(t, srv.URL+"/fabric/submit", submitRequest{Worker: "w1", LeaseID: l.LeaseID, Key: key, Result: win}, &sub); status != http.StatusOK {
		t.Fatalf("submit status %d", status)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not complete after the last lease resolved")
	}
	res := <-resCh
	if res.Err != nil || res.Stats.Instructions != 7 {
		t.Fatalf("campaign received %+v, want the drained worker's stats", res)
	}
}

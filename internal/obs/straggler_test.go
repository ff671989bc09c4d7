package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"morrigan/internal/runner"
)

// finishQuickJobs retires n successful jobs with the given elapsed time,
// seeding the straggler detector's duration history.
func finishQuickJobs(srv *Server, n int, elapsed time.Duration) {
	for i := 0; i < n; i++ {
		job := runner.Job{Experiment: "obs", Config: "quick", Workload: "wl"}
		srv.JobStarted(1000+i, job)
		srv.JobFinished(1000+i, runner.Result{Job: job, Elapsed: elapsed})
	}
}

// TestStragglerDetection seeds the detector with fast completed jobs, leaves
// one job running past k× their p95, and asserts it is flagged in /campaign,
// counted in /metrics, and announced exactly once on the SSE stream.
func TestStragglerDetection(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sub, cancel := srv.hub.subscribe()
	defer cancel()

	srv.CampaignStarted(stragglerMinSamples + 1)
	finishQuickJobs(srv, stragglerMinSamples, time.Millisecond)

	slow := runner.Job{Experiment: "obs", Config: "slow", Workload: "wl"}
	srv.JobStarted(0, slow)
	// p95 of four 1ms jobs is 1ms; threshold = 3ms. Outlive it decisively.
	time.Sleep(25 * time.Millisecond)

	var st campaignStatus
	if err := json.Unmarshal(get(t, ts, "/campaign"), &st); err != nil {
		t.Fatal(err)
	}
	wantThreshold := DefaultStragglerK * 0.001
	if diff := st.StragglerThresholdSeconds - wantThreshold; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("straggler_threshold_seconds = %v, want %v", st.StragglerThresholdSeconds, wantThreshold)
	}
	if len(st.Stragglers) != 1 || st.Stragglers[0] != slow.Name() {
		t.Errorf("stragglers = %v, want [%s]", st.Stragglers, slow.Name())
	}
	flagged := 0
	for _, lj := range st.Active {
		if lj.Straggler {
			flagged++
		}
	}
	if flagged != 1 {
		t.Errorf("active jobs flagged = %d, want 1", flagged)
	}

	vals, err := ParseExposition(strings.NewReader(string(get(t, ts, "/metrics"))))
	if err != nil {
		t.Fatal(err)
	}
	if got := vals["morrigan_campaign_stragglers"]; got != 1 {
		t.Errorf("morrigan_campaign_stragglers = %v, want 1", got)
	}
	if got := vals["morrigan_campaign_straggler_threshold_seconds"]; got <= 0 {
		t.Errorf("morrigan_campaign_straggler_threshold_seconds = %v, want > 0", got)
	}

	// A second scrape must not re-announce: the SSE stream carries exactly one
	// "straggler" event for the job.
	get(t, ts, "/campaign")
	srv.JobFinished(0, runner.Result{Job: slow, Elapsed: 30 * time.Millisecond})
	events := 0
	for {
		select {
		case e := <-sub.ch:
			if e.Type == "straggler" {
				ev := e.Data.(stragglerEvent)
				if ev.Index != 0 || ev.Job != slow.Name() || ev.ThresholdSeconds <= 0 || ev.RunningSeconds <= ev.ThresholdSeconds {
					t.Errorf("straggler event = %+v", ev)
				}
				events++
			}
			continue
		default:
		}
		break
	}
	if events != 1 {
		t.Errorf("straggler SSE events = %d, want exactly 1", events)
	}
}

// TestStragglerUnderSampled: with fewer completed jobs than the detector
// needs, the threshold stays 0 and nothing is flagged no matter how long a
// job runs.
func TestStragglerUnderSampled(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.CampaignStarted(stragglerMinSamples)
	finishQuickJobs(srv, stragglerMinSamples-1, time.Microsecond)
	srv.JobStarted(0, runner.Job{Experiment: "obs", Config: "c", Workload: "w"})
	time.Sleep(5 * time.Millisecond)

	var st campaignStatus
	if err := json.Unmarshal(get(t, ts, "/campaign"), &st); err != nil {
		t.Fatal(err)
	}
	if st.StragglerThresholdSeconds != 0 {
		t.Errorf("threshold = %v with %d samples, want 0", st.StragglerThresholdSeconds, stragglerMinSamples-1)
	}
	if len(st.Stragglers) != 0 {
		t.Errorf("stragglers = %v, want none while under-sampled", st.Stragglers)
	}
}

// TestSSEDroppedCounter fills a subscriber's queue without draining it and
// checks the overflow shows up in /campaign and as
// morrigan_sse_dropped_events_total.
func TestSSEDroppedCounter(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, cancel := srv.hub.subscribe()
	defer cancel()
	over := 10
	for i := 0; i < subscriberBuffer+over; i++ {
		srv.hub.publish(event{Type: "job", Data: jobEvent{Job: "w", Index: i, State: "started"}})
	}

	if got := srv.hub.droppedTotal(); got != uint64(over) {
		t.Fatalf("droppedTotal = %d, want %d", got, over)
	}
	var st campaignStatus
	if err := json.Unmarshal(get(t, ts, "/campaign"), &st); err != nil {
		t.Fatal(err)
	}
	if st.SSEDroppedEvents != uint64(over) {
		t.Errorf("/campaign sse_dropped_events = %d, want %d", st.SSEDroppedEvents, over)
	}
	vals, err := ParseExposition(strings.NewReader(string(get(t, ts, "/metrics"))))
	if err != nil {
		t.Fatal(err)
	}
	if got := vals["morrigan_sse_dropped_events_total"]; got != float64(over) {
		t.Errorf("morrigan_sse_dropped_events_total = %v, want %d", got, over)
	}
}

// TestLabeledGaugeSource registers a gauge source whose samples share one
// family across different label sets (the fleet-gauge shape) and checks the
// exposition stays valid — one HELP/TYPE header per family — with every
// labelled sample present.
func TestLabeledGaugeSource(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.AddGaugeSource(func() []Gauge {
		return []Gauge{
			{Name: "morrigan_fleet_worker_jobs_done", Help: "Jobs finished by the worker.", Labels: map[string]string{"worker": "w1"}, Value: 3},
			{Name: "morrigan_fleet_worker_jobs_done", Help: "Jobs finished by the worker.", Labels: map[string]string{"worker": "w2"}, Value: 5},
			{Name: "morrigan_fabric_jobs_pending", Help: "Unleased jobs.", Value: 7},
		}
	})

	body := string(get(t, ts, "/metrics"))
	if err := ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition with labelled gauge source invalid: %v\n%s", err, body)
	}
	vals, err := ParseExposition(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if got := vals[`morrigan_fleet_worker_jobs_done{worker="w1"}`]; got != 3 {
		t.Errorf(`jobs_done{worker="w1"} = %v, want 3`, got)
	}
	if got := vals[`morrigan_fleet_worker_jobs_done{worker="w2"}`]; got != 5 {
		t.Errorf(`jobs_done{worker="w2"} = %v, want 5`, got)
	}
	if got := vals["morrigan_fabric_jobs_pending"]; got != 7 {
		t.Errorf("jobs_pending = %v, want 7", got)
	}
	if n := strings.Count(body, "# TYPE morrigan_fleet_worker_jobs_done"); n != 1 {
		t.Errorf("family header emitted %d times, want 1", n)
	}
}

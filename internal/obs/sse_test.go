package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"morrigan/internal/runner"
	"morrigan/internal/telemetry"
)

// sseClient subscribes to /events and collects decoded messages until the
// body closes or wantSamples "sample" events have arrived.
type sseMsg struct {
	ID    string
	Event string
	Data  string
}

// readSSE parses one subscriber's stream, delivering messages on the channel
// until the connection drops.
func readSSE(t *testing.T, ts *httptest.Server, ctx context.Context, out chan<- sseMsg, ready chan<- struct{}) {
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events", nil)
	if err != nil {
		t.Errorf("events request: %v", err)
		close(ready)
		return
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Errorf("events connect: %v", err)
		close(ready)
		return
	}
	defer resp.Body.Close()
	if resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Errorf("events content-type = %q", resp.Header.Get("Content-Type"))
	}
	close(ready)
	sc := bufio.NewScanner(resp.Body)
	var cur sseMsg
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.Event != "" {
				out <- cur
			}
			cur = sseMsg{}
		case strings.HasPrefix(line, "id: "):
			cur.ID = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		}
	}
	close(out)
}

// TestSSESampleOrder feeds a probe from a producer goroutine while a real
// HTTP client consumes /events, asserting every interval sample arrives, in
// recording order, under -race.
func TestSSESampleOrder(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The deadline turns a lost event into a failure in seconds rather than
	// a hang until the go test timeout.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	msgs := make(chan sseMsg, 1024)
	ready := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		readSSE(t, ts, ctx, msgs, ready)
	}()
	<-ready

	const n = 100
	job := runner.Job{Experiment: "obs", Config: "sse", Workload: "wl-0"}
	probe := telemetry.NewProbe(telemetry.Config{EventBuffer: -1})
	srv.CampaignStarted(1)
	srv.JobStarted(0, job, probe)
	go func() {
		// The probe is single-goroutine; this goroutine is its sole owner
		// after JobStarted, exactly like a simulation worker.
		for i := 1; i <= n; i++ {
			probe.RecordSample(telemetry.Sample{Instructions: uint64(i) * 1000})
		}
		srv.JobFinished(0, runner.Result{Job: job})
	}()

	var samples []telemetry.IntervalSample
	finished := false
	for m := range msgs {
		switch m.Event {
		case "sample":
			var se struct {
				Job    string                   `json:"job"`
				Index  int                      `json:"index"`
				Sample telemetry.IntervalSample `json:"sample"`
			}
			if err := json.Unmarshal([]byte(m.Data), &se); err != nil {
				t.Fatalf("sample payload: %v", err)
			}
			if se.Job != "obs/sse/wl-0" || se.Index != 0 {
				t.Fatalf("sample attribution: job=%q index=%d", se.Job, se.Index)
			}
			samples = append(samples, se.Sample)
		case "job":
			var je struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(m.Data), &je); err != nil {
				t.Fatalf("job payload: %v", err)
			}
			if je.State == "finished" {
				finished = true
				cancel() // stream ends; drain remaining buffered messages
			}
		}
	}
	wg.Wait()

	if !finished {
		t.Fatalf("stream ended without the job's finished event after %d samples: %v", len(samples), ctx.Err())
	}

	if len(samples) != n {
		t.Fatalf("received %d samples, want %d (buffer %d should not drop at this rate)", len(samples), n, subscriberBuffer)
	}
	for i, s := range samples {
		if s.Seq != i {
			t.Fatalf("sample %d out of order: seq %d", i, s.Seq)
		}
		if s.Instructions != uint64(i+1)*1000 {
			t.Fatalf("sample %d: instructions %d, want %d", i, s.Instructions, (i+1)*1000)
		}
	}
}

// TestSSESlowClientDoesNotBlock verifies publishing to a subscriber that
// never drains only drops events rather than stalling the publisher.
func TestSSESlowClientDoesNotBlock(t *testing.T) {
	h := newHub()
	sub, cancel := h.subscribe()
	defer cancel()
	for i := 0; i < subscriberBuffer*3; i++ {
		h.publish(event{Type: "sample", Data: i}) // must never block
	}
	if sub.dropped == 0 {
		t.Error("expected drops for an undrained subscriber")
	}
	// Delivered prefix is still in order.
	prev := -1
	for i := 0; i < subscriberBuffer; i++ {
		e := <-sub.ch
		v := e.Data.(int)
		if v <= prev {
			t.Fatalf("delivered out of order: %d after %d", v, prev)
		}
		prev = v
	}
}

func TestHubCloseDisconnectsSubscribers(t *testing.T) {
	h := newHub()
	sub, cancel := h.subscribe()
	defer cancel()
	h.close()
	if _, ok := <-sub.ch; ok {
		t.Error("subscriber channel still open after hub close")
	}
	h.publish(event{Type: "sample"}) // must not panic on closed hub
	if s2, _ := h.subscribe(); s2 != nil {
		if _, ok := <-s2.ch; ok {
			t.Error("post-close subscriber got a live channel")
		}
	}
}

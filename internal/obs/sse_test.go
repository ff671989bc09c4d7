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
	"morrigan/internal/sim"
)

// sseMsg is one decoded /events message.
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

// TestSSESampleOrder reports progress from a producer goroutine while a real
// HTTP client consumes /events, asserting every "progress" event arrives, in
// reporting order, under -race.
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
	srv.CampaignStarted(1)
	srv.JobStarted(0, job)
	go func() {
		// Like a simulation worker: progress, then the finish, from one
		// goroutine.
		for i := 1; i <= n; i++ {
			srv.JobProgress(0, sim.Progress{Executed: uint64(i) * 1000})
		}
		srv.JobFinished(0, runner.Result{Job: job})
	}()

	var executed []uint64
	finished := false
	for m := range msgs {
		switch m.Event {
		case "progress":
			var pe struct {
				Job          string `json:"job"`
				Index        int    `json:"index"`
				Instructions uint64 `json:"instructions"`
			}
			if err := json.Unmarshal([]byte(m.Data), &pe); err != nil {
				t.Fatalf("progress payload: %v", err)
			}
			if pe.Job != "obs/sse/wl-0" || pe.Index != 0 {
				t.Fatalf("progress attribution: job=%q index=%d", pe.Job, pe.Index)
			}
			executed = append(executed, pe.Instructions)
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
		t.Fatalf("stream ended without the job's finished event after %d progress events: %v", len(executed), ctx.Err())
	}
	if len(executed) != n {
		t.Fatalf("received %d progress events, want %d (buffer %d should not drop at this rate)", len(executed), n, subscriberBuffer)
	}
	for i, e := range executed {
		if e != uint64(i+1)*1000 {
			t.Fatalf("progress event %d: instructions %d, want %d", i, e, (i+1)*1000)
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
		h.publish(event{Type: "progress", Data: i}) // must never block
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
	h.publish(event{Type: "progress"}) // must not panic on closed hub
	if s2, _ := h.subscribe(); s2 != nil {
		if _, ok := <-s2.ch; ok {
			t.Error("post-close subscriber got a live channel")
		}
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

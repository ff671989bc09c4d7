package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// subscriberBuffer is each /events client's queue depth. Publishing never
// blocks the simulation: when a client's queue is full, newer events for that
// client are dropped (and counted), so delivered events stay in order.
const subscriberBuffer = 256

// event is one SSE message: Type becomes the "event:" field, Data is
// JSON-encoded into "data:".
type event struct {
	Type string
	Data any
}

// progressEvent is the payload of "progress" events: one job's latest
// counters, as the simulator reported them.
type progressEvent struct {
	Job   string `json:"job"`
	Index int    `json:"index"`
	jobCounters
}

// jobEvent is the payload of "job" events: a lifecycle transition.
type jobEvent struct {
	Job   string `json:"job"`
	Index int    `json:"index"`
	State string `json:"state"` // started | finished | failed
}

// subscriber is one connected /events client.
type subscriber struct {
	ch      chan event
	dropped uint64
}

// hub fans events out to subscribers. publish is called from simulation
// worker goroutines (via Server.JobProgress) and must stay cheap: one mutex
// acquisition and non-blocking channel sends.
type hub struct {
	mu      sync.Mutex
	subs    map[*subscriber]struct{}
	closed  bool
	seq     uint64
	dropped uint64 // events dropped across all subscribers, ever
}

func newHub() *hub {
	return &hub{subs: make(map[*subscriber]struct{})}
}

// publish delivers e to every subscriber without blocking; slow clients lose
// newest events rather than stalling the simulation or reordering delivery.
func (h *hub) publish(e event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.seq++
	for s := range h.subs {
		select {
		case s.ch <- e:
		default:
			s.dropped++
			h.dropped++
		}
	}
}

// droppedTotal reports how many events have ever been dropped on full
// subscriber queues — the back-pressure signal surfaced as the
// morrigan_sse_dropped_events_total counter and in /campaign.
func (h *hub) droppedTotal() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropped
}

// subscribe registers a new client; the returned cancel must be called.
func (h *hub) subscribe() (*subscriber, func()) {
	s := &subscriber{ch: make(chan event, subscriberBuffer)}
	h.mu.Lock()
	if h.closed {
		close(s.ch)
	} else {
		h.subs[s] = struct{}{}
	}
	h.mu.Unlock()
	return s, func() {
		h.mu.Lock()
		if _, ok := h.subs[s]; ok {
			delete(h.subs, s)
			close(s.ch)
		}
		h.mu.Unlock()
	}
}

// close disconnects every subscriber and refuses new ones.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for s := range h.subs {
		delete(h.subs, s)
		close(s.ch)
	}
}

// handleEvents serves GET /events as a Server-Sent-Events stream. Each
// message carries an incrementing "id:", an "event:" type ("progress" or
// "job") and a JSON "data:" payload; the stream runs until the client
// disconnects or the server closes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// Subscribe before the headers go out: a client that has seen them may
	// act at once (start a campaign, say), and must not miss its events.
	sub, cancel := s.hub.subscribe()
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	id := 0
	for {
		select {
		case <-r.Context().Done():
			return
		case e, ok := <-sub.ch:
			if !ok {
				return // server closing
			}
			data, err := json.Marshal(e.Data)
			if err != nil {
				continue
			}
			id++
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, e.Type, data); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

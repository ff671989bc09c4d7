// Package spans is the distributed-tracing subsystem for simulation
// campaigns: a lightweight span recorder that tags every lifecycle phase of a
// job — lookup, lease, corpus ingest, fast-forward, timed simulation, submit —
// with a monotonic start/duration, the worker that ran it, and a trace id
// derived from the job's canonical key, so the spans a coordinator and its
// workers each write join on the key.
//
// Spans are one of the two instrumentation paths; the other is the
// simulator's progress reports (sim.Config.OnProgress), which feed the live
// view (internal/obs) and the telemetry files (internal/telemetry). Both must
// be provably inert. A nil *Recorder is fully usable — every method is a
// no-op — so call sites pay exactly one nil check when tracing is disabled,
// and results are bit-identical either way (asserted by tests).
//
// Clocks: spans carry nanoseconds since the recorder's epoch, measured on Go's
// monotonic clock (time.Since of an epoch time.Time), never wall time. Each
// process keeps its own recorder and exports its own spans; nothing re-bases
// one process's spans onto another's clock.
package spans

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Span is one traced phase of one job.
type Span struct {
	// TraceID groups the spans of a single job; it is the job's canonical
	// hex key when the job is keyed, or a synthetic "unkeyed/..." id.
	TraceID string `json:"trace_id"`
	// Name is the phase, dot-scoped: "execute", "lookup.store",
	// "sample.fastforward", "lease.wait", ...
	Name string `json:"name"`
	// Worker identifies the process that recorded the span ("local",
	// "coordinator", or a fabric worker's name).
	Worker string `json:"worker,omitempty"`
	// StartNS is nanoseconds since the recorder's epoch, monotonic.
	StartNS int64 `json:"start_ns"`
	// DurNS is the span's duration in nanoseconds.
	DurNS int64 `json:"dur_ns"`
	// Attrs carries phase-specific annotations: reuse source, lease
	// renewals, sampled-slice count, abandon reason.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// End returns the span's end time in nanoseconds since the trace epoch.
func (s Span) End() int64 { return s.StartNS + s.DurNS }

// Recorder collects spans for one process. All methods are safe for
// concurrent use and safe on a nil receiver (no-ops), so a disabled tracer is
// a nil field and costs a nil check per call site.
type Recorder struct {
	worker string
	epoch  time.Time

	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns a recorder whose clock starts now. worker names the
// recording process in every span it produces.
func NewRecorder(worker string) *Recorder {
	return &Recorder{worker: worker, epoch: time.Now()}
}

// Now returns nanoseconds since the recorder's epoch on the monotonic clock
// (0 on nil).
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// Start opens a span; call End on the returned handle to record it. On a nil
// recorder it returns nil, and every Active method is nil-safe, so
//
//	sp := rec.Start(id, "execute")
//	defer sp.End()
//
// is correct whether or not tracing is enabled.
func (r *Recorder) Start(traceID, name string) *Active {
	if r == nil {
		return nil
	}
	return &Active{r: r, span: Span{
		TraceID: traceID,
		Name:    name,
		Worker:  r.worker,
		StartNS: r.Now(),
	}}
}

// Record appends a fully-formed span, filling Worker if unset.
func (r *Recorder) Record(s Span) {
	if r == nil {
		return
	}
	if s.Worker == "" {
		s.Worker = r.worker
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Len returns the number of recorded spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Spans returns a copy of the recorded spans in a deterministic order:
// by start time, then trace id, then name.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		if out[i].TraceID != out[j].TraceID {
			return out[i].TraceID < out[j].TraceID
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Active is an open span returned by Recorder.Start. Nil-safe.
type Active struct {
	r    *Recorder
	span Span
}

// Attr annotates the span; returns the handle for chaining.
func (a *Active) Attr(key, value string) *Active {
	if a == nil {
		return nil
	}
	if a.span.Attrs == nil {
		a.span.Attrs = map[string]string{}
	}
	a.span.Attrs[key] = value
	return a
}

// AttrInt annotates the span with an integer value.
func (a *Active) AttrInt(key string, value int64) *Active {
	if a == nil {
		return nil
	}
	return a.Attr(key, fmt.Sprintf("%d", value))
}

// End closes and records the span.
func (a *Active) End() {
	if a == nil {
		return
	}
	a.span.DurNS = a.r.Now() - a.span.StartNS
	a.r.Record(a.span)
}

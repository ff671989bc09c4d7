// Package spans is the distributed-tracing subsystem for simulation
// campaigns: a lightweight span recorder that tags every lifecycle phase of a
// job — lookup, lease, corpus ingest, fast-forward, timed simulation, submit —
// with a monotonic start/duration, the worker that ran it, and a trace id
// derived from the job's canonical key, so one campaign's work across many
// machines assembles into a single timeline.
//
// Spans are one of the two instrumentation paths; the other is the
// simulator's progress reports (sim.Config.OnProgress), which feed the live
// view (internal/obs) and the telemetry files (internal/telemetry). Both must
// be provably inert. A nil *Recorder is fully usable — every method is a
// no-op — so call sites pay exactly one nil check when tracing is disabled,
// and results are bit-identical either way (asserted by tests).
//
// Clocks: spans carry nanoseconds since the recorder's epoch, measured on Go's
// monotonic clock (time.Since of an epoch time.Time), never wall time. Spans
// recorded on remote workers are re-based onto the assembling coordinator's
// epoch via Import, using the clock offset the coordinator estimates from
// heartbeat round-trip times.
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
	// StartNS is nanoseconds since the assembled trace's epoch, monotonic.
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
	return NewRecorderAt(worker, time.Now())
}

// NewRecorderAt returns a recorder with an explicit epoch. Per-job recorders
// on a fabric worker share the worker process's epoch so their spans are in
// one timebase and ship with a single clock sample.
func NewRecorderAt(worker string, epoch time.Time) *Recorder {
	return &Recorder{worker: worker, epoch: epoch}
}

// Worker returns the recorder's worker name ("" on nil).
func (r *Recorder) Worker() string {
	if r == nil {
		return ""
	}
	return r.worker
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

// Import appends spans recorded on another clock, shifting their start times
// by offsetNS to re-base them onto this recorder's epoch. If the shift would
// push any span before the epoch (offset estimation error), the whole batch
// is slid forward uniformly so its earliest span lands at 0 — a uniform slide
// preserves the batch's internal nesting and ordering exactly, where a
// per-span clamp would not.
func (r *Recorder) Import(ss []Span, offsetNS int64) {
	if r == nil || len(ss) == 0 {
		return
	}
	adj := offsetNS
	min := ss[0].StartNS
	for _, s := range ss[1:] {
		if s.StartNS < min {
			min = s.StartNS
		}
	}
	if min+adj < 0 {
		adj = -min
	}
	r.mu.Lock()
	for _, s := range ss {
		s.StartNS += adj
		if s.Worker == "" {
			s.Worker = r.worker
		}
		r.spans = append(r.spans, s)
	}
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

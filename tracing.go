package morrigan

import (
	"io"

	"morrigan/internal/spans"
)

// Distributed job tracing (see internal/spans): a campaign-wide recorder of
// per-job lifecycle spans — lease wait, corpus fetch, sampling phases, timed
// simulation, submit — keyed by canonical job key, exportable as JSONL or
// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing). Tracing
// is purely observational: attach a recorder to CampaignOptions.Spans (and,
// for distributed campaigns, FabricCoordinatorOptions.Spans and
// FabricWorkerOptions.Spans) and results stay bit-identical to an untraced
// run; a nil recorder costs one nil check per phase.
type (
	// TraceRecorder accumulates spans on one monotonic clock. Safe for
	// concurrent use; share one recorder across the campaign runner, an
	// observability server, and a fabric coordinator to assemble a single
	// campaign trace.
	TraceRecorder = spans.Recorder
	// TraceSpan is one recorded lifecycle phase.
	TraceSpan = spans.Span
)

// NewTraceRecorder returns an empty recorder whose clock starts now. The
// worker label tags every span recorded through it (use "" for local runs).
func NewTraceRecorder(worker string) *TraceRecorder { return spans.NewRecorder(worker) }

// WriteTraceFile exports spans to path: JSONL when the path ends in .jsonl,
// Chrome trace-event JSON otherwise. The file is written atomically.
func WriteTraceFile(path string, ss []TraceSpan) error { return spans.WriteFile(path, ss) }

// WriteChromeTrace writes spans as a Chrome trace-event JSON document
// (Perfetto- and chrome://tracing-loadable) to w.
func WriteChromeTrace(w io.Writer, ss []TraceSpan) error { return spans.WriteChromeTrace(w, ss) }

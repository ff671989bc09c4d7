package morrigan

import (
	"io"

	"morrigan/internal/spans"
)

// Job tracing (see internal/spans): a per-process recorder of per-job
// lifecycle spans — lease wait, corpus fetch, sampling phases, timed
// simulation, submit — keyed by canonical job key, exportable as JSONL or
// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing). Tracing
// is purely observational: attach a recorder to CampaignOptions.Spans (and,
// for distributed campaigns, FabricCoordinatorOptions.Spans for the
// coordinator's lease spans and FabricWorkerOptions.Spans for each worker's
// job spans) and results stay bit-identical to an untraced run; a nil
// recorder costs one nil check per phase.
type (
	// TraceRecorder accumulates one process's spans on one monotonic clock.
	// Safe for concurrent use; share one recorder between the campaign
	// runner and a fabric coordinator to trace the coordinator's process in
	// one file. A fabric worker records into a recorder of its own.
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

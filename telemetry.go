package morrigan

import (
	"io"

	"morrigan/internal/runner"
	"morrigan/internal/telemetry"
)

// Telemetry files (see internal/telemetry): CampaignOptions.Telemetry writes
// one schema-versioned JSON Lines file per full-run job, the job's interval
// time series over its measurement window. The series is built from the same
// progress reports (Config.OnProgress, every 65,536 instructions and at the
// end of each run) that feed the ObservabilityServer's live view, and its
// per-interval deltas sum exactly to the job's Stats.
type (
	// TelemetrySample is one emitted time-series point (per-interval counter
	// deltas plus derived rates).
	TelemetrySample = telemetry.IntervalSample
	// CampaignTelemetry attaches per-job telemetry files to a campaign: one
	// JSONL file per full-run job.
	CampaignTelemetry = runner.TelemetryOptions
)

// TelemetrySchemaVersion identifies the telemetry JSONL schema.
const TelemetrySchemaVersion = telemetry.SchemaVersion

// ParseTelemetryJSONL decodes and validates a telemetry JSONL stream,
// returning the decoded lines (header, samples, summary) for inspection.
func ParseTelemetryJSONL(r io.Reader) ([]map[string]any, error) {
	return telemetry.ParseJSONL(r)
}

package morrigan

import (
	"io"

	"morrigan/internal/runner"
	"morrigan/internal/telemetry"
)

// Telemetry observability layer (see internal/telemetry): interval
// time-series sampling of live counters, a bounded event trace of the
// prefetch lifecycle and page walks, and log2-bucketed latency histograms,
// emitted as schema-versioned JSON Lines. A campaign builds probes only for
// CampaignOptions.Telemetry and only for full-run jobs; the live view of
// running jobs (ObservabilityServer) comes from Config.OnProgress instead.
type (
	// TelemetryConfig parameterises a probe (sampling interval, event-ring
	// capacity).
	TelemetryConfig = telemetry.Config
	// TelemetryProbe collects one simulation's telemetry; attach it through
	// Config.Probe. A probe belongs to exactly one simulator.
	TelemetryProbe = telemetry.Probe
	// TelemetrySample is one emitted time-series point (per-interval counter
	// deltas plus derived rates).
	TelemetrySample = telemetry.IntervalSample
	// TelemetryEvent is one traced prefetch-lifecycle or page-walk event.
	TelemetryEvent = telemetry.Event
	// CampaignTelemetry attaches per-job telemetry collection to a campaign:
	// one probe and one JSONL file per job.
	CampaignTelemetry = runner.TelemetryOptions
)

// TelemetrySchemaVersion identifies the telemetry JSONL schema.
const TelemetrySchemaVersion = telemetry.SchemaVersion

// DefaultTelemetryConfig returns the default probe parameters
// (100k-instruction sampling interval, 4096-event ring).
func DefaultTelemetryConfig() TelemetryConfig { return telemetry.DefaultConfig() }

// NewTelemetryProbe builds a telemetry probe from cfg.
func NewTelemetryProbe(cfg TelemetryConfig) *TelemetryProbe { return telemetry.NewProbe(cfg) }

// ParseTelemetryJSONL decodes and validates a telemetry JSONL stream,
// returning the decoded lines (header, samples, events, histograms,
// summary) for inspection.
func ParseTelemetryJSONL(r io.Reader) ([]map[string]any, error) {
	return telemetry.ParseJSONL(r)
}

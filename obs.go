package morrigan

import (
	"morrigan/internal/obs"
	"morrigan/internal/runner"
)

// Live campaign observability (see internal/obs). An ObservabilityServer is a
// CampaignObserver: attach it to CampaignOptions.Observer (or
// ExperimentOptions.Observer) and it serves live Prometheus metrics, campaign
// status JSON, a Server-Sent-Events stream of telemetry samples, and pprof —
// all without perturbing results.
type (
	// CampaignObserver receives campaign lifecycle notifications:
	// CampaignStarted, then per job JobStarted (on the worker goroutine,
	// before the simulation constructs) and JobFinished. Implementations
	// must be safe for concurrent use across workers.
	CampaignObserver = runner.Observer
	// ObservabilityServer is the HTTP observability server. Construct with
	// NewObservabilityServer, attach as a CampaignObserver, then either
	// Start(addr) a real listener or mount Handler() yourself.
	ObservabilityServer = obs.Server
	// MetricGauge is one externally sourced /metrics gauge sample; register
	// gauge sources with ObservabilityServer.AddGaugeSource.
	MetricGauge = obs.Gauge
)

// NewObservabilityServer returns an unstarted observability server.
func NewObservabilityServer() *ObservabilityServer { return obs.New() }

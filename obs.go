package morrigan

import (
	"morrigan/internal/obs"
	"morrigan/internal/runner"
)

// Live campaign observability (see internal/obs). An ObservabilityServer is a
// CampaignObserver: attach it to CampaignOptions.Observer (or
// ExperimentOptions.Observer) and it serves live Prometheus metrics, campaign
// status JSON, a Server-Sent-Events stream of job progress, and pprof — all
// without perturbing results. Every job, full or sampled, reports its
// counters through the simulator's one progress hook (Config.OnProgress),
// which also feeds the CampaignTelemetry files.
type (
	// CampaignObserver receives campaign lifecycle notifications:
	// CampaignStarted, then for every job simulated in this process, full or
	// sampled, JobStarted, JobProgress with the live counters (every 65,536
	// instructions and at the end of each run) and JobFinished, all on the
	// job's worker goroutine. Remotely executed jobs get JobStarted when a
	// worker first takes them and JobFinished when their result returns;
	// reused ones get only JobFinished. Implementations must be safe for
	// concurrent use across workers, and JobProgress must be fast.
	CampaignObserver = runner.Observer
	// ObservabilityServer is the HTTP observability server. Construct with
	// NewObservabilityServer, attach as a CampaignObserver, then either
	// Start(addr) a real listener or mount Handler() yourself.
	ObservabilityServer = obs.Server
	// MetricGauge is one externally sourced, unlabelled /metrics gauge;
	// register gauge sources with ObservabilityServer.AddGaugeSource.
	MetricGauge = obs.Gauge
)

// NewObservabilityServer returns an unstarted observability server.
func NewObservabilityServer() *ObservabilityServer { return obs.New() }

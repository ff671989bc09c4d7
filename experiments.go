package morrigan

import (
	"context"
	"fmt"
	"io"

	"morrigan/internal/experiments"
	"morrigan/internal/runner"
	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

// Experiment harness types.
type (
	// ExperimentOptions scales an experiment run.
	ExperimentOptions = experiments.Options
	// ExperimentTable is a rendered experiment result.
	ExperimentTable = experiments.Table
)

// Experiment option presets.
var (
	// DefaultExperimentOptions finishes in minutes on one core.
	DefaultExperimentOptions = experiments.DefaultOptions
	// QuickExperimentOptions is for benchmarks and smoke tests.
	QuickExperimentOptions = experiments.QuickOptions
	// FullExperimentOptions approaches the paper's methodology.
	FullExperimentOptions = experiments.FullOptions
)

// ExperimentIDs lists the reproducible tables and figures in paper order.
func ExperimentIDs() []string {
	out := make([]string, len(experiments.Order))
	copy(out, experiments.Order)
	return out
}

// RunExperiment regenerates one of the paper's tables or figures.
func RunExperiment(id string, opt ExperimentOptions) (*ExperimentTable, error) {
	fn, ok := experiments.Registry[id]
	if !ok {
		return nil, fmt.Errorf("morrigan: unknown experiment %q (see ExperimentIDs)", id)
	}
	return fn(opt)
}

// Campaign orchestration (see internal/runner). A campaign is a set of
// independent simulation jobs fanned out over a bounded worker pool with
// results returned in deterministic job order.
type (
	// CampaignJob is one independent simulation of a campaign.
	CampaignJob = runner.Job
	// CampaignResult is the outcome of one job.
	CampaignResult = runner.Result
	// CampaignOptions bounds worker count, per-job timeouts and progress.
	CampaignOptions = runner.Options
	// CampaignRecord is one job's machine-readable result.
	CampaignRecord = runner.Record
	// Campaign is the schema-versioned collection of campaign results,
	// with JSON and CSV emitters.
	Campaign = runner.Campaign
	// CampaignRecorder collects results across campaigns; its zero value
	// is ready to use.
	CampaignRecorder = runner.Recorder
	// CampaignEvent is one progress notification.
	CampaignEvent = runner.Event
	// CampaignProgress receives progress notifications.
	CampaignProgress = runner.ProgressFunc
	// CampaignJournal is an append-only checkpoint of completed simulations
	// that lets an interrupted campaign resume without re-simulating.
	CampaignJournal = runner.Journal
	// CampaignResultCache deduplicates identical (machine, workloads, scale)
	// jobs across the campaigns of one process.
	CampaignResultCache = runner.ResultCache
)

// CampaignSchemaVersion identifies the JSON/CSV result schema.
const CampaignSchemaVersion = runner.SchemaVersion

// SMTVAOffset is the per-thread virtual-address-space offset campaigns apply
// to colocated SMT workloads: thread i's stream is shifted by i*SMTVAOffset.
const SMTVAOffset = runner.SMTVAOffset

// RunCampaign executes the jobs over a worker pool and returns one result per
// job, in job order; see CampaignOptions. A nil ctx means context.Background().
func RunCampaign(ctx context.Context, jobs []CampaignJob, opt CampaignOptions) ([]CampaignResult, error) {
	return runner.Run(ctx, jobs, opt)
}

// CampaignWriterProgress returns a progress function printing one line per
// completed job, with campaign progress and an ETA, to w.
func CampaignWriterProgress(w io.Writer) CampaignProgress { return runner.WriterProgress(w) }

// OpenCampaignJournal opens (or, with resume, reloads) a checkpoint journal
// at path. With resume set, previously journaled results are served without
// re-simulating; a torn final record from a crash is discarded. Close it
// when the campaign ends.
func OpenCampaignJournal(path string, resume bool) (*CampaignJournal, error) {
	return runner.OpenJournal(path, resume)
}

// NewCampaignResultCache returns an empty cross-campaign result cache; pass
// it via CampaignOptions.Cache (or ExperimentOptions.Cache) so identical
// jobs simulate once per process.
func NewCampaignResultCache() *CampaignResultCache { return runner.NewResultCache() }

// LimitTrace caps a trace at n records (it then reports io.EOF).
func LimitTrace(r TraceReader, n uint64) TraceReader { return trace.Limit(r, n) }

// LoadWorkloadSpec parses a user-defined workload from its JSON form (see
// the workloads package documentation for the schema).
func LoadWorkloadSpec(r io.Reader) (Workload, error) { return workloads.LoadSpec(r) }

// SaveWorkloadSpec serialises a workload spec as JSON readable by
// LoadWorkloadSpec.
func SaveWorkloadSpec(w io.Writer, spec Workload) error { return workloads.SaveSpec(w, spec) }

package morrigan

import (
	"morrigan/internal/obs"
	"morrigan/internal/sampling"
)

// Representative-interval sampling (see internal/sampling). A sampled
// campaign job profiles its workload through a cheap functional model, picks
// representative intervals with deterministic k-means clustering, simulates
// only those slices in the timing model (fast-forwarding between them with
// functional TLB/page-table warmup), and extrapolates whole-run statistics
// with per-metric 95% confidence intervals. Attach a SamplingPolicy to
// CampaignJob.Sampling (or ExperimentOptions.Sampling) to enable it.
type (
	// SamplingPolicy parameterises representative-interval sampling.
	SamplingPolicy = sampling.Policy
	// SamplingOutcome describes how a sampled estimate was produced: the
	// policy, the slice set, the instruction budget actually timed, and
	// the 95% confidence intervals around the extrapolated stats.
	SamplingOutcome = sampling.Outcome
	// SamplingCI holds per-metric 95% confidence half-widths.
	SamplingCI = sampling.CI
	// SamplingProfileStore caches workload profiling artifacts, in memory
	// and optionally on disk, so sampled jobs over one workload and window
	// share a single functional profiling pass.
	SamplingProfileStore = sampling.ProfileStore
)

// DefaultSamplingPolicy returns a policy suited to the experiment harness's
// default scales: 100k-instruction intervals, 8 clusters, 25k slice warmup.
func DefaultSamplingPolicy() SamplingPolicy { return sampling.DefaultPolicy() }

// OpenSamplingProfileStore opens (creating if needed) a profile-artifact
// store rooted at dir, or a memory-only store when dir is ""; pass it via
// CampaignOptions.Profiles (or ExperimentOptions.Profiles).
func OpenSamplingProfileStore(dir string) (*SamplingProfileStore, error) {
	return sampling.OpenProfileStore(dir)
}

// SamplingGauges returns an observability gauge source publishing the
// profile store's built and reused artifact counts (nothing when profiles
// is nil). Wire it into an ObservabilityServer with AddGaugeSource; the
// server itself counts sampled runs and their timed and fast-forwarded
// instructions from the campaign's results.
func SamplingGauges(profiles *SamplingProfileStore) func() []obs.Gauge {
	return func() []obs.Gauge {
		if profiles == nil {
			return nil
		}
		return []obs.Gauge{
			{Name: "morrigan_sampling_profiles_built_total", Help: "Sampling profile artifacts built by this process.", Value: float64(profiles.Built())},
			{Name: "morrigan_sampling_profiles_reused_total", Help: "Sampling profile artifacts served from the profile store.", Value: float64(profiles.Reused())},
		}
	}
}

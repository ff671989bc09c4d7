package sampling

import (
	"context"
	"fmt"

	"morrigan/internal/sim"
	"morrigan/internal/spans"
)

// Outcome summarises how a sampled run was produced. It travels with the
// extrapolated Stats through the runner's result schema, the journal, the
// result store and the fabric wire format, so a sampled result is never
// mistaken for a full one.
type Outcome struct {
	// Policy is the sampling policy the run used.
	Policy Policy `json:"policy"`
	// Intervals is how many fixed-length intervals the measurement window
	// was split into.
	Intervals int `json:"intervals"`
	// Slices is how many representative intervals were simulated in timing
	// detail (≤ Policy.Clusters).
	Slices int `json:"slices"`
	// TimedInstructions counts instructions simulated in full timing detail,
	// slice warmups included — the cost figure the ≥10x speedup criterion
	// is measured against.
	TimedInstructions uint64 `json:"timed_instructions"`
	// FastForwarded counts instructions consumed by functional warmup only.
	FastForwarded uint64 `json:"fast_forwarded"`
	// CI95 holds the per-metric 95% confidence half-widths of the
	// extrapolated Stats.
	CI95 CI `json:"ci95"`
}

// Execute runs the sampled-execution mode over a freshly constructed
// simulator: for each representative in the plan it fast-forwards with
// functional TLB/page-table warmup, optionally simulates a timed slice
// warmup, simulates the representative interval in full timing detail, and
// finally extrapolates the weighted full-window Stats with confidence
// intervals.
//
// warmup is the job's (functional, under sampling) warmup prefix; the plan's
// interval indices are relative to the measurement window that follows it.
// The simulator must be fresh — its trace readers positioned at the stream
// start — and is consumed by the call.
//
// rec, when non-nil, records one span per phase under traceID:
// sample.fastforward, sample.settle, sample.slicewarmup and sample.measure.
func Execute(ctx context.Context, s *sim.Simulator, warmup uint64, plan *Plan, pol Policy, rec *spans.Recorder, traceID string) (sim.Stats, *Outcome, error) {
	if len(plan.Reps) == 0 {
		return sim.Stats{}, nil, fmt.Errorf("sampling: plan has no representatives")
	}
	slices := make([]sim.Stats, 0, len(plan.Reps))
	weights := make([]float64, 0, len(plan.Reps))

	var pos uint64 // stream position in instructions
	for _, rep := range plan.Reps {
		start := warmup + uint64(rep.Index)*plan.Interval
		if start < pos {
			return sim.Stats{}, nil, fmt.Errorf("sampling: representative %d overlaps the previous slice", rep.Index)
		}
		// Timed slice warmup eats into the fast-forward gap; when the gap is
		// shorter than the configured warmup (adjacent representatives), the
		// warmup shrinks to the gap.
		ffTarget := start
		if gap := start - pos; gap > pol.SliceWarmup {
			ffTarget = start - pol.SliceWarmup
		} else {
			ffTarget = pos
		}
		if ffTarget > pos {
			sp := rec.Start(traceID, "sample.fastforward")
			err := s.FastForward(ctx, ffTarget-pos)
			sp.End()
			if err != nil {
				return sim.Stats{}, nil, err
			}
		}
		// Every RunContext call rebases the core clock; in-flight activity
		// carrying absolute timestamps from an earlier clock epoch completed
		// long ago in simulated time and must settle, or it would charge
		// phantom stalls. Settle once before the timed slice warmup (previous
		// slice's epoch) and again at the warmup/measure boundary (the slice
		// warmup's own epoch) by running warmup and measurement as separate
		// clock epochs.
		sp := rec.Start(traceID, "sample.settle")
		s.SettleTiming()
		sp.End()
		if start > ffTarget {
			sp = rec.Start(traceID, "sample.slicewarmup")
			_, err := s.RunContext(ctx, 0, start-ffTarget)
			sp.End()
			if err != nil {
				return sim.Stats{}, nil, err
			}
			sp = rec.Start(traceID, "sample.settle")
			s.SettleTiming()
			sp.End()
		}
		sp = rec.Start(traceID, "sample.measure")
		st, err := s.RunContext(ctx, 0, plan.Interval)
		sp.End()
		if err != nil {
			return sim.Stats{}, nil, err
		}
		if st.Instructions < plan.Interval {
			return sim.Stats{}, nil, fmt.Errorf("sampling: representative %d got %d of %d instructions — trace ended early",
				rep.Index, st.Instructions, plan.Interval)
		}
		slices = append(slices, st)
		weights = append(weights, rep.Weight)
		pos = start + plan.Interval
	}

	est, ci := Extrapolate(slices, weights, plan.Intervals)
	out := &Outcome{
		Policy:            pol,
		Intervals:         plan.Intervals,
		Slices:            len(slices),
		TimedInstructions: s.Executed(),
		FastForwarded:     s.FastForwarded(),
		CI95:              ci,
	}
	return est, out, nil
}

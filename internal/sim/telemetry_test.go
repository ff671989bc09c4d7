package sim

import (
	"testing"

	"morrigan/internal/telemetry"
)

// measuredSeries differences a run's progress reports into a telemetry
// series, restarting it whenever a report's Executed less its measured
// Instructions changes. That value is the executed count at the last stats
// reset, so only the measurement window's reports remain, as in a campaign's
// -telemetry file.
func measuredSeries(reports []Progress) []telemetry.IntervalSample {
	var ser telemetry.Series
	var resetAt uint64
	for _, p := range reports {
		if at := p.Executed - p.Counters.Instructions; at != resetAt {
			resetAt = at
			ser.Reset()
		}
		ser.Add(p.Counters)
	}
	return ser.Samples()
}

// TestTelemetrySamplesSumToAggregate is the series' invariant at its source:
// the interval deltas differenced from the OnProgress reports (instructions,
// misses, walks, prefetch counts) sum exactly to the end-of-run aggregate
// Stats, one sample per ProgressInterval plus a shorter last one.
func TestTelemetrySamplesSumToAggregate(t *testing.T) {
	var reports []Progress
	cfg := morriganConfig()
	cfg.OnProgress = func(p Progress) { reports = append(reports, p) }
	s := mustNew(t, cfg, []ThreadSpec{{Reader: testWorkload()}})
	st, err := s.Run(50_000, 230_000) // not a multiple of the interval
	if err != nil {
		t.Fatal(err)
	}

	samples := measuredSeries(reports)
	if len(samples) != 4 {
		t.Fatalf("samples = %d, want 4 for 230k instructions at a %d interval", len(samples), ProgressInterval)
	}
	var sum telemetry.IntervalSample
	for _, d := range samples {
		sum.DInstructions += d.DInstructions
		sum.DCycles += d.DCycles
		sum.DL1IMisses += d.DL1IMisses
		sum.DITLBMisses += d.DITLBMisses
		sum.DISTLBAccesses += d.DISTLBAccesses
		sum.DISTLBMisses += d.DISTLBMisses
		sum.DPBHits += d.DPBHits
		sum.DPrefUsed += d.DPrefUsed
		sum.DPrefLate += d.DPrefLate
		sum.DPrefInstalled += d.DPrefInstalled
		sum.DPrefIssued += d.DPrefIssued
		sum.DPrefDiscarded += d.DPrefDiscarded
		sum.DPrefWalks += d.DPrefWalks
		sum.DDemandIWalks += d.DDemandIWalks
		sum.DDemandDWalks += d.DDemandDWalks
		sum.DDroppedWalks += d.DDroppedWalks
	}
	check := func(name string, got, want uint64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: interval sum %d != aggregate %d", name, got, want)
		}
	}
	check("instructions", sum.DInstructions, st.Instructions)
	check("cycles", sum.DCycles, uint64(st.Cycles))
	check("l1i misses", sum.DL1IMisses, st.L1IMisses)
	check("itlb misses", sum.DITLBMisses, st.ITLBMisses)
	check("istlb accesses", sum.DISTLBAccesses, st.ISTLBAccesses)
	check("istlb misses", sum.DISTLBMisses, st.ISTLBMisses)
	check("pb hits", sum.DPBHits, st.PBHits)
	check("prefetch used", sum.DPrefUsed, st.PBHits)
	check("prefetch issued", sum.DPrefIssued, st.PrefetchesIssued)
	check("prefetch discarded", sum.DPrefDiscarded, st.PrefetchesDiscarded)
	check("prefetch walks", sum.DPrefWalks, st.PrefetchWalks)
	check("demand iwalks", sum.DDemandIWalks, st.DemandIWalks)
	check("demand dwalks", sum.DDemandDWalks, st.DemandDWalks)
	check("dropped walks", sum.DDroppedWalks, st.DroppedWalks)
	if sum.DPrefLate > sum.DPrefUsed {
		t.Errorf("late prefetches %d > used %d", sum.DPrefLate, sum.DPrefUsed)
	}
	if sum.DPrefInstalled == 0 {
		t.Error("no prefetch installed")
	}

	// The time axis is exact: samples sit at each interval's end, the last
	// at the final instruction.
	for i, d := range samples[:len(samples)-1] {
		if want := uint64(i+1) * ProgressInterval; d.Instructions != want {
			t.Errorf("sample %d at %d, want %d", i, d.Instructions, want)
		}
	}
	if last := samples[len(samples)-1]; last.Instructions != st.Instructions {
		t.Errorf("last sample at %d, aggregate %d", last.Instructions, st.Instructions)
	}
}

// TestTelemetryResetAtMeasureBoundary: warmup activity must not leak into
// the series. Every report up to the end of the warmup has Executed equal to
// its measured Instructions, and every later one differs by exactly the
// warmup, so the boundary shows whether or not a report fell inside the
// warmup before it ended.
func TestTelemetryResetAtMeasureBoundary(t *testing.T) {
	for _, tc := range []struct {
		name            string
		warmup, measure uint64
	}{
		{"warmup-below-interval", 50_000, 200_000},
		{"warmup-above-interval", 100_000, 40_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var reports []Progress
			cfg := morriganConfig()
			cfg.OnProgress = func(p Progress) { reports = append(reports, p) }
			s := mustNew(t, cfg, []ThreadSpec{{Reader: testWorkload()}})
			st, err := s.Run(tc.warmup, tc.measure)
			if err != nil {
				t.Fatal(err)
			}

			for i, p := range reports {
				want := uint64(0)
				if p.Executed > tc.warmup {
					want = tc.warmup
				}
				if at := p.Executed - p.Counters.Instructions; at != want {
					t.Errorf("report %d at %d executed: reset at %d, want %d", i, p.Executed, at, want)
				}
			}

			samples := measuredSeries(reports)
			var instr uint64
			for _, d := range samples {
				instr += d.DInstructions
			}
			if instr != st.Instructions {
				t.Fatalf("series covers %d instructions, measured %d (warmup leaked?)", instr, st.Instructions)
			}
			if first := samples[0].Instructions; first != min(ProgressInterval, tc.measure) {
				t.Errorf("first sample at %d, want %d (warmup leaked?)", first, min(ProgressInterval, tc.measure))
			}
		})
	}
}

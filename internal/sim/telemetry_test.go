package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"morrigan/internal/core"
	"morrigan/internal/machine"
	"morrigan/internal/telemetry"
)

// telemetryConfig is the default machine with Morrigan attached and a probe.
func telemetryConfig(probe *telemetry.Probe) Config {
	cfg := DefaultConfig()
	cfg.Prefetcher = machine.Morrigan(core.DefaultConfig())
	cfg.Probe = probe
	return cfg
}

// TestTelemetrySamplesSumToAggregate is the tentpole invariant: the emitted
// interval deltas (instructions, misses, walks, prefetch counts) must sum
// exactly to the end-of-run aggregate Stats.
func TestTelemetrySamplesSumToAggregate(t *testing.T) {
	probe := telemetry.NewProbe(telemetry.Config{Interval: 25_000})
	s := mustNew(t, telemetryConfig(probe), []ThreadSpec{{Reader: testWorkload()}})
	st, err := s.Run(50_000, 230_000) // not a multiple of the interval
	if err != nil {
		t.Fatal(err)
	}

	samples := probe.Samples()
	if len(samples) < 9 {
		t.Fatalf("samples = %d, want >= 9 for 230k instructions at 25k interval", len(samples))
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
	check("prefetch issued", sum.DPrefIssued, st.PrefetchesIssued)
	check("prefetch discarded", sum.DPrefDiscarded, st.PrefetchesDiscarded)
	check("prefetch walks", sum.DPrefWalks, st.PrefetchWalks)
	check("demand iwalks", sum.DDemandIWalks, st.DemandIWalks)
	check("demand dwalks", sum.DDemandDWalks, st.DemandDWalks)
	check("dropped walks", sum.DDroppedWalks, st.DroppedWalks)

	// The time axis is exact: the last sample sits at the final instruction.
	if last := samples[len(samples)-1]; last.Instructions != st.Instructions {
		t.Errorf("last sample at %d, aggregate %d", last.Instructions, st.Instructions)
	}
}

// TestTelemetryDisabledBitIdentical verifies the overhead contract: a probe
// observes without perturbing, so Stats with and without one are identical.
func TestTelemetryDisabledBitIdentical(t *testing.T) {
	run := func(probe *telemetry.Probe) Stats {
		s := mustNew(t, telemetryConfig(probe), []ThreadSpec{{Reader: testWorkload()}})
		st, err := s.Run(50_000, 150_000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	plain := run(nil)
	probed := run(telemetry.NewProbe(telemetry.Config{Interval: 10_000}))
	if !reflect.DeepEqual(plain, probed) {
		t.Fatalf("stats diverge with a probe attached:\nplain:  %+v\nprobed: %+v", plain, probed)
	}
}

// TestTelemetryLifecycleAndWalks exercises the event trace and histograms
// through a real simulation.
func TestTelemetryLifecycleAndWalks(t *testing.T) {
	probe := telemetry.NewProbe(telemetry.Config{Interval: 20_000, EventBuffer: 1 << 16})
	s := mustNew(t, telemetryConfig(probe), []ThreadSpec{{Reader: testWorkload()}})
	st, err := s.Run(50_000, 150_000)
	if err != nil {
		t.Fatal(err)
	}

	events, _ := probe.Events()
	if len(events) == 0 {
		t.Fatal("no events traced")
	}
	byKind := map[telemetry.EventKind]int{}
	for _, e := range events {
		byKind[e.Kind]++
	}
	if byKind[telemetry.EvWalkDemand] == 0 || byKind[telemetry.EvPrefetchIssued] == 0 {
		t.Fatalf("missing expected kinds: %v", byKind)
	}
	if st.PBHits > 0 && byKind[telemetry.EvPrefetchUsed]+byKind[telemetry.EvPrefetchLate] == 0 {
		t.Fatal("PB hits but no use events")
	}

	hists := probe.Histograms()
	if hists[0].Total() != st.DemandIWalks+st.DemandDWalks {
		t.Errorf("demand walk histogram %d entries, stats %d",
			hists[0].Total(), st.DemandIWalks+st.DemandDWalks)
	}
	if hists[1].Total() != st.PrefetchWalks {
		t.Errorf("prefetch walk histogram %d entries, stats %d", hists[1].Total(), st.PrefetchWalks)
	}
	if hists[0].Mean() <= 0 {
		t.Error("zero mean demand walk latency")
	}

	// The whole collection round-trips through JSONL.
	var buf bytes.Buffer
	if err := probe.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ParseJSONL(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestTelemetryResetAtMeasureBoundary: warmup activity must not leak into
// the emitted series.
func TestTelemetryResetAtMeasureBoundary(t *testing.T) {
	probe := telemetry.NewProbe(telemetry.Config{Interval: 10_000})
	s := mustNew(t, telemetryConfig(probe), []ThreadSpec{{Reader: testWorkload()}})
	st, err := s.Run(100_000, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	var instr uint64
	for _, d := range probe.Samples() {
		instr += d.DInstructions
	}
	if instr != st.Instructions {
		t.Fatalf("series covers %d instructions, measured %d (warmup leaked?)", instr, st.Instructions)
	}
}

// TestProgressHook checks Config.OnProgress: reports arrive at every context
// check and at the end of each run, the executed and fast-forwarded totals
// never fall, the measured counters restart at the warmup/measure boundary,
// the last report matches the final Stats, and the hook leaves Stats
// bit-identical.
func TestProgressHook(t *testing.T) {
	var reports []Progress
	cfg := telemetryConfig(nil)
	cfg.OnProgress = func(p Progress) { reports = append(reports, p) }
	s := mustNew(t, cfg, []ThreadSpec{{Reader: testWorkload()}})
	if err := s.FastForward(context.Background(), 30_000); err != nil {
		t.Fatal(err)
	}
	st, err := s.Run(100_000, 150_000)
	if err != nil {
		t.Fatal(err)
	}

	// One report at the end of the fast-forward, one at the warmup's context
	// check and end, two at the measurement's checks and one at its end.
	if len(reports) != 6 {
		t.Fatalf("%d reports, want 6", len(reports))
	}
	for i := 1; i < len(reports); i++ {
		if reports[i].Executed < reports[i-1].Executed || reports[i].FastForwarded < reports[i-1].FastForwarded {
			t.Errorf("report %d: totals fell: %+v after %+v", i, reports[i], reports[i-1])
		}
	}
	if got := reports[2].Counters.Instructions; got != 100_000 {
		t.Errorf("end of warmup reports %d measured instructions, want 100000", got)
	}
	if got := reports[3].Counters.Instructions; got != cancelCheckInterval {
		t.Errorf("first measurement report has %d measured instructions, want %d (counters restarted)", got, cancelCheckInterval)
	}
	last := reports[len(reports)-1]
	if last.Executed != s.Executed() || last.Executed != 250_000 || last.FastForwarded != 30_000 {
		t.Errorf("last report totals %d executed, %d fast-forwarded; want 250000 and 30000", last.Executed, last.FastForwarded)
	}
	if last.Counters.Instructions != st.Instructions || last.Counters.Cycles != st.Cycles || last.Counters.ISTLBMisses != st.ISTLBMisses {
		t.Errorf("last report counters %+v disagree with the final Stats", last.Counters)
	}

	plain := mustNew(t, telemetryConfig(nil), []ThreadSpec{{Reader: testWorkload()}})
	if err := plain.FastForward(context.Background(), 30_000); err != nil {
		t.Fatal(err)
	}
	want, err := plain.Run(100_000, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("stats diverge with a progress hook attached:\nhooked: %+v\nplain:  %+v", st, want)
	}
}

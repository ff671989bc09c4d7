package sim

import (
	"context"
	"reflect"
	"testing"

	"morrigan/internal/core"
	"morrigan/internal/machine"
)

// morriganConfig is the default machine with Morrigan attached.
func morriganConfig() Config {
	cfg := DefaultConfig()
	cfg.Prefetcher = machine.Morrigan(core.DefaultConfig())
	return cfg
}

// TestProgressHook checks Config.OnProgress: reports arrive at every context
// check and at the end of each run, the executed and fast-forwarded totals
// never fall, the measured counters restart at the warmup/measure boundary,
// the last report matches the final Stats, and the hook leaves Stats
// bit-identical.
func TestProgressHook(t *testing.T) {
	var reports []Progress
	cfg := morriganConfig()
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
	if got := reports[3].Counters.Instructions; got != ProgressInterval {
		t.Errorf("first measurement report has %d measured instructions, want %d (counters restarted)", got, ProgressInterval)
	}
	last := reports[len(reports)-1]
	if last.Executed != s.Executed() || last.Executed != 250_000 || last.FastForwarded != 30_000 {
		t.Errorf("last report totals %d executed, %d fast-forwarded; want 250000 and 30000", last.Executed, last.FastForwarded)
	}
	if last.Counters.Instructions != st.Instructions || last.Counters.Cycles != st.Cycles || last.Counters.ISTLBMisses != st.ISTLBMisses {
		t.Errorf("last report counters %+v disagree with the final Stats", last.Counters)
	}

	plain := mustNew(t, morriganConfig(), []ThreadSpec{{Reader: testWorkload()}})
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

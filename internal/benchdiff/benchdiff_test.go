package benchdiff

import (
	"fmt"
	"strings"
	"testing"

	"morrigan/internal/runner"
	"morrigan/internal/sim"
)

// campaign builds a current-schema campaign with one record per (workload, ipc).
func campaign(ipcs map[string]float64) runner.Campaign {
	c := runner.Campaign{Schema: runner.SchemaVersion}
	for wl, ipc := range ipcs {
		c.Records = append(c.Records, runner.Record{
			Experiment: "fig15",
			Config:     "Morrigan",
			Workload:   wl,
			Stats:      &sim.Stats{IPC: ipc},
		})
	}
	return c
}

func TestLoadRejectsBadSchema(t *testing.T) {
	next := fmt.Sprintf(`{"schema":%d,"records":[]}`, runner.SchemaVersion+1)
	if _, err := Load(strings.NewReader(next)); err == nil {
		t.Errorf("schema %d accepted", runner.SchemaVersion+1)
	}
	if _, err := Load(strings.NewReader(`{"schema":0,"records":[]}`)); err == nil {
		t.Error("schema 0 accepted")
	}
	if _, err := Load(strings.NewReader(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	cur := fmt.Sprintf(`{"schema":%d,"records":[{"workload":"w"}]}`, runner.SchemaVersion)
	c, err := Load(strings.NewReader(cur))
	if err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	if len(c.Records) != 1 || c.Records[0].Workload != "w" {
		t.Errorf("loaded %+v", c)
	}

	// Schema 1 predates Record.Sampling; v2 is a superset, so a schema-1
	// baseline still loads and compares against a current file.
	v1 := `{"schema":1,"records":[{"experiment":"fig15","config":"Morrigan","workload":"a","stats":{"IPC":1}}]}`
	old, err := Load(strings.NewReader(v1))
	if err != nil {
		t.Fatalf("schema-1 file rejected: %v", err)
	}
	rep := Compare(old, campaign(map[string]float64{"a": 0.5}), Options{IPCThresholdPct: 2})
	if len(rep.Rows) != 1 || rep.Rows[0].OldIPC != 1 || !rep.Regressed() {
		t.Errorf("schema-1 comparison = %+v", rep)
	}
}

// TestInjectedRegression is the acceptance property: an IPC drop beyond the
// threshold must flag a regression; a drop within it must not.
func TestInjectedRegression(t *testing.T) {
	old := campaign(map[string]float64{"a": 1.0, "b": 2.0})

	beyond := campaign(map[string]float64{"a": 0.9, "b": 2.0}) // a: -10%
	rep := Compare(old, beyond, Options{IPCThresholdPct: 2})
	if !rep.Regressed() {
		t.Fatal("10% IPC drop with 2% threshold not flagged")
	}
	regs := rep.Regressions()
	if len(regs) != 1 || regs[0].Key != "fig15/Morrigan/a" {
		t.Fatalf("regressions = %+v", regs)
	}
	if !regs[0].IPCRegressed {
		t.Errorf("verdict flags = %+v", regs[0])
	}

	within := campaign(map[string]float64{"a": 0.99, "b": 2.0}) // a: -1%
	if rep := Compare(old, within, Options{IPCThresholdPct: 2}); rep.Regressed() {
		t.Errorf("1%% IPC drop with 2%% threshold flagged: %+v", rep.Regressions())
	}

	// Zero threshold disables gating entirely.
	if rep := Compare(old, beyond, Options{}); rep.Regressed() {
		t.Errorf("zero threshold flagged a regression: %+v", rep.Regressions())
	}
}

func TestCompareMismatchedAndFailed(t *testing.T) {
	old := campaign(map[string]float64{"a": 1.0, "gone": 1.0, "broken": 1.0})
	neu := campaign(map[string]float64{"a": 1.0, "new": 1.0, "broken": 1.0})
	for i := range neu.Records {
		if neu.Records[i].Workload == "broken" {
			neu.Records[i].Error = "boom"
			neu.Records[i].Stats = nil
		}
	}
	rep := Compare(old, neu, Options{IPCThresholdPct: 2})
	if len(rep.Rows) != 1 || rep.Rows[0].Key != "fig15/Morrigan/a" {
		t.Errorf("rows = %+v", rep.Rows)
	}
	if len(rep.OnlyOld) != 1 || rep.OnlyOld[0] != "fig15/Morrigan/gone" {
		t.Errorf("only-old = %v", rep.OnlyOld)
	}
	if len(rep.OnlyNew) != 1 || rep.OnlyNew[0] != "fig15/Morrigan/new" {
		t.Errorf("only-new = %v", rep.OnlyNew)
	}
	if len(rep.SkippedErrors) != 1 || rep.SkippedErrors[0] != "fig15/Morrigan/broken" {
		t.Errorf("skipped = %v", rep.SkippedErrors)
	}
	if rep.Regressed() {
		t.Error("mismatches/failures must not count as regressions")
	}
}

func TestGeoMeanSpeedup(t *testing.T) {
	old := campaign(map[string]float64{"a": 1.0, "b": 1.0})
	neu := campaign(map[string]float64{"a": 2.0, "b": 0.5})
	rep := Compare(old, neu, Options{})
	if g := rep.GeoMeanSpeedup; g < 0.999 || g > 1.001 {
		t.Errorf("geomean of 2x and 0.5x = %g, want 1.0", g)
	}
}

func TestReportWrite(t *testing.T) {
	old := campaign(map[string]float64{"a": 1.0})
	neu := campaign(map[string]float64{"a": 0.5})
	rep := Compare(old, neu, Options{IPCThresholdPct: 2})
	var sb strings.Builder
	if err := rep.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"fig15/Morrigan/a", "IPC REGRESSED", "-50.00%", "geomean speedup 0.5000"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

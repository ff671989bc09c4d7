package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"morrigan/internal/runner"
	"morrigan/internal/sim"
)

// writeCampaign writes a campaign file with one record per (workload, ipc).
func writeCampaign(t *testing.T, path string, ipcs map[string]float64) {
	t.Helper()
	c := runner.Campaign{Schema: runner.SchemaVersion}
	for wl, ipc := range ipcs {
		c.Records = append(c.Records, runner.Record{
			Experiment: "fig15",
			Config:     "Morrigan",
			Workload:   wl,
			ElapsedMS:  100,
			Stats:      &sim.Stats{IPC: ipc},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := c.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
}

func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	samePath := filepath.Join(dir, "same.json")
	dropPath := filepath.Join(dir, "drop.json")
	boundaryPath := filepath.Join(dir, "boundary.json")
	badPath := filepath.Join(dir, "bad.json")
	futurePath := filepath.Join(dir, "future.json")
	writeCampaign(t, oldPath, map[string]float64{"a": 1.0})
	writeCampaign(t, samePath, map[string]float64{"a": 1.0})
	writeCampaign(t, dropPath, map[string]float64{"a": 0.9}) // -10%
	// Exactly at the threshold: 1 - 1/32 and 3.125% are both binary-exact,
	// so the delta lands precisely on the gate. The comparison is strict
	// (regressed only beyond the threshold), so this must pass.
	writeCampaign(t, boundaryPath, map[string]float64{"a": 0.96875})
	if err := os.WriteFile(badPath, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(futurePath, []byte(`{"schema":99,"records":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args []string
		code int
		want string // substring of stderr, empty = don't care
	}{
		{"no regression", []string{"-threshold", "2", oldPath, samePath}, 0, ""},
		{"regression", []string{"-threshold", "2", oldPath, dropPath}, 1, "regressed"},
		{"exactly at threshold", []string{"-threshold", "3.125", oldPath, boundaryPath}, 0, ""},
		{"zero threshold disables", []string{"-threshold", "0", oldPath, dropPath}, 0, ""},
		{"missing file", []string{oldPath, filepath.Join(dir, "nope.json")}, 2, "no such file"},
		{"malformed json", []string{oldPath, badPath}, 2, "benchdiff:"},
		{"unknown schema", []string{oldPath, futurePath}, 2, "future.json: schema 99"},
		{"missing args", []string{oldPath}, 2, "usage:"},
		{"bad flag", []string{"-threshold", "x", oldPath, samePath}, 2, ""},
	}
	for _, tc := range cases {
		var stdout, stderr strings.Builder
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", tc.name, code, tc.code, stderr.String())
		}
		if tc.want != "" && !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s: stderr %q missing %q", tc.name, stderr.String(), tc.want)
		}
		if strings.Contains(stderr.String(), "benchdiff: benchdiff:") {
			t.Errorf("%s: stderr %q repeats the prefix", tc.name, stderr.String())
		}
	}
}

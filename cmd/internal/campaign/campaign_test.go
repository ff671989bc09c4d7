package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"morrigan"
)

// parse registers the shared flags on a fresh set and parses args.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// tinyJob is a small keyed simulation.
func tinyJob(t *testing.T) morrigan.CampaignJob {
	t.Helper()
	w, _ := morrigan.WorkloadByName("qmm-srv-01")
	return morrigan.CampaignJob{
		Workload:  w.Name,
		Machine:   morrigan.DefaultMachineSpec(),
		Workloads: []morrigan.Workload{w},
		Warmup:    2_000, Measure: 10_000,
	}
}

func TestOpenRejectsResumeWithoutJournal(t *testing.T) {
	_, err := Open("test", parse(t, "-resume"), 0, 10_000)
	if err == nil || !strings.Contains(err.Error(), "-resume requires -journal") {
		t.Fatalf("Open error = %v, want -resume requires -journal", err)
	}
}

// TestOpenRejectsCorpusCacheOutOfRange: a negative budget, or one whose
// byte count overflows int64, is an error rather than the default budget.
func TestOpenRejectsCorpusCacheOutOfRange(t *testing.T) {
	for _, mb := range []string{"-1", "8796093022208"} { // 2^43 MiB = 2^63 bytes
		_, err := Open("test", parse(t, "-corpus-cache-mb", mb), 0, 10_000)
		if err == nil || !strings.Contains(err.Error(), "-corpus-cache-mb") {
			t.Errorf("-corpus-cache-mb %s: Open error = %v, want -corpus-cache-mb out of range", mb, err)
		}
	}
	if c, err := Open("test", parse(t, "-corpus-cache-mb", "8796093022207"), 0, 10_000); err != nil {
		t.Errorf("-corpus-cache-mb 8796093022207 (the largest whose bytes fit int64): %v", err)
	} else {
		c.Close()
	}
}

func TestOpenRejectsIndivisibleSampleInterval(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "run.journal")
	_, err := Open("test", parse(t, "-sample", "-sample-interval", "30000", "-journal", jpath), 0, 100_000)
	if err == nil {
		t.Fatal("Open accepted a measure of 100000 that -sample-interval 30000 does not divide")
	}
	if _, serr := os.Stat(jpath); !os.IsNotExist(serr) {
		t.Errorf("a rejected Open created the journal (stat: %v)", serr)
	}
}

// TestDryRunOpensNothing: a dry run leaves an existing journal byte-identical
// and creates no telemetry directory, output or trace file.
func TestDryRunOpensNothing(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "run.journal")
	jn, err := morrigan.OpenCampaignJournal(jpath, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := morrigan.RunCampaign(context.Background(), []morrigan.CampaignJob{tinyJob(t)}, morrigan.CampaignOptions{Journal: jn}); err != nil {
		t.Fatal(err)
	}
	jn.Close()
	before, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}

	outs := []string{"telem", "r.json", "r.csv", "trace.json"}
	c, err := Open("test", parse(t, "-dry-run", "-journal", jpath,
		"-telemetry", filepath.Join(dir, outs[0]), "-json", filepath.Join(dir, outs[1]),
		"-csv", filepath.Join(dir, outs[2]), "-trace-out", filepath.Join(dir, outs[3]),
		"-serve", "not an address", "-fabric", "not an address"), 2_000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("dry run changed the journal: %d bytes before, %d after", len(before), len(after))
	}
	for _, name := range outs {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("dry run created %s (stat: %v)", name, err)
		}
	}
}

// TestCloseWritesOutputsAfterFailure: a campaign with a failing job still
// gets every output, holding what completed and what failed.
func TestCloseWritesOutputsAfterFailure(t *testing.T) {
	dir := t.TempDir()
	jsonPath, csvPath, tracePath := filepath.Join(dir, "r.json"), filepath.Join(dir, "r.csv"), filepath.Join(dir, "trace.jsonl")
	c, err := Open("test", parse(t, "-json", jsonPath, "-csv", csvPath, "-trace-out", tracePath), 2_000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	bad := tinyJob(t)
	bad.Machine.STLBEntries = 0 // fails validation when the runner builds it
	results, runErr := morrigan.RunCampaign(c.Context, []morrigan.CampaignJob{tinyJob(t), bad}, c.Runner())
	if runErr == nil {
		t.Fatal("campaign with an invalid machine succeeded")
	}
	c.Records.Add(results)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var camp morrigan.Campaign
	if err := json.Unmarshal(raw, &camp); err != nil {
		t.Fatal(err)
	}
	if len(camp.Records) != 2 || camp.Records[0].Error != "" || camp.Records[1].Error == "" {
		t.Errorf("-json records = %+v, want one completed and one failed", camp.Records)
	}
	raw, err = os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(string(raw), "\n"); rows != 3 {
		t.Errorf("-csv has %d lines, want header + 2", rows)
	}
	raw, err = os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"execute"`) {
		t.Errorf("-trace-out holds no execute span:\n%s", raw)
	}
}

// TestOpenFailureFlushesProfiles: a layer that fails to open still gets
// the CPU and heap profiles written.
func TestOpenFailureFlushesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	_, err := Open("test", parse(t, "-journal", filepath.Join(dir, "missing", "j"),
		"-cpuprofile", cpu, "-memprofile", mem), 0, 10_000)
	if err == nil {
		t.Fatal("Open succeeded with a journal in a missing directory")
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written (stat: %v)", filepath.Base(p), err)
		}
	}
}

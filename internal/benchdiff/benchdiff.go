// Package benchdiff compares two campaign result files (the versioned JSON
// emitted by internal/runner) and reports per-workload modelled-performance
// deltas: simulated IPC (did the modelled machine get slower?) and speedup
// (new/old IPC). A configurable threshold turns IPC drops into regression
// verdicts, and cmd/benchdiff exits non-zero when any workload regresses
// beyond it. Host speed is not compared here: bench/ measures it with
// repeats and quartiles.
package benchdiff

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"morrigan/internal/runner"
)

// Row is one matched workload's comparison.
type Row struct {
	// Key is the record identity: "experiment/config/workload".
	Key string
	// OldIPC and NewIPC are the simulated IPCs.
	OldIPC, NewIPC float64
	// Speedup is NewIPC/OldIPC (1.0 = unchanged).
	Speedup float64
	// IPCDeltaPct is the signed IPC change in percent (negative = slower).
	IPCDeltaPct float64
	// IPCRegressed marks a threshold violation.
	IPCRegressed bool
}

// Report is the full comparison.
type Report struct {
	// Rows compare the workloads present in both files, in key order.
	Rows []Row
	// OnlyOld and OnlyNew list unmatched keys (schema drift, renamed or
	// added workloads) — reported, never a regression.
	OnlyOld, OnlyNew []string
	// SkippedErrors lists keys whose record failed in either file.
	SkippedErrors []string
	// GeoMeanSpeedup is the geometric-mean IPC speedup across Rows.
	GeoMeanSpeedup float64
}

// Options configures a comparison.
type Options struct {
	// IPCThresholdPct flags a workload whose IPC dropped by more than this
	// percentage. Zero disables IPC gating (any drop tolerated).
	IPCThresholdPct float64
}

// Load decodes a campaign results JSON file. Every schema from 1 to
// runner.SchemaVersion is accepted, since each version is a superset of the
// one before; anything else is rejected.
func Load(r io.Reader) (runner.Campaign, error) {
	var c runner.Campaign
	dec := json.NewDecoder(r)
	if err := dec.Decode(&c); err != nil {
		return c, fmt.Errorf("decoding campaign: %w", err)
	}
	if c.Schema < 1 || c.Schema > runner.SchemaVersion {
		return c, fmt.Errorf("schema %d, want 1 to %d", c.Schema, runner.SchemaVersion)
	}
	return c, nil
}

// key is a record's identity.
func key(r runner.Record) string {
	return runner.Job{Experiment: r.Experiment, Config: r.Config, Workload: r.Workload}.Name()
}

// index maps records by key, keeping the first of any duplicates.
func index(c runner.Campaign) (map[string]runner.Record, []string) {
	m := make(map[string]runner.Record, len(c.Records))
	keys := make([]string, 0, len(c.Records))
	for _, r := range c.Records {
		k := key(r)
		if _, dup := m[k]; dup {
			continue
		}
		m[k] = r
		keys = append(keys, k)
	}
	return m, keys
}

// Compare matches the two campaigns' records by identity and derives the
// per-workload deltas and regression verdicts.
func Compare(oldC, newC runner.Campaign, opt Options) Report {
	var rep Report
	oldIdx, oldKeys := index(oldC)
	newIdx, newKeys := index(newC)

	for _, k := range newKeys {
		if _, ok := oldIdx[k]; !ok {
			rep.OnlyNew = append(rep.OnlyNew, k)
		}
	}
	logSum, logN := 0.0, 0
	for _, k := range oldKeys {
		o := oldIdx[k]
		n, ok := newIdx[k]
		if !ok {
			rep.OnlyOld = append(rep.OnlyOld, k)
			continue
		}
		if o.Error != "" || n.Error != "" || o.Stats == nil || n.Stats == nil {
			rep.SkippedErrors = append(rep.SkippedErrors, k)
			continue
		}
		row := Row{Key: k, OldIPC: o.Stats.IPC, NewIPC: n.Stats.IPC}
		if row.OldIPC > 0 {
			row.Speedup = row.NewIPC / row.OldIPC
			row.IPCDeltaPct = (row.Speedup - 1) * 100
			logSum += math.Log(row.Speedup)
			logN++
		}
		if opt.IPCThresholdPct > 0 && row.IPCDeltaPct < -opt.IPCThresholdPct {
			row.IPCRegressed = true
		}
		rep.Rows = append(rep.Rows, row)
	}
	sort.Slice(rep.Rows, func(i, j int) bool { return rep.Rows[i].Key < rep.Rows[j].Key })
	sort.Strings(rep.OnlyOld)
	sort.Strings(rep.OnlyNew)
	sort.Strings(rep.SkippedErrors)
	if logN > 0 {
		rep.GeoMeanSpeedup = math.Exp(logSum / float64(logN))
	}
	return rep
}

// Regressions returns the rows that violated the threshold, worst IPC first.
func (r Report) Regressions() []Row {
	var out []Row
	for _, row := range r.Rows {
		if row.IPCRegressed {
			out = append(out, row)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].IPCDeltaPct < out[j].IPCDeltaPct })
	return out
}

// Regressed reports whether any workload violated the threshold.
func (r Report) Regressed() bool { return len(r.Regressions()) > 0 }

// Write renders the report as an aligned text table plus notes.
func (r Report) Write(w io.Writer) error {
	if len(r.Rows) == 0 {
		fmt.Fprintln(w, "benchdiff: no comparable workloads")
	}
	rows := make([][]string, 0, len(r.Rows)+1)
	rows = append(rows, []string{"workload", "ipc old", "ipc new", "delta", "speedup", "verdict"})
	for _, row := range r.Rows {
		verdict := "ok"
		if row.IPCRegressed {
			verdict = "IPC REGRESSED"
		}
		rows = append(rows, []string{
			row.Key,
			fmt.Sprintf("%.3f", row.OldIPC),
			fmt.Sprintf("%.3f", row.NewIPC),
			fmt.Sprintf("%+.2f%%", row.IPCDeltaPct),
			fmt.Sprintf("%.3f", row.Speedup),
			verdict,
		})
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, row := range rows {
		for i, c := range row {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	if len(r.Rows) > 0 {
		fmt.Fprintf(w, "\ngeomean speedup %.4f over %d workloads\n", r.GeoMeanSpeedup, len(r.Rows))
	}
	for _, k := range r.OnlyOld {
		fmt.Fprintf(w, "note: %s only in old file\n", k)
	}
	for _, k := range r.OnlyNew {
		fmt.Fprintf(w, "note: %s only in new file\n", k)
	}
	for _, k := range r.SkippedErrors {
		fmt.Fprintf(w, "note: %s skipped (failed job)\n", k)
	}
	return nil
}

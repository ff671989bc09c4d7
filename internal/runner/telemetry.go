package runner

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"morrigan/internal/sim"
	"morrigan/internal/telemetry"
)

// TelemetryOptions attaches per-job telemetry files to a campaign: each
// full-run job's progress reports (sim.Config.OnProgress, the same reports
// the Observer receives) are differenced into a time series over its
// measurement window (see internal/telemetry) and written as one JSONL file
// into Dir next to the campaign's JSON/CSV results.
type TelemetryOptions struct {
	// Dir receives one "<index>-<job name>.jsonl" file per job. It is
	// created (with parents) if missing.
	Dir string
}

// jobSeries is one job's telemetry series, built from its progress reports.
type jobSeries struct {
	// resetAt is the executed-instruction count at the last stats reset:
	// every report's Executed less its measured Instructions. It changes
	// exactly when the warmup/measure boundary zeroes the counters, even
	// when no report fell between the boundary and the end of the warmup,
	// so the warmup's reports never reach the series.
	resetAt uint64
	series  telemetry.Series
}

// observe adds one progress report to the series.
func (js *jobSeries) observe(p sim.Progress) {
	if at := p.Executed - p.Counters.Instructions; at != js.resetAt {
		js.resetAt = at
		js.series.Reset()
	}
	js.series.Add(p.Counters)
}

// telemetryPath names job i's output file. The zero-padded campaign index
// keeps names unique and listable in job order even when jobs share a name.
func (t *TelemetryOptions) telemetryPath(i int, j Job) string {
	return filepath.Join(t.Dir, fmt.Sprintf("%03d-%s.jsonl", i, sanitizeName(j.Name())))
}

// sanitizeName maps a job's "experiment/config/workload" display name to a
// filesystem-safe file stem.
func sanitizeName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		case r == '-' || r == '.' || r == '_' || r == '+':
			return r
		default:
			return '_'
		}
	}, name)
}

// writeTelemetry writes one job's series to its JSONL file and returns the
// path. Partial series (failed or cancelled jobs) are written too — they are
// exactly the diagnostics a failed job needs.
func (t *TelemetryOptions) writeTelemetry(i int, j Job, js *jobSeries) (string, error) {
	path := t.telemetryPath(i, j)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("runner: %s: telemetry: %w", j.Name(), err)
	}
	werr := js.series.WriteJSONL(f, sim.ProgressInterval)
	cerr := f.Close()
	if werr != nil {
		return "", fmt.Errorf("runner: %s: telemetry: %w", j.Name(), werr)
	}
	if cerr != nil {
		return "", fmt.Errorf("runner: %s: telemetry: %w", j.Name(), cerr)
	}
	return path, nil
}

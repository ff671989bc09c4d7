package runner

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sync"

	"morrigan/internal/sampling"
	"morrigan/internal/sim"
)

// SchemaVersion identifies the campaign result schema. It is bumped whenever
// the JSON/CSV shape changes, so consumers such as cmd/benchdiff can detect
// mismatches instead of misreading fields.
//
// v2 added sampled-execution results: Record.Sampling in JSON and the
// trailing ci95_* columns in CSV (empty for full runs). Consumers that read
// schema-1 files still can — v2 is a strict superset.
const SchemaVersion = 2

// Record is one job's machine-readable result.
type Record struct {
	// Experiment, Config and Workload echo the job identity.
	Experiment string `json:"experiment,omitempty"`
	Config     string `json:"config,omitempty"`
	Workload   string `json:"workload"`
	// Warmup and Measure are the job's instruction counts.
	Warmup  uint64 `json:"warmup"`
	Measure uint64 `json:"measure"`
	// ElapsedMS is the job's wall-clock time in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
	// SimInstructions is the total instructions executed, warmup included.
	SimInstructions uint64 `json:"sim_instructions"`
	// InstrPerSec is the job's simulation throughput (simulated instructions
	// per wall-clock second) — the machine-comparable perf figure.
	InstrPerSec float64 `json:"instr_per_sec"`
	// PeakHeapBytes is the process heap high-water mark observed around the
	// job (shared across concurrent jobs; see runner.Result).
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// Error is the job's failure, if any; Stats is nil in that case.
	Error string `json:"error,omitempty"`
	// Telemetry is the job's JSONL telemetry file, when collection was on.
	// (JSON only — the CSV column set is unchanged so existing consumers
	// and diffs are unaffected.)
	Telemetry string `json:"telemetry,omitempty"`
	// Reused marks results served without simulating: "cache" (in-process
	// result cache), "journal" (checkpoint resume) or "store" (on-disk
	// cross-run result store). Stats are the original run's; the throughput
	// fields are zero, since this job cost nothing. (JSON only — the CSV
	// column set is unchanged.)
	Reused string `json:"reused,omitempty"`
	// Sampling, when present, marks a sampled result: Stats are a weighted
	// extrapolation from representative intervals, and the outcome carries
	// the policy, slice accounting and per-metric 95% confidence intervals.
	Sampling *sampling.Outcome `json:"sampling,omitempty"`
	// Stats is the full measurement snapshot.
	Stats *sim.Stats `json:"stats,omitempty"`
}

// Campaign is the schema-versioned collection of job results.
type Campaign struct {
	// Schema is SchemaVersion at emission time.
	Schema int `json:"schema"`
	// Records lists job results in deterministic job order.
	Records []Record `json:"records"`
}

// NewRecord converts one Result into its machine-readable form.
func NewRecord(res Result) Record {
	r := Record{
		Experiment:      res.Job.Experiment,
		Config:          res.Job.Config,
		Workload:        res.Job.Workload,
		Warmup:          res.Job.Warmup,
		Measure:         res.Job.Measure,
		ElapsedMS:       float64(res.Elapsed.Microseconds()) / 1000,
		SimInstructions: res.SimInstructions,
		InstrPerSec:     res.InstrPerSec,
		PeakHeapBytes:   res.PeakHeapBytes,
		Telemetry:       res.TelemetryPath,
		Reused:          res.Reused,
		Sampling:        res.Sampling,
	}
	if res.Err != nil {
		r.Error = res.Err.Error()
	} else {
		st := res.Stats
		r.Stats = &st
	}
	return r
}

// WriteJSON emits the campaign as indented JSON.
func (c *Campaign) WriteJSON(w io.Writer) error {
	c.Schema = SchemaVersion
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// ciColumns are the trailing CSV columns carrying a sampled record's 95%
// confidence half-widths, in sampling.CI field order. Full-run records leave
// them empty.
var ciColumns = []string{"ci95_ipc", "ci95_l1i_mpki", "ci95_itlb_mpki", "ci95_istlb_mpki", "ci95_dstlb_mpki"}

// ciValues renders one sampled record's confidence columns.
func ciValues(ci sampling.CI) []string {
	return []string{
		fmt.Sprintf("%g", ci.IPC),
		fmt.Sprintf("%g", ci.L1IMPKI),
		fmt.Sprintf("%g", ci.ITLBMPKI),
		fmt.Sprintf("%g", ci.ISTLBMPKI),
		fmt.Sprintf("%g", ci.DSTLBMPKI),
	}
}

// WriteCSV emits the campaign as CSV: one header row (job identity columns
// followed by every sim.Stats field, flattening fixed-size arrays, then the
// ci95_* confidence columns), then one row per record. Failed jobs leave the
// stat columns empty; full (non-sampled) runs leave the ci95_* columns empty.
func (c *Campaign) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{
		"experiment", "config", "workload", "warmup", "measure", "elapsed_ms",
		"sim_instructions", "instr_per_sec", "peak_heap_bytes", "error",
	}, statColumns()...)
	header = append(header, ciColumns...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range c.Records {
		row := []string{
			r.Experiment, r.Config, r.Workload,
			fmt.Sprintf("%d", r.Warmup), fmt.Sprintf("%d", r.Measure),
			fmt.Sprintf("%.3f", r.ElapsedMS),
			fmt.Sprintf("%d", r.SimInstructions),
			fmt.Sprintf("%.0f", r.InstrPerSec),
			fmt.Sprintf("%d", r.PeakHeapBytes),
			r.Error,
		}
		if r.Stats != nil {
			row = append(row, statValues(*r.Stats)...)
		}
		if r.Sampling != nil {
			row = append(row, make([]string, len(header)-len(ciColumns)-len(row))...)
			row = append(row, ciValues(r.Sampling.CI95)...)
		} else {
			row = append(row, make([]string, len(header)-len(row))...)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// statColumns derives the CSV stat column names from sim.Stats by reflection,
// in struct order, flattening array fields as name_0, name_1, ...
func statColumns() []string {
	var cols []string
	t := reflect.TypeOf(sim.Stats{})
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Type.Kind() == reflect.Array {
			for j := 0; j < f.Type.Len(); j++ {
				cols = append(cols, fmt.Sprintf("%s_%d", f.Name, j))
			}
			continue
		}
		cols = append(cols, f.Name)
	}
	return cols
}

// statValues renders one snapshot's fields in statColumns order.
func statValues(st sim.Stats) []string {
	var vals []string
	v := reflect.ValueOf(st)
	var render func(fv reflect.Value)
	render = func(fv reflect.Value) {
		switch fv.Kind() {
		case reflect.Array:
			for j := 0; j < fv.Len(); j++ {
				render(fv.Index(j))
			}
		case reflect.Float64, reflect.Float32:
			vals = append(vals, fmt.Sprintf("%g", fv.Float()))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			vals = append(vals, fmt.Sprintf("%d", fv.Uint()))
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			vals = append(vals, fmt.Sprintf("%d", fv.Int()))
		default:
			vals = append(vals, fmt.Sprint(fv.Interface()))
		}
	}
	for i := 0; i < v.NumField(); i++ {
		render(v.Field(i))
	}
	return vals
}

// Recorder is a thread-safe campaign collector. Batches of results are
// appended in the order the caller presents them, so recording each
// campaign's ordered results keeps the file deterministic.
type Recorder struct {
	mu      sync.Mutex
	records []Record
}

// Add appends the results, preserving their order.
func (r *Recorder) Add(results []Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, res := range results {
		r.records = append(r.records, NewRecord(res))
	}
}

// Len reports the number of recorded results.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.records)
}

// Campaign snapshots the recorded results.
func (r *Recorder) Campaign() Campaign {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Campaign{Schema: SchemaVersion, Records: append([]Record(nil), r.records...)}
}

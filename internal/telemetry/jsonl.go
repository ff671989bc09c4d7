package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// SchemaVersion identifies the telemetry JSONL schema. Every emitted file
// starts with a header line carrying it; it is bumped on incompatible shape
// changes so trajectory-tracking consumers can detect mismatches. Schema 1
// files also carried an event trace and histograms.
const SchemaVersion = 2

// Line kinds in emitted JSONL, in file order: one header, then samples, and
// one summary.
const (
	KindHeader  = "header"
	KindSample  = "sample"
	KindSummary = "summary"
)

// headerLine is the first line of every telemetry file.
type headerLine struct {
	Kind   string `json:"kind"`
	Schema int    `json:"schema"`
	// Interval is the sampling period in instructions; the last sample of a
	// run may be shorter.
	Interval uint64 `json:"interval"`
}

// sampleLine wraps an IntervalSample with its kind tag.
type sampleLine struct {
	Kind string `json:"kind"`
	IntervalSample
}

// summaryLine closes the file.
type summaryLine struct {
	Kind    string `json:"kind"`
	Samples int    `json:"samples"`
}

// WriteJSONL emits the series as JSON Lines: a header recording interval, the
// sampling period in instructions, then the interval samples and a summary.
func (s *Series) WriteJSONL(w io.Writer, interval uint64) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline JSONL needs
	if err := enc.Encode(headerLine{Kind: KindHeader, Schema: SchemaVersion, Interval: interval}); err != nil {
		return err
	}
	for i := range s.samples {
		if err := enc.Encode(sampleLine{Kind: KindSample, IntervalSample: s.samples[i]}); err != nil {
			return err
		}
	}
	if err := enc.Encode(summaryLine{Kind: KindSummary, Samples: len(s.samples)}); err != nil {
		return err
	}
	return bw.Flush()
}

// ParseJSONL decodes and validates a telemetry file: every line must be a
// JSON object with a "kind", the first line must be a header carrying a
// known schema version, and the last a summary. It returns the decoded
// lines for further inspection.
func ParseJSONL(r io.Reader) ([]map[string]any, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var lines []map[string]any
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", len(lines)+1, err)
		}
		kind, _ := m["kind"].(string)
		if kind == "" {
			return nil, fmt.Errorf("telemetry: line %d: missing kind", len(lines)+1)
		}
		lines = append(lines, m)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("telemetry: empty file")
	}
	if lines[0]["kind"] != KindHeader {
		return nil, fmt.Errorf("telemetry: first line is %q, want header", lines[0]["kind"])
	}
	if v, ok := lines[0]["schema"].(float64); !ok || int(v) != SchemaVersion {
		return nil, fmt.Errorf("telemetry: schema %v, want %d", lines[0]["schema"], SchemaVersion)
	}
	if lines[len(lines)-1]["kind"] != KindSummary {
		return nil, fmt.Errorf("telemetry: last line is %q, want summary (truncated file?)", lines[len(lines)-1]["kind"])
	}
	return lines, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchmarkFile is BENCHMARK.json at the repository root: the workloads and
// the metric names, units, directions and regression bounds. It is the one
// place those are defined; the code here only knows how to measure each
// name.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// metricDef is one metric entry. Bound, set on end-to-end metrics only, is
// the share of the baseline median by which the metric may worsen before a
// change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// worse is how much worse b is than a, as a share of a's magnitude:
// positive when b regressed, negative when it improved.
func (m metricDef) worse(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if m.Better == "higher" {
		return -d
	}
	return d
}

// openBenchmark reads BENCHMARK.json from the working directory (the
// repository root) or its parent (when run from bench/).
func openBenchmark() (*benchmarkFile, error) {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if _, err := os.Stat(p); err == nil {
			return loadBenchmark(p)
		}
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &b, nil
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// layers are the packages under internal/ whose host CPU time the traced
// run reports, plus go-runtime for the garbage collector, the scheduler and
// every sample outside them.
var layers = []string{
	"trace", "tracestore", "sim", "tlb", "ptw", "pagetable", "cache", "cpu",
	"tlbprefetch", "core", "icache", "sampling", "machine", "runner",
	"resultstore", "experiments", "go-runtime",
}

const internalPrefix = "morrigan/internal/"

// frameLayer returns the layer a pprof frame's function belongs to, or ""
// for a frame outside every layer package (the standard library, the
// runtime, helper packages such as arch and stats, this benchmark).
func frameLayer(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return ""
}

// attributeCPU reads `go tool pprof -traces` output and returns the CPU
// nanoseconds charged to each layer. A sample is charged to its innermost
// frame in a layer package, so math/rand under the trace generator counts
// as trace and an allocation counts against the layer that asked for it;
// a sample with no such frame goes to go-runtime. Every sample lands in
// exactly one layer, so the shares sum to the profile's total.
func attributeCPU(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64, len(layers))
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	// Each stack is a block opened by a separator line. Its first line
	// holds the sample value and the leaf frame; the following lines hold
	// the callers, innermost first.
	const header, sample, frames = 0, 1, 2
	state, charged := header, true
	var value float64
	finish := func() {
		if state == frames && !charged {
			out["go-runtime"] += value
		}
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			finish()
			state = sample
			continue
		}
		fields := strings.Fields(line)
		if state == header || len(fields) == 0 {
			continue
		}
		if state == sample {
			v, err := parseDuration(fields[0])
			if err != nil {
				return nil, err
			}
			value, charged, state = v, false, frames
			fields = fields[1:]
		}
		if !charged && len(fields) > 0 {
			if l := frameLayer(fields[0]); l != "" {
				out[l] += value
				charged = true
			}
		}
	}
	finish()
	return out, sc.Err()
}

// pprofUnits are the time units pprof prints a stack's sample value in,
// the longer suffixes first.
var pprofUnits = []struct {
	suffix string
	ns     float64
}{
	{"ns", 1}, {"us", 1e3}, {"ms", 1e6}, {"s", 1e9},
}

// parseDuration converts a pprof sample value such as "10ms" or "1.20s" to
// nanoseconds.
func parseDuration(s string) (float64, error) {
	for _, u := range pprofUnits {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				break
			}
			return v * u.ns, nil
		}
	}
	return 0, fmt.Errorf("pprof: unrecognised sample value %q", s)
}

// profileLayers attributes a CPU profile to the layers with go tool pprof.
func profileLayers(ctx context.Context, profile string) (map[string]float64, error) {
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", profile)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return attributeCPU(bytes.NewReader(out))
}

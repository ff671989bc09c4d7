// Command benchdiff compares two campaign result files (the versioned JSON
// written by the -json flag of morrigansim or experiments) and reports
// per-workload IPC and speedup. It exits 1 when any workload's IPC dropped
// beyond the threshold, making the modelled machine's performance a
// CI-checkable property:
//
//	benchdiff -threshold 2 results_old.json results_new.json
//
// It compares modelled results only; bench/ measures the simulator's own
// speed.
//
// Exit codes: 0 no regression, 1 regression detected, 2 usage or I/O error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"morrigan/internal/benchdiff"
	"morrigan/internal/runner"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: benchdiff [flags] old.json new.json\n\n")
		fs.PrintDefaults()
	}
	threshold := fs.Float64("threshold", 2.0,
		"flag a workload whose IPC dropped by more than this percent (0 disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}

	oldC, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	newC, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}

	rep := benchdiff.Compare(oldC, newC, benchdiff.Options{IPCThresholdPct: *threshold})
	if err := rep.Write(stdout); err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	if rep.Regressed() {
		fmt.Fprintf(stderr, "benchdiff: %d workload(s) regressed beyond threshold\n", len(rep.Regressions()))
		return 1
	}
	return 0
}

// load opens and decodes one campaign file.
func load(path string) (runner.Campaign, error) {
	f, err := os.Open(path)
	if err != nil {
		return runner.Campaign{}, err
	}
	defer f.Close()
	c, err := benchdiff.Load(f)
	if err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

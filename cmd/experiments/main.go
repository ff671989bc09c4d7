// Command experiments regenerates the paper's tables and figures on the
// synthetic workload suite.
//
// Examples:
//
//	experiments -exp all                 # everything, default scale
//	experiments -exp fig15 -v            # one figure with progress output
//	experiments -exp fig9,fig15 -quick   # reduced scale
//	experiments -exp all -full -out results.txt
//	experiments -exp all -quick -jobs 8  # fan out over 8 workers
//	experiments -exp fig15 -json results.json -csv results.csv
//	experiments -exp fig9,fig15 -corpus corpus/  # share materialised traces across configs
//	experiments -exp all -journal run.journal    # checkpoint every completed simulation
//	experiments -exp all -journal run.journal -resume  # skip already-journaled jobs
//	experiments -exp all -results results/       # reuse stored results across runs
//	experiments -exp all -fabric :9090           # delegate jobs to fabric workers
//	experiments -exp fig9 -quick -fabric :9090 -lease-ttl 5s -trace-out leases.json  # coordinator spans
//	experiments -exp fig15 -dry-run              # print enumerated jobs, simulate nothing
//	experiments -exp fig15 -sample -corpus corpus/  # sampled mode: timed slices + 95% CIs
//	experiments -exp fig15 -trace-out trace.json # Perfetto-loadable lifecycle trace
//
// SIGINT or SIGTERM stops the campaign: with -fabric, outstanding worker
// leases drain first; every output then holds what completed, and the
// command exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"morrigan"
	"morrigan/cmd/internal/campaign"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiment IDs, or 'all' (see -list)")
		quick   = flag.Bool("quick", false, "reduced scale (benchmark-sized)")
		full    = flag.Bool("full", false, "paper-scale methodology (slow)")
		warmup  = flag.Uint64("warmup", 0, "override warmup instructions per run")
		measure = flag.Uint64("measure", 0, "override measured instructions per run")
		out     = flag.String("out", "", "write results to a file instead of stdout")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
	)
	cf := campaign.Register(flag.CommandLine)
	flag.DurationVar(&cf.LeaseTTL, "lease-ttl", 0, "with -fabric, how long a silent worker keeps its lease before the job is reassigned (0 = 30s)")
	flag.Parse()

	if *list {
		for _, id := range morrigan.ExperimentIDs() {
			fmt.Println(id)
		}
		return nil
	}
	ids := morrigan.ExperimentIDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
			if !slices.Contains(morrigan.ExperimentIDs(), ids[i]) {
				return fmt.Errorf("unknown experiment %q (see -list)", ids[i])
			}
		}
	}

	opt := morrigan.DefaultExperimentOptions()
	if *quick {
		opt = morrigan.QuickExperimentOptions()
	}
	if *full {
		opt = morrigan.FullExperimentOptions()
	}
	if *warmup > 0 {
		opt.Warmup = *warmup
	}
	if *measure > 0 {
		opt.Measure = *measure
	}
	c, err := campaign.Open("experiments", cf, opt.Warmup, opt.Measure)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, c.Close()) }()
	opt = c.Experiments(opt)
	// One result cache for the whole sweep: experiments share baseline
	// (machine, workload, scale) triples, so each distinct triple simulates
	// exactly once and every later occurrence is served from the cache.
	// Rendered tables are unaffected — cached stats are the original run's,
	// bit for bit. Each served record carries reused "cache" in -json output.
	opt.Cache = morrigan.NewCampaignResultCache()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, ferr := os.Create(*out)
		if ferr != nil {
			return ferr
		}
		defer func() { err = errors.Join(err, f.Close()) }()
		w = f
	}
	if !cf.DryRun {
		fmt.Fprintf(w, "Morrigan reproduction experiments (warmup %d, measure %d instructions per run)\n\n",
			opt.Warmup, opt.Measure)
	}
	for _, id := range ids {
		start := time.Now()
		tab, err := morrigan.RunExperiment(id, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if cf.DryRun {
			continue // jobs were printed as they were enumerated; tables are all zeros
		}
		tab.Render(w)
		fmt.Fprintf(os.Stderr, "%s finished in %s\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

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
//	experiments -exp fig15 -dry-run              # print enumerated jobs, simulate nothing
//	experiments -exp fig15 -sample -corpus corpus/  # sampled mode: timed slices + 95% CIs
//	experiments -exp fig15 -trace-out trace.json # Perfetto-loadable lifecycle trace
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"morrigan"
	"morrigan/internal/profile"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "comma-separated experiment IDs, or 'all' (see -list)")
		quick     = flag.Bool("quick", false, "reduced scale (benchmark-sized)")
		full      = flag.Bool("full", false, "paper-scale methodology (slow)")
		warmup    = flag.Uint64("warmup", 0, "override warmup instructions per run")
		measure   = flag.Uint64("measure", 0, "override measured instructions per run")
		jobs      = flag.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
		out       = flag.String("out", "", "write results to a file instead of stdout")
		jsonOut   = flag.String("json", "", "write per-simulation results as JSON to a file ('-' for stdout)")
		csvOut    = flag.String("csv", "", "write per-simulation results as CSV to a file ('-' for stdout)")
		telem     = flag.String("telemetry", "", "write per-simulation telemetry JSONL files into this directory")
		serve     = flag.String("serve", "", "serve live observability HTTP on this address (e.g. :8080): /metrics, /campaign, /events, /healthz, /debug/pprof")
		corpus    = flag.String("corpus", "", "feed workloads from materialised trace corpora in this directory (built on first use)")
		corpusMB  = flag.Int64("corpus-cache-mb", 0, "decoded-chunk cache budget in MiB shared by all jobs (0 = default 512)")
		journal   = flag.String("journal", "", "checkpoint completed simulations to this journal file")
		resume    = flag.Bool("resume", false, "serve already-journaled results from -journal instead of re-simulating")
		results   = flag.String("results", "", "durable result store directory: reuse stored results across runs and persist new ones")
		fabric    = flag.String("fabric", "", "serve a distributed-campaign coordinator on this address (e.g. :9090) and delegate jobs to fabric workers")
		traceOut  = flag.String("trace-out", "", "write a distributed trace of every job's lifecycle phases to this file (.jsonl for JSONL, otherwise Chrome trace-event JSON for Perfetto)")
		sample    = flag.Bool("sample", false, "representative-interval sampling for eligible jobs: time only clustered representative slices and report extrapolated stats with 95% CIs")
		sampleInt = flag.Uint64("sample-interval", 0, "sampling interval length in instructions (0 = default 100000; measure must be a multiple)")
		sampleK   = flag.Int("sample-clusters", 0, "sampling cluster count / representative slices per run (0 = default 8)")
		sampleWu  = flag.Int64("sample-warmup", -1, "timed slice warmup instructions before each representative (-1 = default 25000, 0 = none)")
		dryRun    = flag.Bool("dry-run", false, "print enumerated jobs (key, machine and workload hashes, scale) without simulating")
		verbose   = flag.Bool("v", false, "print per-simulation progress with ETA")
		list      = flag.Bool("list", false, "list experiment IDs and exit")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file when the sweep completes")
	)
	flag.Parse()

	if *list {
		for _, id := range morrigan.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}

	stopProf, profErr := profile.Start(*cpuProf, *memProf)
	if profErr != nil {
		fatal("%v", profErr)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

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
	opt.Jobs = *jobs
	opt.Context = ctx
	if *verbose {
		opt.Progress = os.Stderr
	}
	var rec *morrigan.CampaignRecorder
	if *jsonOut != "" || *csvOut != "" {
		rec = &morrigan.CampaignRecorder{}
		opt.Record = rec
	}
	var tracer *morrigan.TraceRecorder
	if *traceOut != "" {
		tracer = morrigan.NewTraceRecorder("")
		opt.Spans = tracer
	}
	if *telem != "" {
		opt.Telemetry = &morrigan.CampaignTelemetry{Dir: *telem}
	}
	var store *morrigan.CorpusStore
	if *corpus != "" {
		var err error
		store, err = morrigan.OpenCorpusStore(morrigan.CorpusOptions{
			Dir:        *corpus,
			CacheBytes: *corpusMB << 20,
		})
		if err != nil {
			fatal("%v", err)
		}
		defer store.Close()
		opt.Corpus = store
	}
	var profiles *morrigan.SamplingProfileStore
	if *sample {
		p := morrigan.DefaultSamplingPolicy()
		if *sampleInt != 0 {
			p.Interval = *sampleInt
		}
		if *sampleK != 0 {
			p.Clusters = *sampleK
		}
		if *sampleWu >= 0 {
			p.SliceWarmup = uint64(*sampleWu)
		}
		if err := p.Validate(opt.Measure); err != nil {
			fatal("%v", err)
		}
		opt.Sampling = &p
		if *corpus != "" {
			// Profile artifacts live beside the trace corpus so repeated
			// sampled sweeps skip the functional profiling pass.
			var err error
			profiles, err = morrigan.OpenSamplingProfileStore(filepath.Join(*corpus, "profiles"))
			if err != nil {
				fatal("profiles: %v", err)
			}
			opt.Profiles = profiles
		}
	}
	// One result cache for the whole sweep: experiments share baseline
	// (machine, workload, scale) triples, so each distinct triple simulates
	// exactly once and every later occurrence is served from the cache.
	// Rendered tables are unaffected — cached stats are the original run's,
	// bit for bit. Each served record carries reused "cache" in -json output.
	opt.Cache = morrigan.NewCampaignResultCache()
	if *journal != "" {
		jn, err := morrigan.OpenCampaignJournal(*journal, *resume)
		if err != nil {
			fatal("journal: %v", err)
		}
		defer jn.Close()
		if *resume && jn.Len() > 0 {
			fmt.Fprintf(os.Stderr, "experiments: resuming with %d journaled results\n", jn.Len())
		}
		opt.Journal = jn
	} else if *resume {
		fatal("-resume requires -journal")
	}
	if *results != "" {
		rs, err := morrigan.OpenResultStore(*results)
		if err != nil {
			fatal("results: %v", err)
		}
		if rs.Len() > 0 || rs.Skipped() > 0 {
			fmt.Fprintf(os.Stderr, "experiments: result store holds %d reusable results (%d unverifiable skipped)\n",
				rs.Len(), rs.Skipped())
		}
		opt.Store = rs
	}
	var srv *morrigan.ObservabilityServer
	if *serve != "" {
		srv = morrigan.NewObservabilityServer()
		addr, err := srv.Start(*serve)
		if err != nil {
			fatal("serve: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "experiments: observability on http://%s/metrics\n", addr)
		opt.Observer = srv
		if opt.Journal != nil {
			srv.AddReadiness("journal", opt.Journal.Writable)
		}
		if *sample {
			srv.AddGaugeSource(morrigan.SamplingGauges(profiles))
		}
	}
	if *fabric != "" {
		coord := morrigan.NewFabricCoordinator(morrigan.FabricCoordinatorOptions{
			Corpus: store,
			Log:    os.Stderr,
			Spans:  tracer,
		})
		addr, err := coord.Start(*fabric)
		if err != nil {
			fatal("fabric: %v", err)
		}
		defer coord.Close()
		fmt.Fprintf(os.Stderr, "experiments: fabric coordinator on http://%s/fabric/status — start workers with: fabric work -coordinator http://%s\n", addr, addr)
		opt.Remote = coord
		if srv != nil {
			srv.AddGaugeSource(coord.Gauges)
		}
	}
	if *dryRun {
		opt.DryRun = os.Stdout
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		w = f
	}

	ids := morrigan.ExperimentIDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	if !*dryRun {
		fmt.Fprintf(w, "Morrigan reproduction experiments (warmup %d, measure %d instructions per run)\n\n",
			opt.Warmup, opt.Measure)
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		tab, err := morrigan.RunExperiment(id, opt)
		if err != nil {
			emitRecords(rec, *jsonOut, *csvOut)
			writeTrace(*traceOut, tracer)
			fatal("%s: %v", id, err)
		}
		if *dryRun {
			continue // jobs were printed as they were enumerated; tables are all zeros
		}
		tab.Render(w)
		fmt.Fprintf(os.Stderr, "%s finished in %s\n", id, time.Since(start).Round(time.Millisecond))
	}
	emitRecords(rec, *jsonOut, *csvOut)
	writeTrace(*traceOut, tracer)
}

// writeTrace exports the collected spans to path; a nil tracer is a no-op.
func writeTrace(path string, tracer *morrigan.TraceRecorder) {
	if tracer == nil {
		return
	}
	if err := morrigan.WriteTraceFile(path, tracer.Spans()); err != nil {
		fatal("trace-out: %v", err)
	}
	fmt.Fprintf(os.Stderr, "experiments: wrote %d trace spans to %s\n", tracer.Len(), path)
}

// emitRecords writes whatever the recorder has collected so far; on a partial
// (failed or interrupted) campaign that is every completed simulation.
func emitRecords(rec *morrigan.CampaignRecorder, jsonOut, csvOut string) {
	if rec == nil {
		return
	}
	c := rec.Campaign()
	write := func(path string, emit func(io.Writer) error) {
		if path == "" {
			return
		}
		var w io.Writer = os.Stdout
		if path != "-" {
			f, err := os.Create(path)
			if err != nil {
				fatal("%v", err)
			}
			defer f.Close()
			w = f
		}
		if err := emit(w); err != nil {
			fatal("%v", err)
		}
	}
	write(jsonOut, c.WriteJSON)
	write(csvOut, c.WriteCSV)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}

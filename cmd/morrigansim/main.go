// Command morrigansim runs one or more workloads through the simulator under
// a chosen iSTLB-prefetching configuration and prints the measurement
// snapshots.
//
// Examples:
//
//	morrigansim -workload qmm-srv-07 -prefetcher morrigan
//	morrigansim -workload qmm-srv-07 -prefetcher none -perfect
//	morrigansim -workload qmm-srv-03 -smt qmm-srv-19 -prefetcher morrigan2x
//	morrigansim -workload cassandra -icache fnlmma -icache-tlb-cost
//	morrigansim -trace trace.mtc -prefetcher sp
//	morrigansim -workload qmm-srv-01,qmm-srv-02,qmm-srv-03 -jobs 3 -json -
//	morrigansim -workload qmm-srv-01 -corpus corpus/ -prefetcher morrigan
//	morrigansim -prefetcher morrigan -dump-config spec.json
//	morrigansim -workload qmm-srv-07 -config spec.json
//	morrigansim -workload qmm-srv-01,qmm-srv-02 -journal run.journal
//	morrigansim -workload qmm-srv-01,qmm-srv-02 -journal run.journal -resume
//	morrigansim -workload qmm-srv-01,qmm-srv-02 -results results/
//	morrigansim -workload qmm-srv-01,qmm-srv-02 -fabric :9090
//	morrigansim -workload qmm-srv-01 -smt qmm-srv-19 -dry-run
//	morrigansim -workload qmm-srv-01,qmm-srv-02 -trace-out trace.json
//	morrigansim -workload qmm-srv-01 -measure 10000000 -sample -corpus corpus/
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"

	"morrigan"
	"morrigan/internal/profile"
)

func main() {
	var (
		workload  = flag.String("workload", "qmm-srv-01", "comma-separated built-in workload names (see -list)")
		traceFile = flag.String("trace", "", "corpus container file (tracegen -o) to execute instead of a built-in workload")
		smt       = flag.String("smt", "", "colocate this second workload on an SMT thread of every run")
		pf        = flag.String("prefetcher", "none", "iSTLB prefetcher: none|sp|asp|dp|mp|mp2inf|mpinf|morrigan|morrigan2x|mono")
		icachePf  = flag.String("icache", "nextline", "I-cache prefetcher: nextline|fnlmma|epi|djolt")
		icacheTLB = flag.Bool("icache-tlb-cost", false, "charge address translation for page-crossing I-cache prefetches")
		perfect   = flag.Bool("perfect", false, "perfect iSTLB (all instruction lookups hit)")
		p2tlb     = flag.Bool("p2tlb", false, "prefetch directly into the STLB instead of the PB")
		asap      = flag.Bool("asap", false, "enable ASAP-style parallel page walks")
		stlb      = flag.Int("stlb", 1536, "STLB entries")
		pb        = flag.Int("pb", 64, "prefetch buffer entries")
		warmup    = flag.Uint64("warmup", 1_000_000, "warmup instructions")
		measure   = flag.Uint64("measure", 5_000_000, "measured instructions")
		jobs      = flag.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
		jsonOut   = flag.String("json", "", "write per-simulation results as JSON to a file ('-' for stdout)")
		csvOut    = flag.String("csv", "", "write per-simulation results as CSV to a file ('-' for stdout)")
		telemOut  = flag.String("telemetry", "", "write per-simulation telemetry JSONL files into this directory")
		interval  = flag.Uint64("interval", 0, "telemetry sampling interval in instructions (0 = default 100000)")
		events    = flag.Int("events", 0, "telemetry event-ring capacity (0 = default 4096, negative disables the event trace)")
		serve     = flag.String("serve", "", "serve live observability HTTP on this address (e.g. :8080): /metrics, /campaign, /events, /healthz, /debug/pprof")
		corpus    = flag.String("corpus", "", "feed workloads from materialised trace corpora in this directory (built on first use)")
		corpusMB  = flag.Int64("corpus-cache-mb", 0, "decoded-chunk cache budget in MiB shared by all jobs (0 = default 512)")
		confIn    = flag.String("config", "", "load the machine spec from this JSON file (overrides the machine flags)")
		confOut   = flag.String("dump-config", "", "write the machine spec as JSON to this file ('-' for stdout) and exit")
		journal   = flag.String("journal", "", "checkpoint completed simulations to this journal file")
		resume    = flag.Bool("resume", false, "serve already-journaled results from -journal instead of re-simulating")
		results   = flag.String("results", "", "durable result store directory: reuse stored results across runs and persist new ones")
		fabricURL = flag.String("fabric", "", "serve a distributed-campaign coordinator on this address (e.g. :9090) and delegate jobs to fabric workers")
		traceOut  = flag.String("trace-out", "", "write a distributed trace of every job's lifecycle phases to this file (.jsonl for JSONL, otherwise Chrome trace-event JSON for Perfetto)")
		sample    = flag.Bool("sample", false, "representative-interval sampling: time only clustered representative slices and report extrapolated stats with 95% CIs")
		sampleInt = flag.Uint64("sample-interval", 0, "sampling interval length in instructions (0 = default 100000; -measure must be a multiple)")
		sampleK   = flag.Int("sample-clusters", 0, "sampling cluster count / representative slices per run (0 = default 8)")
		sampleWu  = flag.Int64("sample-warmup", -1, "timed slice warmup instructions before each representative (-1 = default 25000, 0 = none)")
		dryRun    = flag.Bool("dry-run", false, "print enumerated jobs (key, machine and workload hashes, scale) without simulating")
		verbose   = flag.Bool("v", false, "print per-simulation progress with ETA")
		list      = flag.Bool("list", false, "list built-in workloads and exit")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file when the run completes")
	)
	flag.Parse()

	stopProf, profErr := profile.Start(*cpuProf, *memProf)
	if profErr != nil {
		fatal("%v", profErr)
	}
	flushProfiles := func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "morrigansim:", err)
		}
	}
	defer flushProfiles()

	if *list {
		var names []string
		for _, w := range morrigan.QMMWorkloads() {
			names = append(names, w.Name)
		}
		for _, w := range morrigan.SPECWorkloads() {
			names = append(names, w.Name)
		}
		for _, w := range morrigan.JavaWorkloads() {
			names = append(names, w.Name)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}

	// The machine under test is a declarative spec: built from the flags, or
	// loaded verbatim from -config. Either way Build validates it before any
	// simulation launches.
	spec := specFromFlags(*pf, *icachePf, *perfect, *p2tlb, *asap, *icacheTLB, *stlb, *pb)
	pfLabel := *pf
	if *confIn != "" {
		f, err := os.Open(*confIn)
		if err != nil {
			fatal("%v", err)
		}
		spec, err = morrigan.LoadMachineSpec(f)
		f.Close()
		if err != nil {
			fatal("config %s: %v", *confIn, err)
		}
		// The machine came from the spec file, so the displayed prefetcher
		// must too — the -prefetcher flag did not shape this run.
		switch {
		case spec.PerfectISTLB:
			pfLabel = "perfect"
		case spec.Prefetcher.Kind == "":
			pfLabel = "none"
		default:
			pfLabel = spec.Prefetcher.Kind
		}
	}
	if _, err := spec.Build(); err != nil {
		fatal("%v", err)
	}
	if *confOut != "" {
		var w io.Writer = os.Stdout
		if *confOut != "-" {
			f, err := os.Create(*confOut)
			if err != nil {
				fatal("%v", err)
			}
			defer f.Close()
			w = f
		}
		if err := morrigan.SaveMachineSpec(w, spec); err != nil {
			fatal("%v", err)
		}
		return
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
	}

	var traceCorpus *morrigan.Corpus
	if *traceFile != "" {
		c, err := morrigan.OpenCorpusFile(*traceFile)
		if err != nil {
			fatal("%v", err)
		}
		defer c.Close()
		traceCorpus = c
	}
	cjobs := buildJobs(*workload, *traceFile, traceCorpus, *smt, spec, *warmup, *measure)
	var pol *morrigan.SamplingPolicy
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
		if err := p.Validate(*measure); err != nil {
			fatal("%v", err)
		}
		pol = &p
		for i := range cjobs {
			// Sampling needs a single workload-described stream: trace-file
			// jobs (NewThreads) and SMT pairs must simulate in full.
			if cjobs[i].NewThreads != nil || len(cjobs[i].Workloads) != 1 {
				fatal("-sample requires single-workload jobs (no -trace, no -smt)")
			}
			cjobs[i].Sampling = pol
		}
	}
	if *dryRun {
		for _, j := range cjobs {
			fmt.Println(j.Describe())
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opt := morrigan.CampaignOptions{Workers: *jobs}
	var tracer *morrigan.TraceRecorder
	if *traceOut != "" {
		tracer = morrigan.NewTraceRecorder("")
		opt.Spans = tracer
	}
	var profiles *morrigan.SamplingProfileStore
	if pol != nil && *corpus != "" {
		// Profile artifacts live beside the trace corpus so repeated sampled
		// campaigns skip the functional profiling pass.
		var err error
		profiles, err = morrigan.OpenSamplingProfileStore(filepath.Join(*corpus, "profiles"))
		if err != nil {
			fatal("profiles: %v", err)
		}
		opt.Profiles = profiles
	}
	if store != nil {
		opt.NewReader = func(w morrigan.Workload) (morrigan.TraceReader, error) {
			c, err := store.Materialize(w, *warmup+*measure)
			if err != nil {
				return nil, fmt.Errorf("corpus %s: %w", w.Name, err)
			}
			return c.NewReader(), nil
		}
	}
	if *journal != "" {
		jn, err := morrigan.OpenCampaignJournal(*journal, *resume)
		if err != nil {
			fatal("journal: %v", err)
		}
		defer jn.Close()
		if *resume && jn.Len() > 0 {
			fmt.Fprintf(os.Stderr, "morrigansim: resuming with %d journaled results\n", jn.Len())
		}
		opt.Journal = jn
	} else if *resume {
		fatal("-resume requires -journal")
	}
	if *verbose {
		opt.Progress = morrigan.CampaignWriterProgress(os.Stderr)
	}
	if *telemOut != "" {
		opt.Telemetry = &morrigan.CampaignTelemetry{
			Dir:    *telemOut,
			Config: morrigan.TelemetryConfig{Interval: *interval, EventBuffer: *events},
		}
	}
	if *results != "" {
		rs, err := morrigan.OpenResultStore(*results)
		if err != nil {
			fatal("results: %v", err)
		}
		if rs.Len() > 0 || rs.Skipped() > 0 {
			fmt.Fprintf(os.Stderr, "morrigansim: result store holds %d reusable results (%d unverifiable skipped)\n",
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
		fmt.Fprintf(os.Stderr, "morrigansim: observability on http://%s/metrics\n", addr)
		opt.Observer = srv
		if opt.Journal != nil {
			srv.AddReadiness("journal", opt.Journal.Writable)
		}
		if pol != nil {
			srv.AddGaugeSource(morrigan.SamplingGauges(profiles))
		}
	}
	if *fabricURL != "" {
		coord := morrigan.NewFabricCoordinator(morrigan.FabricCoordinatorOptions{
			Corpus: store,
			Log:    os.Stderr,
			Spans:  tracer,
		})
		addr, err := coord.Start(*fabricURL)
		if err != nil {
			fatal("fabric: %v", err)
		}
		defer coord.Close()
		fmt.Fprintf(os.Stderr, "morrigansim: fabric coordinator on http://%s/fabric/status — start workers with: fabric work -coordinator http://%s\n", addr, addr)
		opt.Remote = coord
		if srv != nil {
			srv.AddGaugeSource(coord.Gauges)
		}
	}
	campaignResults, err := morrigan.RunCampaign(ctx, cjobs, opt)

	for i, res := range campaignResults {
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "morrigansim: %s: %v\n", res.Job.Workload, res.Err)
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		printStats(res.Job.Workload, pfLabel, res.Stats)
		if o := res.Sampling; o != nil {
			fmt.Printf("sampled         %d/%d intervals timed (%d instr timed, %d fast-forwarded)\n",
				o.Slices, o.Intervals, o.TimedInstructions, o.FastForwarded)
			fmt.Printf("ci95            IPC ±%.4f, iSTLB MPKI ±%.4f, dSTLB MPKI ±%.4f\n",
				o.CI95.IPC, o.CI95.ISTLBMPKI, o.CI95.DSTLBMPKI)
		}
		if res.Reused != "" {
			fmt.Printf("reused          %s\n", res.Reused)
		}
		if res.TelemetryPath != "" {
			fmt.Printf("telemetry       %s\n", res.TelemetryPath)
		}
	}
	writeCampaign(*jsonOut, campaignResults, (*morrigan.Campaign).WriteJSON)
	writeCampaign(*csvOut, campaignResults, (*morrigan.Campaign).WriteCSV)
	if tracer != nil {
		if err := morrigan.WriteTraceFile(*traceOut, tracer.Spans()); err != nil {
			fatal("trace-out: %v", err)
		}
		fmt.Fprintf(os.Stderr, "morrigansim: wrote %d trace spans to %s\n", tracer.Len(), *traceOut)
	}
	if err != nil {
		flushProfiles()
		os.Exit(1)
	}
}

// writeCampaign emits the campaign's machine-readable results to path ('-'
// for stdout) using the given emitter; an empty path is a no-op.
func writeCampaign(path string, results []morrigan.CampaignResult, emit func(*morrigan.Campaign, io.Writer) error) {
	if path == "" {
		return
	}
	c := morrigan.Campaign{Schema: morrigan.CampaignSchemaVersion}
	for _, res := range results {
		c.Records = append(c.Records, morrigan.NewCampaignRecord(res))
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
	if err := emit(&c, w); err != nil {
		fatal("%v", err)
	}
}

// specFromFlags assembles the declarative machine spec the flags describe:
// the Table 1 machine with the named iSTLB and I-cache prefetchers and the
// geometry overrides applied. Unknown prefetcher names fail immediately,
// before any simulation launches.
func specFromFlags(pf, icachePf string, perfect, p2tlb, asap, icacheTLB bool, stlb, pb int) morrigan.MachineSpec {
	spec := morrigan.DefaultMachineSpec()
	spec.PerfectISTLB = perfect
	spec.PrefetchIntoSTLB = p2tlb
	spec.Walker.ASAP = asap
	spec.STLBEntries = stlb
	spec.PBEntries = pb
	spec.ICacheTLBCost = icacheTLB

	switch pf {
	case "none":
	case "sp":
		spec.Prefetcher = morrigan.SPSpec()
	case "asp":
		spec.Prefetcher = morrigan.ASPSpec(440)
	case "dp":
		spec.Prefetcher = morrigan.DPSpec(648)
	case "mp":
		spec.Prefetcher = morrigan.MPSpec(128, 4)
	case "mp2inf":
		spec.Prefetcher = morrigan.UnboundedMPSpec(2)
	case "mpinf":
		spec.Prefetcher = morrigan.UnboundedMPSpec(0)
	case "morrigan":
		spec.Prefetcher = morrigan.MorriganMachineSpec(morrigan.DefaultPrefetcherConfig())
	case "morrigan2x":
		spec.Prefetcher = morrigan.MorriganMachineSpec(morrigan.ScaledPrefetcherConfig(2))
	case "mono":
		spec.Prefetcher = morrigan.MorriganMachineSpec(morrigan.MonoPrefetcherConfig())
	default:
		fatal("unknown prefetcher %q", pf)
	}

	switch icachePf {
	case "nextline":
	case "fnlmma":
		spec.ICachePrefetcher = morrigan.FNLMMASpec()
	case "epi":
		spec.ICachePrefetcher = morrigan.EPISpec()
	case "djolt":
		spec.ICachePrefetcher = morrigan.DJoltSpec()
	default:
		fatal("unknown I-cache prefetcher %q", icachePf)
	}
	return spec
}

// buildJobs enumerates one campaign job per requested workload (or one for
// the -trace container, opened by the caller as tc), optionally colocating
// the -smt workload on every run. Workload jobs are pure data — machine spec
// plus workload specs — so they carry the canonical identity -journal/-resume
// keys on (corpus feeding, when enabled, rides CampaignOptions.NewReader).
// The -trace job streams records from a file the workload vocabulary cannot
// describe, so it uses the NewThreads escape hatch and always executes; its
// SMT sibling, if any, runs from the live generator.
func buildJobs(workload, traceFile string, tc *morrigan.Corpus, smt string, spec morrigan.MachineSpec, warmup, measure uint64) []morrigan.CampaignJob {
	var smtSpecs []morrigan.Workload
	if smt != "" {
		w, ok := morrigan.WorkloadByName(smt)
		if !ok {
			fatal("unknown SMT workload %q", smt)
		}
		smtSpecs = []morrigan.Workload{w}
	}
	label := func(name string) string {
		if smt != "" {
			return name + "+" + smt
		}
		return name
	}
	if tc != nil {
		return []morrigan.CampaignJob{{
			Workload: label(traceFile),
			Machine:  spec,
			Warmup:   warmup, Measure: measure,
			NewThreads: func() []morrigan.ThreadSpec {
				out := []morrigan.ThreadSpec{{Reader: tc.NewReader()}}
				for i, w := range smtSpecs {
					out = append(out, morrigan.ThreadSpec{Reader: w.NewReader(), VAOffset: morrigan.SMTVAOffset * morrigan.VAddr(i+1)})
				}
				return out
			},
		}}
	}
	var jobs []morrigan.CampaignJob
	for _, name := range strings.Split(workload, ",") {
		name = strings.TrimSpace(name)
		w, ok := morrigan.WorkloadByName(name)
		if !ok {
			fatal("unknown workload %q (use -list)", name)
		}
		jobs = append(jobs, morrigan.CampaignJob{
			Workload:  label(name),
			Machine:   spec,
			Workloads: append([]morrigan.Workload{w}, smtSpecs...),
			Warmup:    warmup, Measure: measure,
		})
	}
	return jobs
}

func printStats(label, pf string, st morrigan.Stats) {
	fmt.Printf("workload        %s\n", label)
	fmt.Printf("prefetcher      %s\n", pf)
	fmt.Printf("instructions    %d\n", st.Instructions)
	fmt.Printf("cycles          %d\n", st.Cycles)
	fmt.Printf("IPC             %.3f\n", st.IPC)
	fmt.Printf("L1I MPKI        %.3f\n", st.L1IMPKI)
	fmt.Printf("I-TLB MPKI      %.3f\n", st.ITLBMPKI)
	fmt.Printf("iSTLB MPKI      %.3f\n", st.ISTLBMPKI)
	fmt.Printf("dSTLB MPKI      %.3f\n", st.DSTLBMPKI)
	fmt.Printf("translation %%   %.2f%%\n", st.TranslationCyclePct)
	fmt.Printf("iSTLB misses    %d (PB hits %d)\n", st.ISTLBMisses, st.PBHits)
	fmt.Printf("demand iWalks   %d (refs %d, avg lat %.1f)\n", st.DemandIWalks, st.DemandIWalkRefs, st.AvgIWalkLatency)
	fmt.Printf("demand dWalks   %d (refs %d, avg lat %.1f)\n", st.DemandDWalks, st.DemandDWalkRefs, st.AvgDWalkLatency)
	fmt.Printf("prefetch walks  %d (refs %d, dropped %d)\n", st.PrefetchWalks, st.PrefetchRefs, st.DroppedWalks)
	fmt.Printf("refs per walk   %.2f\n", st.RefsPerWalk)
	fmt.Printf("PSC hit rate    %.3f\n", st.PSCHitRate)
	if st.PrefetchesIssued > 0 {
		fmt.Printf("prefetches      %d issued, %d discarded, %d free PTEs\n",
			st.PrefetchesIssued, st.PrefetchesDiscarded, st.FreePTEsInstalled)
	}
	if st.IRIPHits+st.SDPHits > 0 {
		fmt.Printf("module hits     IRIP %d, SDP %d\n", st.IRIPHits, st.SDPHits)
	}
	if st.ICacheXPagePrefetches > 0 {
		fmt.Printf("icache x-page   %d prefetches, %d walks, %d PB hits\n",
			st.ICacheXPagePrefetches, st.ICacheXPageWalks, st.ICachePBHits)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "morrigansim: "+format+"\n", args...)
	os.Exit(1)
}

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
//
// SIGINT or SIGTERM stops the campaign; every output then holds what
// completed, and the command exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"morrigan"
	"morrigan/cmd/internal/campaign"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "morrigansim:", err)
		os.Exit(1)
	}
}

func run() (err error) {
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
		confIn    = flag.String("config", "", "load the machine spec from this JSON file (overrides the machine flags)")
		confOut   = flag.String("dump-config", "", "write the machine spec as JSON to this file ('-' for stdout) and exit")
		list      = flag.Bool("list", false, "list built-in workloads and exit")
	)
	cf := campaign.Register(flag.CommandLine)
	flag.Parse()

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
		return nil
	}

	// The machine under test is a declarative spec: built from the flags, or
	// loaded verbatim from -config. Either way it is validated before any
	// simulation launches.
	spec, err := specFromFlags(*pf, *icachePf, *perfect, *p2tlb, *asap, *icacheTLB, *stlb, *pb)
	if err != nil {
		return err
	}
	pfLabel := *pf
	if *confIn != "" {
		f, err := os.Open(*confIn)
		if err != nil {
			return err
		}
		spec, err = morrigan.LoadMachineSpec(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("config %s: %w", *confIn, err)
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
	if err := spec.Validate(); err != nil {
		return err
	}
	if *confOut != "" {
		var w io.Writer = os.Stdout
		if *confOut != "-" {
			f, ferr := os.Create(*confOut)
			if ferr != nil {
				return ferr
			}
			defer func() { err = errors.Join(err, f.Close()) }()
			w = f
		}
		return morrigan.SaveMachineSpec(w, spec)
	}

	var traceCorpus *morrigan.Corpus
	if *traceFile != "" {
		c, err := morrigan.OpenCorpusFile(*traceFile)
		if err != nil {
			return err
		}
		defer c.Close()
		traceCorpus = c
	}
	cjobs, err := buildJobs(*workload, *traceFile, traceCorpus, *smt, spec, *warmup, *measure)
	if err != nil {
		return err
	}
	for _, j := range cjobs {
		// Sampling needs a single workload-described stream: trace-file
		// jobs (NewThreads) and SMT pairs must simulate in full.
		if cf.Sample && (j.NewThreads != nil || len(j.Workloads) != 1) {
			return errors.New("-sample requires single-workload jobs (no -trace, no -smt)")
		}
	}
	c, err := campaign.Open("morrigansim", cf, *warmup, *measure)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, c.Close()) }()
	for i := range cjobs {
		cjobs[i].Sampling = c.Sampling
	}
	if cf.DryRun {
		for _, j := range cjobs {
			fmt.Println(j.Describe())
		}
		return nil
	}

	campaignResults, err := morrigan.RunCampaign(c.Context, cjobs, c.Runner())
	c.Records.Add(campaignResults)

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
	return err
}

// specFromFlags assembles the declarative machine spec the flags describe:
// the Table 1 machine with the named iSTLB and I-cache prefetchers and the
// geometry overrides applied. Unknown prefetcher names fail immediately,
// before any simulation launches.
func specFromFlags(pf, icachePf string, perfect, p2tlb, asap, icacheTLB bool, stlb, pb int) (morrigan.MachineSpec, error) {
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
		return spec, fmt.Errorf("unknown prefetcher %q", pf)
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
		return spec, fmt.Errorf("unknown I-cache prefetcher %q", icachePf)
	}
	return spec, nil
}

// buildJobs enumerates one campaign job per requested workload (or one for
// the -trace container, opened by the caller as tc), optionally colocating
// the -smt workload on every run. Workload jobs are pure data — machine spec
// plus workload specs — so they carry the canonical identity -journal/-resume
// keys on (corpus feeding, when enabled, rides CampaignOptions.NewReader).
// The -trace job streams records from a file the workload vocabulary cannot
// describe, so it uses the NewThreads escape hatch and always executes; its
// SMT sibling, if any, runs from the live generator.
func buildJobs(workload, traceFile string, tc *morrigan.Corpus, smt string, spec morrigan.MachineSpec, warmup, measure uint64) ([]morrigan.CampaignJob, error) {
	var smtSpecs []morrigan.Workload
	if smt != "" {
		w, ok := morrigan.WorkloadByName(smt)
		if !ok {
			return nil, fmt.Errorf("unknown SMT workload %q", smt)
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
		}}, nil
	}
	var jobs []morrigan.CampaignJob
	for _, name := range strings.Split(workload, ",") {
		name = strings.TrimSpace(name)
		w, ok := morrigan.WorkloadByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (use -list)", name)
		}
		jobs = append(jobs, morrigan.CampaignJob{
			Workload:  label(name),
			Machine:   spec,
			Workloads: append([]morrigan.Workload{w}, smtSpecs...),
			Warmup:    warmup, Measure: measure,
		})
	}
	return jobs, nil
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

package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"morrigan/internal/runner"
	"morrigan/internal/sim"
	"morrigan/internal/spans"
	"morrigan/internal/stats"
)

// repeat is what one repeat of a workload reports to the driver. A repeat
// normally runs in a fresh child process, so set-up, heap growth and peak
// memory are paid and measured every time.
type repeat struct {
	// TimedStartNS is the Unix time in nanoseconds at which the timed phase
	// began; SetupS, filled in by the launcher, is the time from launch to
	// then.
	TimedStartNS int64   `json:"timed_start_ns"`
	SetupS       float64 `json:"setup_s"`
	// WallS and CPUS are the timed phase's wall-clock and process CPU time.
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
	// Instructions counts instructions the simulators stepped in the timed
	// phase, fast-forwarded ones included.
	Instructions uint64  `json:"instructions"`
	PeakRSSMiB   float64 `json:"peak_rss_mib"`
	Jobs         int     `json:"jobs"`
	FailedJobs   int     `json:"failed_jobs"`
	Checks       []check `json:"checks"`
	// Digest is the SHA-256 of the campaign's Stats in job order.
	Digest string `json:"stats_digest"`
	// Values holds modelled and host-side per-layer measurements.
	Values map[string]float64 `json:"values"`
	// Refs are the sampled results the driver compares with full runs.
	Refs []runner.Record `json:"refs,omitempty"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// repeatArgs names one repeat. Profile and Spans, set on the traced repeat
// only, are where its CPU profile and Chrome-format spans are written.
type repeatArgs struct {
	Workload, Scale string
	Seed            int64
	WorkRoot        string
	Profile, Spans  string
}

// env is one repeat's inputs and what its campaign reports besides its
// records.
type env struct {
	seed    int64
	sz      sizes
	dir     string          // private work directory
	spans   *spans.Recorder // nil unless traced
	values  map[string]float64
	checks  []check
	refs    []runner.Record
	closers []func() error

	jobs, failedJobs, simulated, reused int
	stepped, fastForwarded, sliceInstr  uint64
}

func (e *env) check(name string, ok bool, format string, args ...any) {
	e.checks = append(e.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// account folds one campaign pass's records into the repeat's totals.
func (e *env) account(recs []runner.Record) {
	for _, r := range recs {
		e.jobs++
		if r.Error != "" {
			e.failedJobs++
		}
		if r.Reused != "" {
			e.reused++
			continue
		}
		e.simulated++
		e.stepped += r.SimInstructions
		if r.Sampling != nil {
			e.stepped += r.Sampling.FastForwarded
			e.fastForwarded += r.Sampling.FastForwarded
			e.sliceInstr += uint64(r.Sampling.Slices) * r.Sampling.Policy.Interval
		}
	}
}

// campaign runs jobs on the runner's worker pool and accounts for them.
func (e *env) campaign(jobs []runner.Job, opt runner.Options) ([]runner.Record, error) {
	opt.Workers = workers
	opt.Spans = e.spans
	res, err := runner.Run(context.Background(), jobs, opt)
	recs := make([]runner.Record, len(res))
	for i := range res {
		recs[i] = runner.NewRecord(res[i])
	}
	e.account(recs)
	return recs, err
}

// closeAll releases what set-up opened, reporting the first error.
func (e *env) closeAll() error {
	var first error
	for _, c := range e.closers {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	e.closers = nil
	return first
}

// runRepeat runs one repeat of a workload in this process: set-up, the
// timed phase, then the checks.
func runRepeat(a repeatArgs) (repeat, error) {
	w, ok := lookupWorkload(a.Workload)
	if !ok {
		return repeat{}, fmt.Errorf("unknown workload %q", a.Workload)
	}
	sz, ok := w.sizes[a.Scale]
	if !ok {
		return repeat{}, fmt.Errorf("unknown scale %q", a.Scale)
	}
	if err := os.MkdirAll(a.WorkRoot, 0o755); err != nil {
		return repeat{}, err
	}
	dir, err := os.MkdirTemp(a.WorkRoot, w.name+"-")
	if err != nil {
		return repeat{}, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: a.Seed, sz: sz, dir: dir, values: map[string]float64{}}
	if a.Spans != "" {
		e.spans = spans.NewRecorder("bench")
	}
	defer e.closeAll()
	timed, err := w.prepare(e)
	if err != nil {
		return repeat{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}

	stopProfile := func() error { return nil }
	if a.Profile != "" {
		if stopProfile, err = startProfile(a.Profile); err != nil {
			return repeat{}, err
		}
	}
	before := readUsage()
	start := time.Now()
	recs, runErr := timed()
	wall := time.Since(start)
	after := readUsage()
	if err := stopProfile(); err != nil {
		return repeat{}, err
	}
	if err := e.closeAll(); err != nil && runErr == nil {
		runErr = err
	}

	if runErr != nil && e.failedJobs == 0 {
		e.check("campaign_completes", false, "%v", runErr)
	}
	if w.check != nil && runErr == nil {
		w.check(e, recs)
	}
	checkPBHits(e, recs)
	fidelity(recs, e.values)
	modelled(recs, e.values)
	cpu := after.cpu - before.cpu
	e.values["runner.jobs_simulated"] = float64(e.simulated)
	e.values["runner.jobs_reused"] = float64(e.reused)
	e.values["go-runtime.gc_cpu_frac"] = ratio(after.gcCPU-before.gcCPU, cpu.Seconds())
	e.values["go-runtime.alloc_mb_per_minstr"] = ratio(float64(after.alloc-before.alloc)/(1<<20), float64(e.stepped)/1e6)
	if e.spans != nil {
		ss := e.spans.Spans()
		spanValues(ss, e.fastForwarded, e.sliceInstr, e.values)
		if err := spans.WriteFile(a.Spans, ss); err != nil {
			return repeat{}, fmt.Errorf("writing spans: %w", err)
		}
	}
	return repeat{
		TimedStartNS: start.UnixNano(),
		WallS:        wall.Seconds(),
		CPUS:         cpu.Seconds(),
		Instructions: e.stepped,
		PeakRSSMiB:   peakRSSMiB(),
		Jobs:         e.jobs,
		FailedJobs:   e.failedJobs,
		Checks:       e.checks,
		Digest:       statsDigest(recs),
		Values:       e.values,
		Refs:         e.refs,
	}, nil
}

func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// usage is a snapshot of the process's CPU time and Go runtime counters.
type usage struct {
	cpu   time.Duration
	gcCPU float64 // seconds
	alloc uint64  // cumulative heap bytes allocated
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	ms := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(ms)
	u := usage{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	if ms[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = ms[0].Value.Float64()
	}
	if ms[1].Value.Kind() == metrics.KindUint64 {
		u.alloc = ms[1].Value.Uint64()
	}
	return u
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM), with
// getrusage's maxrss as the fallback where /proc is unavailable.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// statsDigest is the SHA-256 of every record's identity and Stats, in job
// order: equal digests mean bit-identical modelled results.
func statsDigest(recs []runner.Record) string {
	h := sha256.New()
	for _, r := range recs {
		b, err := json.Marshal(r.Stats)
		if err != nil {
			b = []byte(err.Error())
		}
		fmt.Fprintf(h, "%s/%s/%s\n%s\n", r.Experiment, r.Config, r.Workload, b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// checkPBHits asserts that no job's prefetch buffer served more hits than
// entries were put into it by prefetch walks and free PTEs.
func checkPBHits(e *env, recs []runner.Record) {
	bad, first := 0, ""
	for _, r := range recs {
		if st := r.Stats; st != nil && st.PBHits > st.PrefetchWalks+st.FreePTEsInstalled {
			if bad == 0 {
				first = fmt.Sprintf("; first %s/%s/%s: %d hits > %d walks + %d free PTEs",
					r.Experiment, r.Config, r.Workload, st.PBHits, st.PrefetchWalks, st.FreePTEsInstalled)
			}
			bad++
		}
	}
	e.check("pb_hits_bounded", bad == 0, "%d of %d jobs exceed the bound%s", bad, len(recs), first)
}

// fidelity computes Morrigan's geomean cycle speedup over the baseline run
// of the same experiment and workload, and its mean iSTLB-miss coverage.
func fidelity(recs []runner.Record, v map[string]float64) {
	type key struct{ exp, workload string }
	base := map[key]*sim.Stats{}
	for _, r := range recs {
		if r.Config == "baseline" && r.Stats != nil {
			base[key{r.Experiment, r.Workload}] = r.Stats
		}
	}
	var speedups, coverage []float64
	for _, r := range recs {
		if r.Config != "Morrigan" || r.Stats == nil {
			continue
		}
		coverage = append(coverage, stats.Percent(r.Stats.PBHits, r.Stats.ISTLBMisses))
		if b := base[key{r.Experiment, r.Workload}]; b != nil {
			speedups = append(speedups, stats.Speedup(uint64(b.Cycles), uint64(r.Stats.Cycles)))
		}
	}
	v["morrigan_speedup"] = 1 + stats.GeoMeanSpeedup(speedups)/100
	v["morrigan_coverage_pct"] = stats.Mean(coverage)
}

// modelled aggregates the simulated machine's counters over every job: the
// per-layer counts a simulator-speed change must leave exactly unchanged.
func modelled(recs []runner.Record, v map[string]float64) {
	var instr, cycles, itlb, istlb, dstlb, l1i, walks, walkRefs, dropped, iwalks uint64
	var pbHits, pfWalks, issued, discarded, irip, sdp, timed, ff uint64
	var iwalkCycles, pscWeighted, transWeighted float64
	var ciIPC []float64
	for _, r := range recs {
		st := r.Stats
		if st == nil {
			continue
		}
		instr += st.Instructions
		cycles += uint64(st.Cycles)
		itlb += st.ITLBMisses
		istlb += st.ISTLBMisses
		dstlb += st.DSTLBMisses
		l1i += st.L1IMisses
		walks += st.DemandIWalks + st.DemandDWalks
		walkRefs += st.DemandIWalkRefs + st.DemandDWalkRefs
		dropped += st.DroppedWalks
		iwalks += st.DemandIWalks
		pbHits += st.PBHits
		pfWalks += st.PrefetchWalks
		issued += st.PrefetchesIssued
		discarded += st.PrefetchesDiscarded
		irip += st.IRIPHits
		sdp += st.SDPHits
		iwalkCycles += st.AvgIWalkLatency * float64(st.DemandIWalks)
		pscWeighted += st.PSCHitRate * float64(st.Instructions)
		transWeighted += st.TranslationCyclePct * float64(st.Cycles)
		if s := r.Sampling; s != nil {
			timed += s.TimedInstructions
			ff += s.FastForwarded
			ciIPC = append(ciIPC, 100*ratio(s.CI95.IPC, st.IPC))
		}
	}
	v["tlb.itlb_mpki"] = stats.MPKI(itlb, instr)
	v["tlb.istlb_mpki"] = stats.MPKI(istlb, instr)
	v["tlb.dstlb_mpki"] = stats.MPKI(dstlb, instr)
	v["cache.l1i_mpki"] = stats.MPKI(l1i, instr)
	v["ptw.psc_hit_rate"] = ratio(pscWeighted, float64(instr))
	v["ptw.refs_per_walk"] = stats.Ratio(walkRefs, walks)
	v["ptw.dropped_walks_pki"] = stats.MPKI(dropped, instr)
	v["ptw.iwalk_cycles_avg"] = ratio(iwalkCycles, float64(iwalks))
	v["tlbprefetch.pb_hits_per_prefetch_walk"] = stats.Ratio(pbHits, pfWalks)
	v["tlbprefetch.discard_rate"] = stats.Ratio(discarded, issued)
	v["core.irip_hit_share"] = stats.Ratio(irip, irip+sdp)
	v["cpu.translation_cycle_pct"] = ratio(transWeighted, float64(cycles))
	v["sampling.timed_frac"] = stats.Ratio(timed, timed+ff)
	v["sampling.ci95_ipc_pct"] = stats.Mean(ciIPC)
}

// spanValues derives phase times from the traced repeat's spans: the
// runner's job-lifecycle spans and the benchmark's own spans around its
// set-up and rerun calls. The sampling phases are divided by the
// instructions fast-forwarded and measured in timed slices.
func spanValues(ss []spans.Span, fastForwarded, sliceInstr uint64, v map[string]float64) {
	dur := map[string][]float64{} // nanoseconds by span name
	for _, s := range ss {
		dur[s.Name] = append(dur[s.Name], float64(s.DurNS))
	}
	sum := func(name string) float64 {
		var t float64
		for _, d := range dur[name] {
			t += d
		}
		return t
	}
	pctMS := func(name string, p float64) float64 {
		if len(dur[name]) == 0 {
			return 0
		}
		return percentile(dur[name], p) / 1e6
	}
	v["runner.simulate_s"] = sum("simulate") / 1e9
	v["runner.cache_wait_s"] = sum("cache.wait") / 1e9
	v["runner.threads_ms_p50"] = pctMS("threads", 50)
	v["runner.build_ms_p50"] = pctMS("build", 50)
	v["runner.persist_store_ms_p50"] = pctMS("persist.store", 50)
	v["runner.persist_store_ms_p99"] = pctMS("persist.store", 99)
	v["runner.persist_journal_ms_p50"] = pctMS("persist.journal", 50)
	v["runner.persist_journal_ms_p99"] = pctMS("persist.journal", 99)
	v["runner.rerun_ms"] = pctMS("rerun", 50)
	v["resultstore.open_ms"] = pctMS("resultstore.open", 50)
	v["tracestore.build_s"] = sum("tracestore.build") / 1e9
	v["sampling.profile_s"] = sum("sample.profile") / 1e9
	v["sampling.slicewarmup_s"] = sum("sample.slicewarmup") / 1e9
	v["sampling.fastforward_ns_per_instr"] = ratio(sum("sample.fastforward"), float64(fastForwarded))
	v["sampling.measure_ns_per_instr"] = ratio(sum("sample.measure"), float64(sliceInstr))
}

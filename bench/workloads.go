package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"

	"morrigan/internal/core"
	"morrigan/internal/experiments"
	"morrigan/internal/machine"
	"morrigan/internal/resultstore"
	"morrigan/internal/runner"
	"morrigan/internal/sampling"
	"morrigan/internal/spans"
	"morrigan/internal/stats"
	"morrigan/internal/tlbprefetch"
	"morrigan/internal/trace"
	"morrigan/internal/tracestore"
	"morrigan/internal/workloads"
)

// workers is the runner pool width of every campaign: two, the CPU count of
// the machine the benchmark was defined on. It is fixed rather than
// GOMAXPROCS so that numbers from machines with more CPUs stay comparable.
const workers = 2

// sizes scales one workload's campaign. Each workload uses the fields it
// names in its definition.
type sizes struct {
	warmup, measure uint64
	qmm             int // QMM workloads, spread over the suite
	mixes           int // eight-way colocation mixes
	maxWorkloads    int // experiments.Options.MaxWorkloads
	smtPairs        int // experiments.Options.SMTPairs
	reruns          int // warm reruns after the cold sweep
}

// workload is one benchmark workload: a campaign generated from the seed.
type workload struct {
	name  string
	sizes map[string]sizes // by -scale
	// prepare builds the job list and any on-disk inputs; its time counts
	// as set-up. It returns the timed phase, which runs the campaign and
	// returns its records in job order.
	prepare func(e *env) (func() ([]runner.Record, error), error)
	// check, when set, asserts workload-specific properties of the records
	// after the timed phase.
	check func(e *env, recs []runner.Record)
	// reference, when set, lists full-run jobs that the driver simulates
	// once per run, untimed, to judge the sampled results against.
	reference func(seed int64, sz sizes) []runner.Job
}

var workloadList = []*workload{fig15Full, sampledLong, colo8way, sweepShort}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// fig15Full is the steady-state hot path: every prefetcher kind through
// full-timing runs fed live from the trace generators. The windows are the
// experiments' default scale, long enough for Morrigan's tables to train:
// at 1M instructions or fewer MP (ISO) out-covers it.
var fig15Full = &workload{
	name: "fig15-full",
	sizes: map[string]sizes{
		"default": {warmup: 500_000, measure: 2_000_000, qmm: 6},
		"smoke":   {warmup: 5_000, measure: 10_000, qmm: 2},
	},
	prepare: func(e *env) (func() ([]runner.Record, error), error) {
		jobs := singleJobs("fig15-full", seededSuite(e.sz.qmm, e.seed), fig15Contenders(), e.sz)
		return func() ([]runner.Record, error) {
			return e.campaign(jobs, runner.Options{})
		}, nil
	},
	check: checkTopCoverage,
}

// sampledLong runs long windows in sampled mode from a trace corpus, so
// fast-forward and corpus decode carry the timed phase.
var sampledLong = &workload{
	name: "sampled-long",
	sizes: map[string]sizes{
		"default": {warmup: 500_000, measure: 6_000_000, qmm: 4},
		"smoke":   {warmup: 20_000, measure: 200_000, qmm: 1},
	},
	prepare: prepareSampled,
	reference: func(seed int64, sz sizes) []runner.Job {
		return singleJobs("sampled-long/full", seededSuite(sz.qmm, seed)[:1], baselineAndMorrigan(), sz)
	},
}

// colo8way shares one STLB among eight threads, so iSTLB misses and SMT
// rotation are an order of magnitude more frequent than single-threaded.
var colo8way = &workload{
	name: "colo-8way",
	sizes: map[string]sizes{
		"default": {warmup: 400_000, measure: 1_600_000, mixes: 6},
		"smoke":   {warmup: 5_000, measure: 20_000, mixes: 1},
	},
	prepare: func(e *env) (func() ([]runner.Record, error), error) {
		var jobs []runner.Job
		for _, mix := range seededMixes(e.sz.mixes, 8, e.seed) {
			names := make([]string, len(mix))
			for i := range mix {
				names[i] = mix[i].Name
			}
			for _, c := range baselineAndMorrigan() {
				jobs = append(jobs, runner.Job{
					Experiment: "colo-8way", Config: c.name, Workload: strings.Join(names, "+"),
					Machine: c.spec, Workloads: mix, Warmup: e.sz.warmup, Measure: e.sz.measure,
				})
			}
		}
		return func() ([]runner.Record, error) {
			return e.campaign(jobs, runner.Options{})
		}, nil
	},
}

// sweepShort is every experiment at tiny windows against a fresh result
// store and journal, then warm reruns served from the store: per-job fixed
// costs and the reuse layers, not the hot path.
var sweepShort = &workload{
	name: "sweep-short",
	sizes: map[string]sizes{
		"default": {warmup: 10_000, measure: 20_000, maxWorkloads: 6, smtPairs: 4, reruns: 5},
		"smoke":   {warmup: 2_000, measure: 4_000, maxWorkloads: 1, smtPairs: 2, reruns: 2},
	},
	prepare: prepareSweep,
}

// The seed orders each campaign's jobs, and so which of them share the
// runner's two workers at any moment; on sweep-short it orders the warm
// reruns. It changes neither the workloads nor their instruction streams. Drawing six workloads by seed moves host
// throughput by 5% from seed to seed (QMM workloads differ by 10% in host
// cost), and reseeding their trace generators moves Morrigan's speedup and
// coverage by 8% (interquartile range over median, ten seeds): the spread
// would measure the draw, not the simulator.

// seededSuite returns n QMM workloads spread evenly over the suite, as
// experiments.Options.MaxWorkloads picks them, in an order drawn from seed.
func seededSuite(n int, seed int64) []workloads.Spec {
	qmm := workloads.QMM()
	out := make([]workloads.Spec, n)
	step := float64(len(qmm)-1) / float64(max(n-1, 1))
	for i := range out {
		out[i] = qmm[int(float64(i)*step+0.5)]
	}
	shuffle(out, seed)
	return out
}

// mixSeed fixes which QMM workloads share a colocation mix.
const mixSeed = 2021

// seededMixes cuts a fixed shuffle of all 45 QMM workloads into n mixes of
// way threads, wrapping around to the start when n*way exceeds 45, so every
// workload runs in some mix; the mixes come in an order drawn from seed.
func seededMixes(n, way int, seed int64) [][]workloads.Spec {
	all := workloads.QMM()
	shuffle(all, mixSeed)
	mixes := make([][]workloads.Spec, n)
	for i := range mixes {
		for k := 0; k < way; k++ {
			mixes[i] = append(mixes[i], all[(i*way+k)%len(all)])
		}
	}
	shuffle(mixes, seed)
	return mixes
}

func shuffle[T any](xs []T, seed int64) {
	rand.New(rand.NewSource(seed)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

type contender struct {
	name string
	spec machine.Spec
}

func withPrefetcher(p machine.PrefetcherSpec) machine.Spec {
	m := machine.Default()
	m.Prefetcher = p
	return m
}

func baselineAndMorrigan() []contender {
	return []contender{
		{"baseline", machine.Default()},
		{"Morrigan", withPrefetcher(machine.Morrigan(core.DefaultConfig()))},
	}
}

// fig15Contenders are the baseline and the five prefetchers of the paper's
// Figure 15, the dSTLB prefetchers sized to Morrigan's storage budget the
// way experiments.Fig15 sizes them.
func fig15Contenders() []contender {
	bits := experiments.MorriganStorageBits
	mp := bits / (tlbprefetch.TagBits + 2*tlbprefetch.VPNStorageBits)
	mp -= mp % 4
	cs := baselineAndMorrigan()
	return []contender{
		cs[0],
		{"SP", withPrefetcher(machine.SP())},
		{"DP (ISO)", withPrefetcher(machine.DP(bits / (tlbprefetch.TagBits + 2*16)))},
		{"ASP (ISO)", withPrefetcher(machine.ASP(bits / (tlbprefetch.TagBits + tlbprefetch.VPNStorageBits + 16 + tlbprefetch.ConfBits)))},
		{"MP (ISO)", withPrefetcher(machine.MP(mp, 4))},
		cs[1],
	}
}

// singleJobs enumerates one single-threaded job per (workload, contender),
// workload-major like the experiments' comparison campaigns.
func singleJobs(experiment string, specs []workloads.Spec, cs []contender, sz sizes) []runner.Job {
	jobs := make([]runner.Job, 0, len(specs)*len(cs))
	for _, w := range specs {
		for _, c := range cs {
			jobs = append(jobs, runner.Job{
				Experiment: experiment, Config: c.name, Workload: w.Name,
				Machine: c.spec, Workloads: []workloads.Spec{w}, Warmup: sz.warmup, Measure: sz.measure,
			})
		}
	}
	return jobs
}

// checkTopCoverage asserts the paper's Figure 15 ordering that matters
// most: Morrigan covers more iSTLB misses than any dSTLB prefetcher.
func checkTopCoverage(e *env, recs []runner.Record) {
	cov := map[string][]float64{}
	for _, r := range recs {
		if r.Stats != nil && r.Config != "baseline" {
			cov[r.Config] = append(cov[r.Config], stats.Percent(r.Stats.PBHits, r.Stats.ISTLBMisses))
		}
	}
	best, top := "Morrigan", stats.Mean(cov["Morrigan"])
	for name, c := range cov {
		if m := stats.Mean(c); m > top {
			best, top = name, m
		}
	}
	e.check("morrigan_top_coverage", best == "Morrigan" && len(cov) == 5,
		"highest mean coverage of %d prefetchers: %s %.2f%%", len(cov), best, top)
}

// corpusCacheBytes budgets sampled-long's decoded-chunk cache below the
// 595 MiB its four decoded workloads would take, keeping a repeat's peak
// memory near 280 MiB on shared machines; evictions and re-decodes then
// show in tracestore.decodes.
const corpusCacheBytes = 128 << 20

// prepareSampled materialises the trace corpus and the sampling profiles
// in the repeat's work directory — the set-up a user pays once before
// sampled campaigns — and returns the sampled campaign.
func prepareSampled(e *env) (func() ([]runner.Record, error), error) {
	specs := seededSuite(e.sz.qmm, e.seed)
	dir := filepath.Join(e.dir, "corpus")
	store, err := tracestore.Open(tracestore.Options{Dir: dir, CacheBytes: corpusCacheBytes})
	if err != nil {
		return nil, err
	}
	e.closers = append(e.closers, store.Close)
	records := e.sz.warmup + e.sz.measure
	newReader := func(w workloads.Spec) (trace.Reader, error) {
		c, err := store.Materialize(w, records)
		if err != nil {
			return nil, err
		}
		return c.NewReader(), nil
	}
	for _, w := range specs {
		sp := e.spans.Start("setup", "tracestore.build")
		_, err := store.Materialize(w, records)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	profiles, err := sampling.OpenProfileStore(filepath.Join(dir, "profiles"))
	if err != nil {
		return nil, err
	}
	pol := sampling.DefaultPolicy()
	for _, w := range specs {
		sp := e.spans.Start("setup", "sample.profile")
		_, err := profiles.Profile(w.Hash(), e.sz.warmup, e.sz.measure, pol.Interval,
			func() (trace.Reader, error) { return newReader(w) })
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	jobs := singleJobs("sampled-long", specs, baselineAndMorrigan(), e.sz)
	for i := range jobs {
		jobs[i].Sampling = &pol
	}
	return func() ([]runner.Record, error) {
		before := store.CacheStats()
		recs, err := e.campaign(jobs, runner.Options{NewReader: newReader, Profiles: profiles})
		after := store.CacheStats()
		e.values["tracestore.decodes"] = float64(after.Decodes - before.Decodes)
		e.values["tracestore.cache_hit_rate"] = ratio(float64(after.Hits-before.Hits), float64(after.Gets-before.Gets))
		for _, r := range recs {
			if r.Workload == specs[0].Name {
				e.refs = append(e.refs, r)
			}
		}
		return recs, err
	}, nil
}

// prepareSweep returns the sweep: a cold pass over every experiment, in
// paper order, into a fresh result store and journal, then warm reruns in
// an order drawn from the seed, each of which must render every
// experiment's table as the cold pass did, byte for byte, and simulate no
// job the store can serve. Opening the store and journal is part of the
// campaign, as it is for the experiments command. The cold pass keeps one
// order because the sweep's peak memory depends on it: with the cold order
// drawn from the seed, peak_rss_mb spread by 19% over ten seeds.
func prepareSweep(e *env) (func() ([]runner.Record, error), error) {
	rerunOrder := append([]string(nil), experiments.Order...)
	shuffle(rerunOrder, e.seed)
	storeDir := filepath.Join(e.dir, "results")
	base := experiments.Options{
		Warmup: e.sz.warmup, Measure: e.sz.measure,
		MaxWorkloads: e.sz.maxWorkloads, SMTPairs: e.sz.smtPairs, Jobs: workers,
	}
	return func() ([]runner.Record, error) {
		rs, err := resultstore.Open(storeDir)
		if err != nil {
			return nil, err
		}
		jn, err := runner.OpenJournal(filepath.Join(e.dir, "journal"), false)
		if err != nil {
			return nil, err
		}
		e.closers = append(e.closers, jn.Close)
		cold := base
		cold.Store, cold.Journal, cold.Cache, cold.Spans = rs, jn, runner.NewResultCache(), e.spans
		rec := &runner.Recorder{}
		cold.Record = rec
		want, err := sweep(experiments.Order, cold)
		recs := rec.Campaign().Records
		e.account(recs)
		if err != nil {
			return recs, err
		}
		for i := 0; i < e.sz.reruns; i++ {
			if err := e.rerun(rerunOrder, base, storeDir, want); err != nil {
				return recs, err
			}
		}
		return recs, nil
	}, nil
}

// rerun is one warm pass of the sweep over a freshly opened result store.
func (e *env) rerun(ids []string, opt experiments.Options, storeDir string, want map[string]string) error {
	sp := e.spans.Start("bench", "rerun")
	defer sp.End()
	open := e.spans.Start("bench", "resultstore.open")
	rs, err := resultstore.Open(storeDir)
	open.End()
	if err != nil {
		return err
	}
	// Executed jobs are counted from the runner's spans, whose trace id
	// says whether the job had a key the store could have served.
	rec := e.spans
	if rec == nil {
		rec = spans.NewRecorder("rerun")
	}
	mark := rec.Now()
	rr := &runner.Recorder{}
	opt.Store, opt.Cache, opt.Record, opt.Spans = rs, runner.NewResultCache(), rr, rec
	got, err := sweep(ids, opt)
	e.account(rr.Campaign().Records)
	if err != nil {
		return err
	}
	var differ []string
	for _, id := range ids {
		if got[id] != want[id] {
			differ = append(differ, id)
		}
	}
	keyed := 0
	for _, s := range rec.Spans() {
		if s.Name == "execute" && s.StartNS >= mark && !strings.HasPrefix(s.TraceID, "unkeyed/") {
			keyed++
		}
	}
	e.check("rerun_tables_identical", len(differ) == 0, "%d of %d tables differ %v", len(differ), len(ids), differ)
	e.check("rerun_simulates_no_keyed_job", keyed == 0, "%d keyed jobs simulated", keyed)
	return nil
}

// sweep runs the experiments in order and returns their rendered tables.
func sweep(ids []string, opt experiments.Options) (map[string]string, error) {
	opt.Context = context.Background()
	tables := make(map[string]string, len(ids))
	for _, id := range ids {
		tab, err := experiments.Registry[id](opt)
		if err != nil {
			return tables, fmt.Errorf("%s: %w", id, err)
		}
		var out bytes.Buffer
		tab.Render(&out)
		tables[id] = out.String()
	}
	return tables, nil
}

// Command bench is the campaign benchmark of the Morrigan reproduction. It
// runs four campaign workloads (see README.md, and BENCHMARK.json at the
// repository root), each as repeats in fresh child processes of its own
// binary, one at a time, for a fixed wall time. It prints every end-to-end
// metric by name and unit, checks the simulated results, and writes one
// JSON result file; -trace 1 adds one traced repeat per workload that
// yields the per-layer metrics. The last line of standard output is a JSON
// summary of the run.
//
// From the repository root:
//
//	bash bench/run.sh                                  # all workloads
//	bash bench/run.sh --workload fig15-full --seed 3 --seconds 25 --trace 1
//	bash bench/run.sh -compare before.json after.json  # verdict per metric
//
// or, from bench/, go run . with the same flags.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"morrigan/internal/runner"
	"morrigan/internal/stats"
)

const (
	// minRepeats is the fewest repeats a workload runs, so every median
	// has quartiles around it.
	minRepeats = 3
	// repeatBudget stops launching repeats once a workload has run this
	// long, so a run on a slow machine still ends within its time limit.
	repeatBudget = 110 * time.Second
	// workloadTimeout bounds one workload's run, children included.
	workloadTimeout = 175 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the driver's settings for one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	outdir   string
	jsonOut  string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o        options
		traceArg int
		child    = fs.Bool("child", false, "run one repeat in this process and print it as JSON (how the driver starts repeats)")
		compare  = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
		workRoot = fs.String("workroot", "", "child: directory for the repeat's private work directory")
		profile  = fs.String("profile", "", "child: write a CPU profile of the timed phase here")
		spansOut = fs.String("spans", "", "child: record spans and write them here in Chrome trace format")
	)
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all, in BENCHMARK.json order)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated job lists")
	fs.Float64Var(&o.seconds, "seconds", 25, "seconds of repeats per workload, set-up included")
	fs.IntVar(&traceArg, "trace", 0, "1 adds one traced repeat per workload and reports the per-layer metrics")
	fs.StringVar(&o.scale, "scale", "default", "job sizes: default, or smoke for a seconds-long check")
	fs.StringVar(&o.outdir, "outdir", filepath.Join(".bench_build", "out"), "directory for the result file, profiles, spans and work directories")
	fs.StringVar(&o.jsonOut, "json", "", "result file (default <outdir>/result.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceArg != 0
	switch {
	case *compare:
		return runCompare(fs.Args(), stdout, stderr)
	case *child:
		rep, err := runRepeat(repeatArgs{
			Workload: o.workload, Scale: o.scale, Seed: o.seed,
			WorkRoot: *workRoot, Profile: *profile, Spans: *spansOut,
		})
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return drive(ctx, o, execLauncher(exe, stderr), stdout, stderr)
}

// launcher runs one repeat and returns its report with SetupS filled in.
type launcher func(ctx context.Context, a repeatArgs) (repeat, error)

// execLauncher runs each repeat in a fresh child process of exe.
func execLauncher(exe string, stderr io.Writer) launcher {
	return func(ctx context.Context, a repeatArgs) (repeat, error) {
		args := []string{"-child", "-workload", a.Workload, "-scale", a.Scale,
			"-seed", fmt.Sprint(a.Seed), "-workroot", a.WorkRoot}
		if a.Profile != "" {
			args = append(args, "-profile", a.Profile, "-spans", a.Spans)
		}
		var out bytes.Buffer
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stdout, cmd.Stderr = &out, stderr
		launched := time.Now()
		if err := cmd.Run(); err != nil {
			return repeat{}, fmt.Errorf("%s repeat: %w", a.Workload, err)
		}
		var r repeat
		if err := json.Unmarshal(lastLine(out.Bytes()), &r); err != nil {
			return repeat{}, fmt.Errorf("%s repeat output: %w", a.Workload, err)
		}
		r.SetupS = float64(r.TimedStartNS-launched.UnixNano()) / 1e9
		return r, nil
	}
}

// inProcess runs each repeat in the calling process (tests).
func inProcess(_ context.Context, a repeatArgs) (repeat, error) {
	launched := time.Now()
	r, err := runRepeat(a)
	r.SetupS = float64(r.TimedStartNS-launched.UnixNano()) / 1e9
	return r, err
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// resultFile is the JSON result of one invocation, the input of -compare.
type resultFile struct {
	Schema     int                        `json:"schema"`
	Go         string                     `json:"go"`
	NumCPU     int                        `json:"nproc"`
	GoMaxProcs int                        `json:"gomaxprocs"`
	Workers    int                        `json:"workers"`
	Seed       int64                      `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	Scale      string                     `json:"scale"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

// workloadResult is one workload's outcome.
type workloadResult struct {
	Repeats   int    `json:"repeats"`
	Digest    string `json:"stats_digest"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// ErrorRate is Failed over Attempted: failed jobs and failed checks.
	ErrorRate float64            `json:"error_rate"`
	Metrics   map[string]summary `json:"metrics"`
	// Reference holds the sampled-versus-full comparison, where the
	// workload has one.
	Reference map[string]float64 `json:"reference,omitempty"`
	// Layers holds the per-layer metrics of the traced repeat.
	Layers map[string]float64 `json:"layers,omitempty"`
	Checks []check            `json:"failed_checks,omitempty"`
}

// drive runs the selected workloads and reports them.
func drive(ctx context.Context, o options, launch launcher, stdout, stderr io.Writer) int {
	bm, err := openBenchmark()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return driveWith(ctx, o, bm, launch, stdout, stderr)
}

func driveWith(ctx context.Context, o options, bm *benchmarkFile, launch launcher, stdout, stderr io.Writer) int {
	var selected []*workload
	for _, bw := range bm.Workloads {
		if o.workload != "" && bw.Name != o.workload {
			continue
		}
		w, ok := lookupWorkload(bw.Name)
		if !ok {
			fmt.Fprintf(stderr, "bench: BENCHMARK.json names workload %q, which the benchmark does not define\n", bw.Name)
			return 1
		}
		selected = append(selected, w)
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", o.workload, describe())
		return 2
	}
	if err := os.MkdirAll(o.outdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res := resultFile{
		Schema: 1, Go: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers: workers, Seed: o.seed, Seconds: o.seconds, Scale: o.scale,
		Workloads: map[string]*workloadResult{},
	}
	final := finalLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		wr, err := runWorkload(ctx, w, o, bm, launch)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		res.Workloads[w.name] = wr
		report(stdout, w.name, o, bm, wr, res)
		final.add(w.name, len(selected) > 1, o.trace, bm, wr)
	}
	out := o.jsonOut
	if out == "" {
		out = filepath.Join(o.outdir, "result.json")
	}
	if err := writeJSON(out, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "result file: %s\n", out)
	if err := json.NewEncoder(stdout).Encode(final); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !final.Correct {
		return 1
	}
	return 0
}

// runWorkload launches a workload's repeats back to back for o.seconds,
// set-up included, then the traced repeat and the reference runs.
func runWorkload(ctx context.Context, w *workload, o options, bm *benchmarkFile, launch launcher) (*workloadResult, error) {
	ctx, cancel := context.WithTimeout(ctx, workloadTimeout)
	defer cancel()
	args := repeatArgs{Workload: w.name, Scale: o.scale, Seed: o.seed, WorkRoot: filepath.Join(o.outdir, "work")}
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	var reps []repeat
	for {
		t := time.Now()
		r, err := launch(ctx, args)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		// Stop when another repeat as long as this one would overrun the
		// budget by more than stopping now falls short of it.
		next := time.Since(start) + time.Since(t)/2
		if next > repeatBudget || (len(reps) >= minRepeats && next > budget) {
			break
		}
	}
	all := reps
	var traced *repeat
	if o.trace {
		ta := args
		ta.Profile = filepath.Join(o.outdir, w.name+"-cpu.pprof")
		ta.Spans = filepath.Join(o.outdir, w.name+"-spans.json")
		r, err := launch(ctx, ta)
		if err != nil {
			return nil, err
		}
		traced = &r
		all = append(all, r)
	}

	wr := &workloadResult{Repeats: len(reps), Digest: reps[0].Digest, Metrics: map[string]summary{}}
	addCheck := func(c check) {
		wr.Attempted++
		if !c.OK {
			wr.Failed++
			wr.Checks = append(wr.Checks, c)
		}
	}
	for _, r := range all {
		wr.Attempted += r.Jobs
		wr.Failed += r.FailedJobs
		for _, c := range r.Checks {
			addCheck(c)
		}
	}
	stable := true
	for _, r := range all[1:] {
		stable = stable && r.Digest == wr.Digest
	}
	addCheck(check{Name: "stats_digest_stable", OK: stable,
		Detail: fmt.Sprintf("%d repeats, traced included, must simulate identical Stats", len(all))})

	if w.reference != nil {
		sz := w.sizes[o.scale]
		ref, err := compareReference(ctx, w.reference(o.seed, sz), reps[0].Refs)
		if err != nil {
			return nil, err
		}
		wr.Reference = ref
	}

	for _, m := range bm.EndToEnd {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			v, ok := endToEnd(r)[m.Name]
			if !ok {
				return nil, fmt.Errorf("BENCHMARK.json metric %q is not measured", m.Name)
			}
			xs[i] = v
		}
		wr.Metrics[m.Name] = summarize(xs, m.Unit, m.Better)
	}

	if traced != nil {
		cpu, err := profileLayers(ctx, filepath.Join(o.outdir, w.name+"-cpu.pprof"))
		if err != nil {
			return nil, err
		}
		vals := map[string]float64{}
		for k, v := range traced.Values {
			vals[k] = v
		}
		for k, v := range wr.Reference {
			vals[k] = v
		}
		for _, l := range layers {
			vals[l+".cpu_ns_per_instr"] = ratio(cpu[l], float64(traced.Instructions))
		}
		untraced := wr.Metrics["wall_s"].Median
		vals["bench.trace_overhead_pct"] = 100 * ratio(traced.WallS-untraced, untraced)
		// A metric of a layer the workload does not exercise (sampling on
		// fig15-full, say) is left out here and reported as 0.
		wr.Layers = map[string]float64{}
		for _, m := range bm.PerLayer {
			if v, ok := vals[m.Name]; ok {
				wr.Layers[m.Name] = v
			}
		}
		if err := writeJSON(filepath.Join(o.outdir, w.name+"-layers.json"), wr.Layers); err != nil {
			return nil, err
		}
	}
	finite := true
	for _, s := range wr.Metrics {
		finite = finite && isFinite(s.Median) && isFinite(s.Q1) && isFinite(s.Q3)
	}
	for _, v := range wr.Layers {
		finite = finite && isFinite(v)
	}
	addCheck(check{Name: "metrics_finite", OK: finite, Detail: "every reported value is a finite number"})
	wr.Correct = wr.Failed == 0
	wr.ErrorRate = ratio(float64(wr.Failed), float64(wr.Attempted))
	return wr, nil
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// endToEnd is one repeat's value of each end-to-end metric.
func endToEnd(r repeat) map[string]float64 {
	return map[string]float64{
		"wall_s":                r.WallS,
		"minstr_per_cpu_s":      ratio(float64(r.Instructions)/1e6, r.CPUS),
		"setup_s":               r.SetupS,
		"peak_rss_mb":           r.PeakRSSMiB,
		"morrigan_speedup":      r.Values["morrigan_speedup"],
		"morrigan_coverage_pct": r.Values["morrigan_coverage_pct"],
	}
}

// compareReference simulates the reference jobs in full, untimed, and
// compares the sampled records of the same configurations with them.
func compareReference(ctx context.Context, jobs []runner.Job, sampled []runner.Record) (map[string]float64, error) {
	res, err := runner.Run(ctx, jobs, runner.Options{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("reference runs: %w", err)
	}
	var ipcErr, covErr float64
	misses := 0
	for _, full := range res {
		var s *runner.Record
		for i := range sampled {
			if sampled[i].Config == full.Job.Config {
				s = &sampled[i]
			}
		}
		if s == nil || s.Stats == nil || s.Sampling == nil {
			return nil, fmt.Errorf("reference: no sampled result for %s", full.Job.Name())
		}
		est, ref, ci := s.Stats, full.Stats, s.Sampling.CI95
		ipcErr = max(ipcErr, 100*math.Abs(est.IPC-ref.IPC)/ref.IPC)
		if full.Job.Config == "Morrigan" {
			covErr = math.Abs(stats.Percent(est.PBHits, est.ISTLBMisses) - stats.Percent(ref.PBHits, ref.ISTLBMisses))
		}
		for _, m := range [][3]float64{
			{est.IPC, ref.IPC, ci.IPC},
			{est.L1IMPKI, ref.L1IMPKI, ci.L1IMPKI},
			{est.ITLBMPKI, ref.ITLBMPKI, ci.ITLBMPKI},
			{est.ISTLBMPKI, ref.ISTLBMPKI, ci.ISTLBMPKI},
			{est.DSTLBMPKI, ref.DSTLBMPKI, ci.DSTLBMPKI},
		} {
			if math.Abs(m[0]-m[1]) > m[2] {
				misses++
			}
		}
	}
	return map[string]float64{
		"sample_ipc_err_pct":     ipcErr,
		"sample_coverage_err_pp": covErr,
		"sampling.ci_misses":     float64(misses),
	}, nil
}

// finalLine is the last line of standard output.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// add folds one workload into the final line: its end-to-end medians, or
// with tracing its per-layer values, named "<workload>/<metric>" when the
// invocation covers several workloads.
func (f *finalLine) add(name string, prefix, traced bool, bm *benchmarkFile, wr *workloadResult) {
	f.Correct = f.Correct && wr.Correct
	f.Attempted += wr.Attempted
	f.Failed += wr.Failed
	key := func(m string) string {
		if prefix {
			return name + "/" + m
		}
		return m
	}
	if traced {
		for _, m := range bm.PerLayer {
			f.Metrics[key(m.Name)] = metricValue{Value: finiteOrZero(wr.Layers[m.Name]), Unit: m.Unit}
		}
		return
	}
	for _, m := range bm.EndToEnd {
		f.Metrics[key(m.Name)] = metricValue{Value: finiteOrZero(wr.Metrics[m.Name].Median), Unit: m.Unit}
	}
}

// finiteOrZero keeps the final line valid JSON; a non-finite value has
// already failed the metrics_finite check.
func finiteOrZero(x float64) float64 {
	if isFinite(x) {
		return x
	}
	return 0
}

// report prints one workload's results for people.
func report(w io.Writer, name string, o options, bm *benchmarkFile, wr *workloadResult, res resultFile) {
	fmt.Fprintf(w, "== %s: seed %d, scale %s, %d repeats in %.0fs, nproc %d, %d runner workers ==\n",
		name, o.seed, o.scale, wr.Repeats, o.seconds, res.NumCPU, workers)
	fmt.Fprintf(w, "  %-26s %14s %14s %14s  %s\n", "metric", "median", "q1", "q3", "unit")
	for _, m := range bm.EndToEnd {
		s := wr.Metrics[m.Name]
		fmt.Fprintf(w, "  %-26s %14.6g %14.6g %14.6g  %s\n", m.Name, s.Median, s.Q1, s.Q3, m.Unit)
	}
	for _, k := range sortedKeys(wr.Reference) {
		fmt.Fprintf(w, "  %-26s %14.6g  (sampled vs full run, untimed)\n", k, wr.Reference[k])
	}
	fmt.Fprintf(w, "  %-26s %14.6g  (%d failed of %d jobs and checks)\n", "error_rate", wr.ErrorRate, wr.Failed, wr.Attempted)
	fmt.Fprintf(w, "  stats_digest %s\n", wr.Digest)
	for _, c := range wr.Checks {
		fmt.Fprintf(w, "  FAILED check %s: %s\n", c.Name, c.Detail)
	}
	if wr.Layers != nil {
		fmt.Fprintf(w, "  per-layer (traced repeat):\n")
		for _, m := range bm.PerLayer {
			if v, ok := wr.Layers[m.Name]; ok {
				fmt.Fprintf(w, "    %-40s %14.6g  %s\n", m.Name, v, m.Unit)
			} else {
				fmt.Fprintf(w, "    %-40s %14s\n", m.Name, "n/a")
			}
		}
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeJSON writes v as indented JSON through a temporary file and rename,
// so a reader never sees a partial file.
func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// runCompare prints, for every end-to-end metric of every workload in both
// result files, both medians and quartiles and a verdict against the
// BENCHMARK.json bound. It exits 1 when any metric is worse.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
		return 2
	}
	var files [2]resultFile
	for i, p := range args {
		raw, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(raw, &files[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", p, err)
			return 2
		}
	}
	bm, err := openBenchmark()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	worse := compareResults(stdout, bm, files[0], files[1])
	if worse > 0 {
		fmt.Fprintf(stdout, "%d metric(s) worse beyond their bound\n", worse)
		return 1
	}
	return 0
}

// minSlack is how far a metric may move in its own unit whatever its
// relative bound: set-up may move by half a second, so that a few
// milliseconds of process-start jitter on generator-fed workloads are not
// reported as unresolved or worse.
var minSlack = map[string]float64{"setup_s": 0.5}

// verdict judges b against a for one metric: unresolved when either side's
// interquartile range exceeds the bound, else worse or better when the
// medians differ by more than the bound, else ok.
func verdict(m metricDef, a, b summary) string {
	bound := m.Bound
	if a.Median != 0 {
		bound = max(bound, minSlack[m.Name]/math.Abs(a.Median))
	}
	switch d := m.worse(a.Median, b.Median); {
	case a.spread() > bound || b.spread() > bound:
		return "unresolved"
	case d > bound:
		return "worse"
	case d < -bound:
		return "better"
	}
	return "ok"
}

func compareResults(w io.Writer, bm *benchmarkFile, a, b resultFile) (worse int) {
	fmt.Fprintf(w, "a: seed %d, nproc %d, %s   b: seed %d, nproc %d, %s\n", a.Seed, a.NumCPU, a.Go, b.Seed, b.NumCPU, b.Go)
	for _, bw := range bm.Workloads {
		wa, wb := a.Workloads[bw.Name], b.Workloads[bw.Name]
		if wa == nil || wb == nil {
			continue
		}
		fmt.Fprintf(w, "== %s ==\n", bw.Name)
		fmt.Fprintf(w, "  %-22s %-34s %-34s %8s  %s\n", "metric", "a median [q1, q3]", "b median [q1, q3]", "change", "verdict")
		for _, m := range bm.EndToEnd {
			sa, sb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			v := verdict(m, sa, sb)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "  %-22s %-34s %-34s %+7.2f%%  %s (bound %.0f%%)\n", m.Name,
				fmt.Sprintf("%.6g [%.6g, %.6g]", sa.Median, sa.Q1, sa.Q3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", sb.Median, sb.Q1, sb.Q3),
				100*ratio(sb.Median-sa.Median, math.Abs(sa.Median)), v, 100*m.Bound)
		}
		switch {
		case a.Seed != b.Seed:
			fmt.Fprintf(w, "  stats_digest not comparable: seeds differ\n")
		case wa.Digest != wb.Digest:
			fmt.Fprintf(w, "  stats_digest CHANGED: %s -> %s\n", wa.Digest, wb.Digest)
		default:
			fmt.Fprintf(w, "  stats_digest identical: %s\n", wa.Digest)
		}
		if !wa.Correct || !wb.Correct {
			fmt.Fprintf(w, "  checks: a correct=%v, b correct=%v\n", wa.Correct, wb.Correct)
		}
	}
	return worse
}

// describe lists the workload names for usage messages.
func describe() string {
	names := make([]string, len(workloadList))
	for i, w := range workloadList {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

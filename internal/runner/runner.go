// Package runner is the simulation-campaign orchestrator: it takes a set of
// independent simulation jobs (workload × sim.Config × warmup/measure),
// schedules them over a bounded worker pool, and returns results in
// deterministic job order, so campaign output is byte-identical regardless of
// how many workers ran it.
//
// The orchestrator provides the campaign-level machinery the experiment
// harness needs but individual simulations do not know about:
//
//   - fan-out over a worker pool sized by Options.Workers (default
//     GOMAXPROCS), with results merged back in submission order;
//   - per-job panic isolation — a crashing simulation fails that job with a
//     captured stack trace instead of tearing down the whole campaign;
//   - context.Context cancellation and optional per-job timeouts, checked
//     inside the simulator's instruction loop;
//   - live progress and ETA reporting through a ProgressFunc;
//   - a typed, schema-versioned result model with JSON and CSV emitters
//     (results.go) that cmd/benchdiff compares across runs.
package runner

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"morrigan/internal/arch"
	"morrigan/internal/machine"
	"morrigan/internal/sampling"
	"morrigan/internal/sim"
	"morrigan/internal/spans"
	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

// SMTVAOffset is the per-thread virtual-address-space offset: thread i's
// stream is shifted by i*SMTVAOffset so colocated SMT workloads behave as
// distinct processes.
const SMTVAOffset arch.VAddr = 1 << 40

// Job is one independent simulation in a campaign, described as data: a
// declarative machine spec plus the workload specs feeding its threads (1,
// or 2 for SMT). The machine and its trace readers are constructed on the
// worker goroutine that executes the job, so every piece of mutable
// simulation state (prefetcher tables, trace generators, RNGs) is built and
// used by exactly one goroutine.
//
// Because both halves are data with stable hashes, a job has a canonical
// identity (Key) that the checkpoint journal and cross-experiment result
// cache key on. The two escape hatches — Instrument and NewThreads — opt a
// job out of that identity: such jobs always execute (see Key).
type Job struct {
	// Experiment, Config and Workload identify the job in results
	// (e.g. "fig15", "Morrigan", "qmm-srv-07"). Config may be empty for
	// baseline runs. Display-only: they do not influence Key.
	Experiment, Config, Workload string

	// Machine describes the simulated machine as data; sim.New builds it on
	// the worker goroutine.
	Machine machine.Spec
	// Workloads feed the job's threads in order; thread i's address space is
	// offset by i*SMTVAOffset. Ignored when NewThreads is set.
	Workloads []workloads.Spec

	// Warmup and Measure are instruction counts for sim.Run.
	Warmup, Measure uint64

	// Instrument, when set, mutates the job's sim.Config (its machine spec
	// and runtime hooks) before the simulator is built — the hook for
	// run-observing closures (e.g. OnISTLBMiss capture). Instrumented jobs
	// have no data-only identity and are never journaled or served from the
	// result cache.
	Instrument func(*sim.Config)
	// NewThreads, when set, overrides Workloads as the instruction-stream
	// source (e.g. a trace container file). Such jobs also forgo a data-only
	// identity.
	NewThreads func() []sim.ThreadSpec

	// Sampling, when non-nil, switches the job to sampled execution:
	// profile the workload functionally, cluster its intervals, simulate
	// only representative slices in timing detail and extrapolate Stats
	// with confidence intervals (internal/sampling). The policy is part of
	// the job's canonical identity — a sampled job and its full-run twin
	// hash to different keys. Requires exactly one workload-described
	// thread (no NewThreads, no SMT pair).
	Sampling *sampling.Policy
}

// Name returns the job's "experiment/config/workload" display label, eliding
// empty parts.
func (j Job) Name() string {
	parts := make([]string, 0, 3)
	for _, p := range []string{j.Experiment, j.Config, j.Workload} {
		if p != "" {
			parts = append(parts, p)
		}
	}
	return strings.Join(parts, "/")
}

// Result is the outcome of one job.
type Result struct {
	// Job echoes the job this result belongs to.
	Job Job
	// Stats is the measurement snapshot; zero when Err is non-nil.
	Stats sim.Stats
	// Err reports a failed, panicked, cancelled or timed-out job.
	Err error
	// Elapsed is the job's wall-clock execution time (zero if never started).
	Elapsed time.Duration
	// SimInstructions is the total instructions the job executed, warmup
	// included (partial counts survive failed or cancelled jobs).
	SimInstructions uint64
	// InstrPerSec is the job's simulation throughput: SimInstructions per
	// wall-clock second.
	InstrPerSec float64
	// PeakHeapBytes is the larger of the process heap (runtime.MemStats
	// HeapAlloc) observed at job start and end. The heap is shared by every
	// concurrent job, so this is an upper bound on the job's own footprint,
	// comparable across runs at a fixed worker count.
	PeakHeapBytes uint64
	// TelemetryPath is the job's JSONL telemetry file, when
	// Options.Telemetry was set and the job ran.
	TelemetryPath string
	// Reused marks results that were not simulated by this job: ReusedCache
	// for in-process result-cache hits, ReusedJournal for checkpoint-journal
	// hits. Empty for jobs that actually ran.
	Reused string
	// Sampling, when non-nil, marks a sampled result and carries how it was
	// produced (policy, slice counts, per-metric 95% confidence intervals).
	// Stats then hold the weighted extrapolation, not a direct measurement.
	Sampling *sampling.Outcome
}

// Stored is the payload the reuse layers (journal, result store, in-process
// cache) carry per canonical key: the stats plus, for sampled jobs, the
// sampling outcome — so a reused sampled result keeps its confidence
// intervals and is never mistaken for a full measurement.
type Stored struct {
	Stats    sim.Stats
	Sampling *sampling.Outcome
}

// Reused markers.
const (
	ReusedCache   = "cache"
	ReusedJournal = "journal"
	ReusedStore   = "store"
)

// ResultStore is the durable cross-run result layer: a persistent map from
// canonical job keys (Job.Key) to completed results, shared across processes
// and machines. internal/resultstore implements it as an on-disk
// content-addressed store. Jobs whose key the store already holds are served
// without simulating (Result.Reused = ReusedStore); completed jobs are put
// back so later runs — on any machine sharing the store — reuse them.
// Implementations must be safe for concurrent use.
type ResultStore interface {
	// Lookup returns the stored payload for key, if present.
	Lookup(key string) (Stored, bool)
	// Put persists one completed result under key. Duplicate puts resolve
	// first-write-wins: a put whose stats equal the stored record is a
	// no-op, and one whose stats differ is an error — a stored result must
	// never change underneath consumers that already merged it.
	Put(key string, res Result) error
}

// RemoteExecutor executes keyed jobs somewhere other than this process — the
// attach surface of the distributed campaign fabric (internal/fabric), whose
// coordinator hands jobs to pull-based workers over HTTP. Only jobs with a
// data-only identity are delegated; instrumented and NewThreads jobs (whose
// closures cannot cross a process boundary) always execute locally.
type RemoteExecutor interface {
	// ExecuteRemote runs the job elsewhere and returns its result. It calls
	// started, when non-nil, once before returning the result: when a worker
	// first takes the job, or at once if one already has. The returned error
	// reports delegation failures (coordinator shut down, context
	// cancelled); a job that executed remotely and failed comes back as
	// (Result{Err: ...}, nil) just as local execution would.
	ExecuteRemote(ctx context.Context, job Job, key string, started func()) (Result, error)
}

// Options configures a campaign run.
type Options struct {
	// Workers bounds the number of simulations in flight; 0 or negative
	// means GOMAXPROCS. 1 reproduces serial execution exactly.
	Workers int
	// Timeout, when positive, bounds each job's execution time.
	Timeout time.Duration
	// Progress, when non-nil, is called after every job completes (from a
	// single goroutine at a time; it need not be re-entrant).
	Progress ProgressFunc
	// Telemetry, when non-nil, builds a time series of every full-run job's
	// progress reports and writes one JSONL file per job into Telemetry.Dir.
	Telemetry *TelemetryOptions
	// Observer, when non-nil, receives campaign lifecycle callbacks and
	// every running job's live counters (see Observer).
	Observer Observer
	// NewReader, when non-nil, builds each workload's instruction stream
	// (e.g. from a materialised corpus) instead of the workload's live
	// generator. It runs on the job's worker goroutine.
	NewReader func(workloads.Spec) (trace.Reader, error)
	// Journal, when non-nil, is the crash-safe checkpoint: completed jobs
	// are appended to it, and jobs already journaled (resume) are served
	// from it without simulating.
	Journal *Journal
	// Cache, when non-nil, deduplicates jobs with equal canonical keys —
	// across campaigns when shared — so each distinct (config, workload,
	// scale) triple simulates exactly once.
	Cache *ResultCache
	// Store, when non-nil, is the durable result layer: keyed jobs already
	// present are served without simulating, and completed keyed jobs are
	// persisted so results dedup across runs and across machines (see
	// ResultStore and internal/resultstore).
	Store ResultStore
	// Remote, when non-nil, delegates keyed jobs to remote workers instead
	// of simulating them on this process's worker pool (see RemoteExecutor
	// and internal/fabric). Reuse layers still apply: only jobs missing
	// from the journal, store and cache are delegated.
	Remote RemoteExecutor
	// Profiles caches sampling profile artifacts, typically on disk in
	// <corpus>/profiles, so the functional profiling pass of a sampled job
	// is paid once per workload and window. When it is nil, Run opens a
	// memory-only store for the campaign with the same sharing: the pass
	// depends only on the workload and window, never the machine, so an
	// N-config sweep pays it once per workload either way.
	Profiles *sampling.ProfileStore
	// Spans, when non-nil, records a distributed-tracing span for every job
	// lifecycle phase — reuse lookups, cache waits, machine build (sim.New),
	// corpus ingest, sampled fast-forward/settle, timed simulation,
	// persistence — under a trace id derived from the job's canonical key
	// (internal/spans).
	// Like every observer layer, it is provably inert: nil costs one nil
	// check per phase, and results are bit-identical either way (asserted by
	// the trace-purity test).
	Spans *spans.Recorder
}

// jobTraceID derives the job's trace id: the canonical key when the job has
// one, else a synthetic id from the campaign index and display name (unkeyed
// jobs never leave the process, so the synthetic id needs no cross-machine
// stability).
func jobTraceID(key string, keyed bool, i int, j Job) string {
	if keyed {
		return key
	}
	return fmt.Sprintf("unkeyed/%d/%s", i, j.Name())
}

// Observer receives campaign lifecycle notifications, the attach surface of
// the live observability server (internal/obs). CampaignStarted is called
// once per Run before any job launches. Every job this process simulates,
// full or sampled, gets JobStarted, then JobProgress with the simulator's
// live counters (sim.Config.OnProgress: every 65,536 instructions and at the
// end of each timed or functional run), then JobFinished. The three run on
// the job's worker goroutine, concurrently with other jobs' calls, so
// implementations must be safe for concurrent use; JobProgress runs inside
// the simulation loop and must be fast. A job delegated to a RemoteExecutor
// gets JobStarted when a worker first takes it, not when it is queued (the
// executor calls it from inside ExecuteRemote), and JobFinished when its
// result returns, with no live counters between; jobs served from a reuse
// layer receive only JobFinished, with Result.Reused set.
type Observer interface {
	CampaignStarted(total int)
	JobStarted(index int, job Job)
	JobProgress(index int, p sim.Progress)
	JobFinished(index int, res Result)
}

// workers resolves the pool width for n jobs.
func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes the campaign and returns one Result per job, in job order.
// Jobs are independent: a failing (or panicking) job does not stop the
// others, and its Result carries the error. The returned error is the
// lowest-indexed job error, if any — deterministic regardless of completion
// order — or the context's error when the campaign was cancelled. A nil ctx
// means context.Background().
func Run(ctx context.Context, jobs []Job, opt Options) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results, ctx.Err()
	}
	if opt.Telemetry != nil {
		if err := os.MkdirAll(opt.Telemetry.Dir, 0o755); err != nil {
			return results, fmt.Errorf("runner: telemetry dir: %w", err)
		}
	}
	if opt.Observer != nil {
		opt.Observer.CampaignStarted(len(jobs))
	}
	if opt.Profiles == nil {
		opt.Profiles, _ = sampling.OpenProfileStore("") // memory-only: cannot fail
	}

	var (
		mu      sync.Mutex // guards next and the progress tracker
		next    int
		claimed = make([]bool, len(jobs))
		prog    = newProgressTracker(len(jobs), opt.Progress)
		wg      sync.WaitGroup
	)
	for w := opt.workers(len(jobs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(jobs) {
					return
				}
				claimed[i] = true
				results[i] = executeShared(ctx, i, jobs[i], opt)
				if opt.Observer != nil {
					opt.Observer.JobFinished(i, results[i])
				}
				mu.Lock()
				prog.done(results[i])
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	// Jobs never claimed (campaign cancelled first) carry the context error.
	for i := range results {
		if !claimed[i] {
			err := ctx.Err()
			if err == nil {
				err = context.Canceled
			}
			results[i] = Result{Job: jobs[i], Err: fmt.Errorf("runner: %s: %w", jobs[i].Name(), err)}
		}
	}
	return results, firstError(ctx, results)
}

// firstError picks the campaign-level error: the context's error if
// cancelled, else the lowest-indexed job error.
func firstError(ctx context.Context, results []Result) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for i := range results {
		if results[i].Err != nil {
			return results[i].Err
		}
	}
	return nil
}

// executeShared wraps execute with the key-based reuse layers: the
// checkpoint journal (completed results from a previous, interrupted run),
// the durable result store (completed results from any previous run, on any
// machine sharing the store), and the in-process result cache (duplicate
// jobs within or across the current process's campaigns). Jobs without a
// data-only identity bypass all of them and always execute locally.
func executeShared(ctx context.Context, i int, j Job, opt Options) Result {
	key, keyed := j.Key()
	trace := jobTraceID(key, keyed, i, j)
	if !keyed || (opt.Journal == nil && opt.Cache == nil && opt.Store == nil) {
		return executePersisted(ctx, i, j, opt, key, keyed, trace)
	}
	if opt.Journal != nil {
		sp := opt.Spans.Start(trace, "lookup.journal")
		st, hit := opt.Journal.Lookup(key)
		sp.Attr("hit", fmt.Sprint(hit)).End()
		if hit {
			if opt.Cache != nil {
				opt.Cache.publish(key, st)
			}
			return Result{Job: j, Stats: st.Stats, Sampling: st.Sampling, Reused: ReusedJournal}
		}
	}
	if opt.Store != nil {
		sp := opt.Spans.Start(trace, "lookup.store")
		st, hit := opt.Store.Lookup(key)
		sp.Attr("hit", fmt.Sprint(hit)).End()
		if hit {
			if opt.Cache != nil {
				opt.Cache.publish(key, st)
			}
			return Result{Job: j, Stats: st.Stats, Sampling: st.Sampling, Reused: ReusedStore}
		}
	}
	if opt.Cache == nil {
		return executePersisted(ctx, i, j, opt, key, keyed, trace)
	}
	e, leader := opt.Cache.acquire(key)
	if !leader {
		// Follower: wait for the leader's verdict. A failed leader releases
		// us with ok=false and a vacated entry — run live rather than reuse
		// (or re-elect on) an error.
		sp := opt.Spans.Start(trace, "cache.wait")
		select {
		case <-e.done:
		case <-ctx.Done():
			sp.Attr("hit", "false").End()
			return Result{Job: j, Err: fmt.Errorf("runner: %s: %w", j.Name(), ctx.Err())}
		}
		sp.Attr("hit", fmt.Sprint(e.ok)).End()
		if e.ok {
			opt.Cache.hit()
			return Result{Job: j, Stats: e.stored.Stats, Sampling: e.stored.Sampling, Reused: ReusedCache}
		}
		return executePersisted(ctx, i, j, opt, key, keyed, trace)
	}
	res := executePersisted(ctx, i, j, opt, key, keyed, trace)
	if res.Err == nil {
		opt.Cache.complete(e, Stored{Stats: res.Stats, Sampling: res.Sampling})
	} else {
		opt.Cache.abort(key, e)
	}
	return res
}

// executePersisted runs the job — remotely when a RemoteExecutor is attached
// and the job is keyed, locally otherwise — and, on success, checkpoints the
// result to the journal and persists it to the result store (whichever are
// attached). A journal or store write failure fails the job: a checkpoint
// the caller asked for but silently did not get would defeat resume, and a
// store put that silently vanished would defeat cross-run reuse.
func executePersisted(ctx context.Context, i int, j Job, opt Options, key string, keyed bool, trace string) Result {
	var res Result
	if keyed && opt.Remote != nil {
		var started func()
		if opt.Observer != nil {
			started = func() { opt.Observer.JobStarted(i, j) }
		}
		sp := opt.Spans.Start(trace, "remote")
		r, err := opt.Remote.ExecuteRemote(ctx, j, key, started)
		sp.Attr("ok", fmt.Sprint(err == nil)).End()
		if err != nil {
			res = Result{Job: j, Err: fmt.Errorf("runner: %s: %w", j.Name(), err)}
		} else {
			res = r
			res.Job = j
		}
	} else {
		res = execute(ctx, i, j, opt, trace)
	}
	if keyed && res.Err == nil {
		if opt.Journal != nil {
			sp := opt.Spans.Start(trace, "persist.journal")
			err := opt.Journal.Append(res)
			sp.End()
			if err != nil {
				res.Err = fmt.Errorf("runner: %s: %w", j.Name(), err)
				return res
			}
		}
		if opt.Store != nil {
			sp := opt.Spans.Start(trace, "persist.store")
			err := opt.Store.Put(key, res)
			sp.End()
			if err != nil {
				res.Err = fmt.Errorf("runner: %s: %w", j.Name(), err)
			}
		}
	}
	return res
}

// buildThreads constructs the job's instruction streams: the NewThreads
// escape hatch verbatim, else one reader per workload spec (via
// Options.NewReader when set), with thread i's address space offset by
// i*SMTVAOffset. On error, already-built readers are closed.
func buildThreads(j Job, opt Options) ([]sim.ThreadSpec, error) {
	if j.NewThreads != nil {
		return j.NewThreads(), nil
	}
	threads := make([]sim.ThreadSpec, 0, len(j.Workloads))
	for i, w := range j.Workloads {
		var r trace.Reader
		var err error
		if opt.NewReader != nil {
			r, err = opt.NewReader(w)
		} else {
			r = w.NewReader()
		}
		if err != nil {
			closeThreadReaders(threads)
			return nil, fmt.Errorf("building %s reader: %w", w.Name, err)
		}
		threads = append(threads, sim.ThreadSpec{Reader: r, VAOffset: arch.VAddr(i) * SMTVAOffset})
	}
	return threads, nil
}

// execute runs job i with panic isolation and the per-job timeout. Its
// progress reports feed the observer's live counters and, for a full run,
// the optional telemetry series written to the job's own JSONL file.
func execute(ctx context.Context, i int, j Job, opt Options, trace string) (res Result) {
	res.Job = j
	if err := ctx.Err(); err != nil {
		res.Err = fmt.Errorf("runner: %s: %w", j.Name(), err)
		return res
	}
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	execSpan := opt.Spans.Start(trace, "execute")
	start := time.Now()
	startHeap := heapAlloc()
	var series *jobSeries
	var s *sim.Simulator
	defer func() {
		res.Elapsed = time.Since(start)
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("runner: %s: panic: %v\n%s", j.Name(), r, debug.Stack())
		}
		// Throughput and peak-heap accounting survive failed jobs: a partial
		// instruction count over a partial elapsed time is still a rate.
		if s != nil {
			res.SimInstructions = s.Executed()
		}
		if secs := res.Elapsed.Seconds(); secs > 0 {
			res.InstrPerSec = float64(res.SimInstructions) / secs
		}
		res.PeakHeapBytes = max(startHeap, heapAlloc())
		if series != nil {
			// Write whatever was collected — partial telemetry from a
			// failed or cancelled job is still diagnostic data.
			path, werr := opt.Telemetry.writeTelemetry(i, j, series)
			if werr != nil && res.Err == nil {
				res.Err = werr
			}
			res.TelemetryPath = path
		}
		execSpan.Attr("ok", fmt.Sprint(res.Err == nil))
		execSpan.AttrInt("instructions", int64(res.SimInstructions))
		if res.Sampling != nil {
			execSpan.AttrInt("sampled_slices", int64(res.Sampling.Slices))
		}
		execSpan.End()
	}()
	cfg := sim.Config{Spec: j.Machine}
	if j.Instrument != nil {
		j.Instrument(&cfg)
	}
	// Sampled execution gets no telemetry series: the run is a sequence of
	// short warmup/measure slices, each of which resets the counters, so a
	// per-job time series is undefined.
	if opt.Telemetry != nil && j.Sampling == nil {
		series = &jobSeries{}
	}
	if opt.Observer != nil || series != nil {
		cfg.OnProgress = func(p sim.Progress) {
			if series != nil {
				series.observe(p)
			}
			if opt.Observer != nil {
				opt.Observer.JobProgress(i, p)
			}
		}
	}
	if opt.Observer != nil {
		opt.Observer.JobStarted(i, j)
	}
	if j.Sampling != nil {
		st, outcome, serr := executeSampled(ctx, &s, cfg, j, opt, trace)
		if serr != nil {
			res.Err = fmt.Errorf("runner: %s: %w", j.Name(), serr)
			return res
		}
		res.Stats = st
		res.Sampling = outcome
		return res
	}
	threadSpan := opt.Spans.Start(trace, "threads")
	threads, err := buildThreads(j, opt)
	threadSpan.End()
	if err != nil {
		res.Err = fmt.Errorf("runner: %s: %w", j.Name(), err)
		return res
	}
	defer closeThreadReaders(threads)
	buildSpan := opt.Spans.Start(trace, "build")
	s, err = sim.New(cfg, threads)
	buildSpan.End()
	if err != nil {
		s = nil
		res.Err = fmt.Errorf("runner: %s: %w", j.Name(), err)
		return res
	}
	simSpan := opt.Spans.Start(trace, "simulate")
	st, err := s.RunContext(ctx, j.Warmup, j.Measure)
	simSpan.End()
	if err != nil {
		res.Err = fmt.Errorf("runner: %s: %w", j.Name(), err)
		return res
	}
	// A workload-described job's key promises Measure instructions; a
	// stream that ended early (a short corpus container, say) must fail
	// rather than be journaled, stored or cached under that key. NewThreads
	// jobs are unkeyed, and a finite trace file ends their run by design.
	if j.NewThreads == nil && st.Instructions < j.Measure {
		res.Err = fmt.Errorf("runner: %s: trace ended after %d of %d measured instructions", j.Name(), st.Instructions, j.Measure)
		return res
	}
	res.Stats = st
	return res
}

// closeThreadReaders releases job-owned trace readers that hold external
// resources: corpus readers pin decoded chunks in the shared cache until
// closed, so a cancelled or panicked job must still run this or the pinned
// chunks would be unevictable for the rest of the campaign. Close errors are
// ignored — the stream has already been consumed or abandoned.
func closeThreadReaders(threads []sim.ThreadSpec) {
	for _, ts := range threads {
		if c, ok := ts.Reader.(io.Closer); ok {
			c.Close()
		}
	}
}

// heapAlloc samples the process's live heap. ReadMemStats costs a
// stop-the-world pause measured in microseconds — twice per job, against
// jobs that run for seconds, it is free.
func heapAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

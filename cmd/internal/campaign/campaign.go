// Package campaign is the front end morrigansim and experiments share: it
// registers the campaign flags both commands take, opens each layer those
// flags select exactly once (corpus store, sampling profiles, journal,
// result store, observability server, fabric coordinator, span recorder),
// and closes them all through one Close on every exit path.
package campaign

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"morrigan"
	"morrigan/internal/profile"
)

// drainTimeout bounds how long Close waits for outstanding fabric leases.
const drainTimeout = 30 * time.Second

// Flags are the campaign flags morrigansim and experiments share.
type Flags struct {
	Jobs           int
	JSON, CSV      string
	Telemetry      string
	Serve          string
	Corpus         string
	CorpusCacheMB  int64
	Journal        string
	Resume         bool
	Results        string
	Fabric         string
	TraceOut       string
	Sample         bool
	SampleInterval uint64
	SampleClusters int
	SampleWarmup   int64
	DryRun         bool
	Verbose        bool
	CPUProfile     string
	MemProfile     string
	// LeaseTTL is bound by a command that registers -lease-ttl itself
	// (experiments); zero means the coordinator's default.
	LeaseTTL time.Duration
}

// Register defines the shared campaign flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Jobs, "jobs", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
	fs.StringVar(&f.JSON, "json", "", "write per-simulation results as JSON to a file ('-' for stdout)")
	fs.StringVar(&f.CSV, "csv", "", "write per-simulation results as CSV to a file ('-' for stdout)")
	fs.StringVar(&f.Telemetry, "telemetry", "", "write per-simulation telemetry JSONL files into this directory")
	fs.StringVar(&f.Serve, "serve", "", "serve live observability HTTP on this address (e.g. :8080): /metrics, /campaign, /events, /healthz, /debug/pprof")
	fs.StringVar(&f.Corpus, "corpus", "", "feed workloads from materialised trace corpora in this directory (built on first use)")
	fs.Int64Var(&f.CorpusCacheMB, "corpus-cache-mb", 0, "memory budget in MiB of the decoded-chunk cache all jobs share: the most it holds; a corpus larger than it keeps only the chunks between its readers (0 = default 512)")
	fs.StringVar(&f.Journal, "journal", "", "checkpoint completed simulations to this journal file")
	fs.BoolVar(&f.Resume, "resume", false, "serve already-journaled results from -journal instead of re-simulating")
	fs.StringVar(&f.Results, "results", "", "durable result store directory: reuse stored results across runs and persist new ones")
	fs.StringVar(&f.Fabric, "fabric", "", "serve a distributed-campaign coordinator on this address (e.g. :9090) and delegate jobs to fabric workers")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write this process's spans of every job's lifecycle phases to this file (.jsonl for JSONL, otherwise Chrome trace-event JSON for Perfetto); with -fabric, workers' job spans go to their own fabric work -trace-out")
	fs.BoolVar(&f.Sample, "sample", false, "representative-interval sampling for eligible jobs: time only clustered representative slices and report extrapolated stats with 95% CIs")
	fs.Uint64Var(&f.SampleInterval, "sample-interval", 0, "sampling interval length in instructions (0 = default 100000; measure must be a multiple)")
	fs.IntVar(&f.SampleClusters, "sample-clusters", 0, "sampling cluster count / representative slices per run (0 = default 8)")
	fs.Int64Var(&f.SampleWarmup, "sample-warmup", -1, "timed slice warmup instructions before each representative (-1 = default 25000, 0 = none)")
	fs.BoolVar(&f.DryRun, "dry-run", false, "print enumerated jobs (key, machine and workload hashes, scale) without simulating")
	fs.BoolVar(&f.Verbose, "v", false, "print per-simulation progress with ETA")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file when the run completes")
	return f
}

// Campaign is the set of layers a command's flags selected, each opened
// once. Close ends it on every exit path.
type Campaign struct {
	// Context ends on SIGINT or SIGTERM.
	Context context.Context
	// Records collects the results -json and -csv write.
	Records *morrigan.CampaignRecorder
	// Sampling is -sample's validated policy, nil without -sample.
	Sampling *morrigan.SamplingPolicy

	name    string
	f       *Flags
	stop    context.CancelFunc
	corpus  *morrigan.CorpusStore
	coord   *morrigan.FabricCoordinator
	opt     morrigan.CampaignOptions // every opened layer, nil interfaces for the rest
	closers []func() error           // run in reverse order
}

// Open validates the flags for a campaign of warmup+measure instructions
// per job and opens every layer they select; the corpus reader hook
// materialises warmup+measure records. Under -dry-run it opens nothing. On
// error it closes whatever it had opened.
func Open(name string, f *Flags, warmup, measure uint64) (*Campaign, error) {
	if f.Resume && f.Journal == "" {
		return nil, errors.New("-resume requires -journal")
	}
	if f.CorpusCacheMB < 0 || f.CorpusCacheMB > math.MaxInt64>>20 {
		return nil, fmt.Errorf("-corpus-cache-mb %d out of range [0, %d]", f.CorpusCacheMB, int64(math.MaxInt64>>20))
	}
	c := &Campaign{name: name, f: f, Records: &morrigan.CampaignRecorder{}}
	if f.Sample {
		p := morrigan.DefaultSamplingPolicy()
		if f.SampleInterval != 0 {
			p.Interval = f.SampleInterval
		}
		if f.SampleClusters != 0 {
			p.Clusters = f.SampleClusters
		}
		if f.SampleWarmup >= 0 {
			p.SliceWarmup = uint64(f.SampleWarmup)
		}
		if err := p.Validate(measure); err != nil {
			return nil, err
		}
		c.Sampling = &p
	}
	c.Context, c.stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	c.closers = append(c.closers, func() error { c.stop(); return nil })
	if f.DryRun {
		return c, nil
	}
	if err := c.open(warmup + measure); err != nil {
		return nil, errors.Join(err, c.closeLayers())
	}
	return c, nil
}

// open opens the selected layers in dependency order, registering each
// one's closer as it goes.
func (c *Campaign) open(window uint64) error {
	f := c.f
	stopProf, err := profile.Start(f.CPUProfile, f.MemProfile)
	if err != nil {
		return err
	}
	c.closers = append(c.closers, stopProf)
	c.opt.Workers = f.Jobs
	if f.Verbose {
		c.opt.Progress = morrigan.CampaignWriterProgress(os.Stderr)
	}
	if f.Telemetry != "" {
		c.opt.Telemetry = &morrigan.CampaignTelemetry{Dir: f.Telemetry}
	}
	if f.TraceOut != "" {
		c.opt.Spans = morrigan.NewTraceRecorder("")
	}
	if f.Corpus != "" {
		cs, err := morrigan.OpenCorpusStore(morrigan.CorpusOptions{Dir: f.Corpus, CacheBytes: f.CorpusCacheMB << 20})
		if err != nil {
			return err
		}
		c.closers = append(c.closers, cs.Close)
		c.corpus = cs
		c.opt.NewReader = cs.Readers(window)
	}
	if c.Sampling != nil {
		// Profile artifacts live beside the trace corpus, so repeated sampled
		// campaigns skip the functional profiling pass; without a corpus, one
		// memory-only store serves every campaign of the process.
		dir := ""
		if f.Corpus != "" {
			dir = filepath.Join(f.Corpus, "profiles")
		}
		ps, err := morrigan.OpenSamplingProfileStore(dir)
		if err != nil {
			return fmt.Errorf("profiles: %w", err)
		}
		c.opt.Profiles = ps
	}
	if f.Journal != "" {
		jn, err := morrigan.OpenCampaignJournal(f.Journal, f.Resume)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		c.closers = append(c.closers, jn.Close)
		c.opt.Journal = jn
		if f.Resume && jn.Len() > 0 {
			c.logf("resuming with %d journaled results", jn.Len())
		}
	}
	if f.Results != "" {
		rs, err := morrigan.OpenResultStore(f.Results)
		if err != nil {
			return fmt.Errorf("results: %w", err)
		}
		if rs.Len() > 0 || rs.Skipped() > 0 {
			c.logf("result store holds %d reusable results (%d unverifiable skipped)", rs.Len(), rs.Skipped())
		}
		c.opt.Store = rs
	}
	var srv *morrigan.ObservabilityServer
	if f.Serve != "" {
		srv = morrigan.NewObservabilityServer()
		addr, err := srv.Start(f.Serve)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		c.closers = append(c.closers, srv.Close)
		c.logf("observability on http://%s/metrics", addr)
		c.opt.Observer = srv
		if c.opt.Journal != nil {
			srv.AddReadiness("journal", c.opt.Journal.Writable)
		}
		if c.Sampling != nil {
			srv.AddGaugeSource(morrigan.SamplingGauges(c.opt.Profiles))
		}
	}
	if f.Fabric != "" {
		coord := morrigan.NewFabricCoordinator(morrigan.FabricCoordinatorOptions{
			LeaseTTL: f.LeaseTTL,
			Corpus:   c.corpus,
			Log:      os.Stderr,
			Spans:    c.opt.Spans,
		})
		addr, err := coord.Start(f.Fabric)
		if err != nil {
			return fmt.Errorf("fabric: %w", err)
		}
		c.closers = append(c.closers, coord.Close)
		c.coord = coord
		c.logf("fabric coordinator on http://%s/fabric/status — start workers with: fabric work -coordinator http://%s", addr, addr)
		c.opt.Remote = coord
		if srv != nil {
			srv.AddGaugeSource(coord.Gauges)
		}
	}
	return nil
}

// Runner returns campaign options attaching every opened layer.
func (c *Campaign) Runner() morrigan.CampaignOptions { return c.opt }

// Experiments returns opt with every opened layer attached.
func (c *Campaign) Experiments(opt morrigan.ExperimentOptions) morrigan.ExperimentOptions {
	opt.Jobs = c.opt.Workers
	opt.Context = c.Context
	opt.Record = c.Records
	opt.Telemetry = c.opt.Telemetry
	opt.Observer = c.opt.Observer
	opt.Corpus = c.corpus
	opt.Journal = c.opt.Journal
	opt.Store = c.opt.Store
	opt.Remote = c.opt.Remote
	opt.Sampling = c.Sampling
	opt.Profiles = c.opt.Profiles
	opt.Spans = c.opt.Spans
	if c.f.Verbose {
		opt.Progress = os.Stderr
	}
	if c.f.DryRun {
		opt.DryRun = os.Stdout
	}
	return opt
}

// Close ends the campaign, finished, failed or interrupted: it lets
// outstanding fabric leases resolve, writes -json, -csv and -trace-out from
// what was collected, closes every layer and flushes the CPU and heap
// profiles. It returns every error it met.
func (c *Campaign) Close() error {
	interrupted := c.Context.Err() != nil
	c.stop() // a second signal kills the process the default way
	var errs []error
	if c.coord != nil {
		if interrupted {
			c.logf("interrupted; draining outstanding fabric leases")
		}
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		errs = append(errs, c.coord.Drain(ctx))
		cancel()
	}
	if !c.f.DryRun {
		camp := c.Records.Campaign()
		errs = append(errs, writeOutput(c.f.JSON, camp.WriteJSON), writeOutput(c.f.CSV, camp.WriteCSV))
		if sp := c.opt.Spans; sp != nil {
			if err := morrigan.WriteTraceFile(c.f.TraceOut, sp.Spans()); err != nil {
				errs = append(errs, fmt.Errorf("trace-out: %w", err))
			} else {
				c.logf("wrote %d trace spans to %s", sp.Len(), c.f.TraceOut)
			}
		}
	}
	return errors.Join(append(errs, c.closeLayers())...)
}

// closeLayers runs every registered closer, last opened first.
func (c *Campaign) closeLayers() error {
	var errs []error
	for i := len(c.closers) - 1; i >= 0; i-- {
		errs = append(errs, c.closers[i]())
	}
	c.closers = nil
	return errors.Join(errs...)
}

func (c *Campaign) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, c.name+": "+format+"\n", args...)
}

// writeOutput writes one result file to path ('-' for stdout); an empty
// path is a no-op.
func writeOutput(path string, emit func(io.Writer) error) error {
	switch path {
	case "":
		return nil
	case "-":
		return emit(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(emit(f), f.Close())
}

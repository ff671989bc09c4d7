// Package obs is the live observability surface of a simulation campaign: an
// opt-in HTTP server that attaches to the campaign runner (internal/runner)
// through its Observer hooks and exposes, while simulations are still
// running:
//
//   - GET /metrics — Prometheus text exposition: campaign progress (jobs
//     done/failed, ETA, executed instructions), per-job live simulator gauges
//     (instructions, cycles, IPC, iSTLB/dSTLB MPKI, PB hit rate, simulated
//     instructions per second) from each job's latest progress report,
//     sampled-run counters, and host self-profiling gauges (heap, GC,
//     goroutines);
//   - GET /campaign — the same state as one JSON document;
//   - GET /events — a Server-Sent-Events stream of job progress reports
//     and lifecycle transitions, in arrival order;
//   - GET /healthz, /healthz/live — liveness; GET /healthz/ready —
//     readiness (503 until a campaign attaches, or while any registered
//     readiness check — e.g. journal writability — fails);
//   - /debug/pprof/* — the standard Go profiler endpoints.
//
// Every job the runner simulates, full or sampled, reports its counters
// through one path: the simulator's progress hook (sim.Config.OnProgress)
// calls Observer.JobProgress on the simulation goroutine, and the server
// keeps each job's latest report. The same reports build the runner's
// telemetry files: a counter added to telemetry.Sample reaches both, shown
// here through jobCounters and in the JSONL series through IntervalSample.
// The server is purely observational — it only copies the reported values —
// so an attached server leaves campaign results bit-identical to an
// unobserved run. When no server is constructed (the -serve flag unset), none
// of this code runs at all.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"morrigan/internal/runner"
	"morrigan/internal/sim"
)

// statusSchemaVersion identifies the /campaign JSON document's schema. It is
// the status document's own version, not the result-file schema
// (runner.SchemaVersion): fields added to the document leave it unchanged,
// and removing one bumps it. Version 2 dropped the straggler fields.
const statusSchemaVersion = 2

// maxRecent bounds the finished-job history kept for /campaign; older entries
// roll into the aggregate counters only.
const maxRecent = 64

// jobState tracks one campaign job from JobStarted to JobFinished.
type jobState struct {
	index    int
	name     string
	started  time.Time
	counters jobCounters // latest progress report
	reports  int         // progress reports received
}

// jobCounters is one job's latest progress report as /metrics, /campaign and
// the SSE stream show it. Instructions (the figure Result.SimInstructions
// reports) and FastForwarded are the simulator's never-reset totals; the
// other fields cover the current measurement interval, so they restart at
// the warmup/measure boundary.
type jobCounters struct {
	Instructions         uint64  `json:"instructions"`
	FastForwarded        uint64  `json:"fast_forwarded"`
	MeasuredInstructions uint64  `json:"measured_instructions"`
	Cycles               uint64  `json:"cycles"`
	IPC                  float64 `json:"ipc"`
	ISTLBMPKI            float64 `json:"istlb_mpki"`
	DSTLBMPKI            float64 `json:"dstlb_mpki"`
	PBHitRate            float64 `json:"pb_hit_rate"`
}

// newJobCounters derives the scrape view of one progress report.
func newJobCounters(p sim.Progress) jobCounters {
	c := p.Counters
	jc := jobCounters{
		Instructions:         p.Executed,
		FastForwarded:        p.FastForwarded,
		MeasuredInstructions: c.Instructions,
		Cycles:               uint64(c.Cycles),
	}
	if c.Cycles > 0 {
		jc.IPC = float64(c.Instructions) / float64(c.Cycles)
	}
	if c.Instructions > 0 {
		ki := float64(c.Instructions) / 1000
		jc.ISTLBMPKI = float64(c.ISTLBMisses) / ki
		jc.DSTLBMPKI = float64(c.DSTLBMisses) / ki
	}
	if c.ISTLBMisses > 0 {
		jc.PBHitRate = float64(c.PBHits) / float64(c.ISTLBMisses)
	}
	return jc
}

// finishedJob is the bounded post-completion record kept for /campaign.
type finishedJob struct {
	Name         string  `json:"name"`
	OK           bool    `json:"ok"`
	ElapsedMS    float64 `json:"elapsed_ms"`
	Instructions uint64  `json:"instructions"`
	InstrPerSec  float64 `json:"instr_per_sec"`
	IPC          float64 `json:"ipc"`
	Error        string  `json:"error,omitempty"`
}

// Server is the observability server. Construct with New, attach to a
// campaign via runner.Options.Observer, and serve with Start (or mount
// Handler on any http server). All methods are safe for concurrent use.
type Server struct {
	mu      sync.Mutex
	started time.Time

	totalJobs    int // scheduled across all campaigns so far
	doneJobs     int
	executedJobs int // finished jobs that simulated (Reused == "")
	failedJobs   int
	doneInstr    uint64  // executed instructions of finished jobs
	doneElapsed  float64 // summed wall seconds of finished jobs

	// Sampled jobs simulated (not reused) and their timed and
	// fast-forwarded instructions, from finished results.
	sampledRuns, sampledTimed, sampledFF uint64

	active map[int]*jobState // live jobs of the current campaign, by index
	recent []finishedJob     // trailing window of finished jobs

	scrapes uint64 // /metrics requests served (a counter metric)

	gaugeSources []func() []Gauge        // extra /metrics gauges (see AddGaugeSource)
	readiness    map[string]func() error // named readiness checks (see AddReadiness)

	hub *hub
	mux *http.ServeMux

	lis  net.Listener
	srv  *http.Server
	done chan struct{}
}

// New builds a detached server; nothing listens until Start (tests mount
// Handler() on an httptest server instead).
func New() *Server {
	s := &Server{
		started:   time.Now(),
		active:    make(map[int]*jobState),
		readiness: make(map[string]func() error),
		hub:       newHub(),
		mux:       http.NewServeMux(),
	}
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/campaign", s.handleCampaign)
	s.mux.HandleFunc("/events", s.handleEvents)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/healthz/live", s.handleHealthz)
	s.mux.HandleFunc("/healthz/ready", s.handleReady)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the server's HTTP handler (for tests and custom mounting).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (e.g. ":8080", "127.0.0.1:0") and serves in the
// background until Close. It returns the bound address, so ":0" is usable.
func (s *Server) Start(addr string) (net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s.lis = lis
	s.srv = &http.Server{Handler: s.mux}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		// ErrServerClosed is the normal Close path; anything else is lost —
		// the campaign outcome must not depend on the observability server.
		_ = s.srv.Serve(lis)
	}()
	return lis.Addr(), nil
}

// Close shuts the listener down and disconnects event subscribers.
func (s *Server) Close() error {
	s.hub.close()
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

// Server implements runner.Observer.
var _ runner.Observer = (*Server)(nil)

// CampaignStarted accumulates scheduled jobs. Experiment harnesses run many
// campaigns back to back through one server; totals aggregate across them,
// and per-campaign job indices only ever collide after the previous
// campaign's jobs have all finished, so the active map is safe to reuse.
func (s *Server) CampaignStarted(total int) {
	s.mu.Lock()
	s.totalJobs += total
	s.mu.Unlock()
}

// JobStarted registers a live job.
func (s *Server) JobStarted(index int, job runner.Job) {
	name := job.Name()
	s.mu.Lock()
	s.active[index] = &jobState{index: index, name: name, started: time.Now()}
	s.mu.Unlock()
	s.hub.publish(event{Type: "job", Data: jobEvent{Job: name, Index: index, State: "started"}})
}

// JobProgress keeps a live job's latest counters and publishes them as a
// "progress" event. Reports for jobs not started here are ignored.
func (s *Server) JobProgress(index int, p sim.Progress) {
	c := newJobCounters(p)
	s.mu.Lock()
	st, ok := s.active[index]
	if ok {
		st.counters = c
		st.reports++
	}
	s.mu.Unlock()
	if ok {
		s.hub.publish(event{Type: "progress", Data: progressEvent{Job: st.name, Index: index, jobCounters: c}})
	}
}

// JobFinished retires a live job into the aggregate counters and the bounded
// recent-history window.
func (s *Server) JobFinished(index int, res runner.Result) {
	f := finishedJob{
		Name:         res.Job.Name(),
		OK:           res.Err == nil,
		ElapsedMS:    float64(res.Elapsed.Microseconds()) / 1000,
		Instructions: res.SimInstructions,
		InstrPerSec:  res.InstrPerSec,
		IPC:          res.Stats.IPC,
	}
	if res.Err != nil {
		f.Error = res.Err.Error()
	}
	s.mu.Lock()
	delete(s.active, index)
	s.doneJobs++
	if res.Reused == "" {
		s.executedJobs++
	}
	if res.Err != nil {
		s.failedJobs++
	}
	s.doneInstr += res.SimInstructions
	s.doneElapsed += res.Elapsed.Seconds()
	if res.Sampling != nil && res.Reused == "" {
		s.sampledRuns++
		s.sampledTimed += res.Sampling.TimedInstructions
		s.sampledFF += res.Sampling.FastForwarded
	}
	s.recent = append(s.recent, f)
	if len(s.recent) > maxRecent {
		s.recent = s.recent[len(s.recent)-maxRecent:]
	}
	s.mu.Unlock()
	state := "finished"
	if res.Err != nil {
		state = "failed"
	}
	s.hub.publish(event{Type: "job", Data: jobEvent{Job: f.Name, Index: index, State: state}})
}

// eta estimates remaining campaign seconds with the runner's estimator.
// Callers hold s.mu.
func (s *Server) eta(now time.Time) float64 {
	return runner.ETA(now.Sub(s.started), s.executedJobs, s.totalJobs-s.doneJobs).Seconds()
}

// liveJob is one active job's scrape view.
type liveJob struct {
	Index       int     `json:"index"`
	Name        string  `json:"name"`
	RunningSecs float64 `json:"running_seconds"`
	jobCounters
	InstrPerSec float64 `json:"instr_per_sec"`
	// Samples counts the progress reports received so far.
	Samples int `json:"samples"`
}

// campaignStatus is the /campaign JSON document.
type campaignStatus struct {
	Schema         int     `json:"schema"`
	JobsTotal      int     `json:"jobs_total"`
	JobsDone       int     `json:"jobs_done"`
	JobsFailed     int     `json:"jobs_failed"`
	JobsActive     int     `json:"jobs_active"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	ETASeconds     float64 `json:"eta_seconds"`
	// Instructions counts executed instructions: finished jobs' plus live
	// jobs' latest totals. It never decreases.
	Instructions uint64 `json:"instructions"`
	// SSEDroppedEvents counts events dropped on full /events subscriber
	// queues since the server started.
	SSEDroppedEvents uint64        `json:"sse_dropped_events"`
	Active           []liveJob     `json:"active"`
	Recent           []finishedJob `json:"recent"`
}

// status reads the campaign state under one lock, so the finished and live
// instruction counts come from one instant and their sum never goes
// backwards between scrapes.
func (s *Server) status(now time.Time) campaignStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := campaignStatus{
		Schema:           statusSchemaVersion,
		JobsTotal:        s.totalJobs,
		JobsDone:         s.doneJobs,
		JobsFailed:       s.failedJobs,
		JobsActive:       len(s.active),
		ElapsedSeconds:   now.Sub(s.started).Seconds(),
		ETASeconds:       s.eta(now),
		Instructions:     s.doneInstr,
		SSEDroppedEvents: s.hub.droppedTotal(),
		Active:           make([]liveJob, 0, len(s.active)),
		Recent:           append([]finishedJob(nil), s.recent...),
	}
	for _, js := range s.active {
		lj := liveJob{
			Index:       js.index,
			Name:        js.name,
			RunningSecs: now.Sub(js.started).Seconds(),
			jobCounters: js.counters,
			Samples:     js.reports,
		}
		if lj.RunningSecs > 0 {
			lj.InstrPerSec = float64(lj.Instructions) / lj.RunningSecs
		}
		st.Instructions += lj.Instructions
		st.Active = append(st.Active, lj)
	}
	return st
}

// handleCampaign serves the live JSON status.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	st := s.status(time.Now())
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(st)
}

// Gauge is one externally sourced /metrics gauge sample. Subsystems that are
// not runner observers (e.g. the fabric coordinator) publish their state
// through AddGaugeSource instead of implementing scrape plumbing of their
// own.
type Gauge struct {
	// Name is the full metric name (e.g. "morrigan_fabric_jobs_pending").
	Name string
	// Help is the metric's # HELP line text.
	Help string
	// Value is the sample value at scrape time.
	Value float64
}

// AddGaugeSource registers a function called on every /metrics scrape; the
// gauges it returns are appended to the exposition. Sources must be safe for
// concurrent use and should be cheap — they run inline in the scrape.
func (s *Server) AddGaugeSource(src func() []Gauge) {
	s.mu.Lock()
	s.gaugeSources = append(s.gaugeSources, src)
	s.mu.Unlock()
}

// AddReadiness registers a named readiness check: /healthz/ready reports 503
// with the check's error while it fails. Checks must be safe for concurrent
// use. Registering the same name again replaces the check.
func (s *Server) AddReadiness(name string, check func() error) {
	s.mu.Lock()
	s.readiness[name] = check
	s.mu.Unlock()
}

// handleHealthz is the liveness endpoint (also mounted at /healthz/live): it
// answers "ok" whenever the process can serve HTTP at all, with no judgement
// about campaign state — that is readiness's job.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReady is the readiness endpoint: 503 until a campaign has attached
// (CampaignStarted ran), and 503 with the failing check's name and error
// while any registered readiness check fails — e.g. a checkpoint journal
// whose filesystem stopped accepting writes.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	attached := s.totalJobs > 0
	names := make([]string, 0, len(s.readiness))
	checks := make([]func() error, 0, len(s.readiness))
	for name, check := range s.readiness {
		names = append(names, name)
		checks = append(checks, check)
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !attached {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no campaign attached")
		return
	}
	for i, check := range checks {
		if err := check(); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "%s: %v\n", names[i], err)
			return
		}
	}
	fmt.Fprintln(w, "ok")
}

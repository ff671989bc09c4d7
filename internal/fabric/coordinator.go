package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"morrigan/internal/obs"
	"morrigan/internal/runner"
	"morrigan/internal/spans"
	"morrigan/internal/tracestore"
	"morrigan/internal/workloads"
)

// DefaultLeaseTTL is the lease deadline granted to workers when
// CoordinatorOptions.LeaseTTL is zero. Workers heartbeat at a third of the
// TTL, so the default tolerates two missed heartbeats before reassignment.
const DefaultLeaseTTL = 30 * time.Second

// defaultLeaseWait bounds a lease long-poll when the request does not say.
const defaultLeaseWait = 25 * time.Second

// pollRecheck bounds how long an idle long-poll sleeps between queue checks
// even without a wake signal, so expired leases are reclaimed promptly.
const pollRecheck = 250 * time.Millisecond

// CoordinatorOptions configures a Coordinator.
type CoordinatorOptions struct {
	// LeaseTTL is how long a granted lease lives without a heartbeat before
	// its job is reassigned. Zero means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Corpus, when non-nil, lets the coordinator serve materialised trace
	// containers to workers over /fabric/corpus/{hash}, building them on
	// first request. Without it workers build their own corpora (or step
	// generators live).
	Corpus *tracestore.Store
	// Log, when non-nil, receives one line per notable fabric event (lease
	// expirations, duplicate submissions).
	Log io.Writer
	// Spans, when non-nil, receives a lease-wait and a lease span for every
	// job a worker takes. Share one recorder between runner.Options.Spans and
	// this field to trace the coordinator's side of a campaign in one file;
	// each worker records its own job spans (WorkerOptions.Spans).
	Spans *spans.Recorder
}

// entry states.
const (
	statePending = iota // enumerated, waiting for a worker
	stateLeased         // handed to a worker, lease live
	stateDone           // result recorded; done channel closed
)

// jobEntry is one enumerated job's coordinator-side state. Entries are
// deduplicated by key: however many campaign goroutines wait on one key, the
// job crosses the wire once.
type jobEntry struct {
	key        string
	job        runner.Job
	state      int
	result     runner.Result // valid once state == stateDone
	done       chan struct{} // closed when state becomes stateDone
	enqueuedNS int64         // trace clock at enumeration (0 without tracing)
	// leased is closed when a worker first leases the key, or when Close
	// fails the job before any worker did; a requeued lease leaves it be.
	leased chan struct{}
}

// markLeased closes e.leased unless an earlier lease already did. Caller
// holds c.mu.
func (e *jobEntry) markLeased() {
	select {
	case <-e.leased:
	default:
		close(e.leased)
	}
}

// lease is one live grant of a job to a worker.
type lease struct {
	id        string
	key       string
	worker    string
	deadline  time.Time
	grantedNS int64 // trace clock at grant (0 without tracing)
	renewals  int   // heartbeats that renewed this lease
}

// workerState is the coordinator's view of one worker, fed by every contact
// (lease polls, heartbeats, submissions) and reported in /fabric/status.
type workerState struct {
	last         time.Time
	activeLeases int
	jobsDone     int
	instructions uint64  // simulated instructions across accepted submissions
	busySeconds  float64 // sum of accepted submissions' elapsed time
}

// Coordinator owns a campaign's distributed execution: it collects jobs from
// the runner through ExecuteRemote, queues them, and serves the fabric HTTP
// API workers pull from. Construct with NewCoordinator, attach to campaigns
// via runner.Options.Remote, and serve with Start (or mount Handler).
// All methods are safe for concurrent use.
type Coordinator struct {
	opt CoordinatorOptions

	mu       sync.Mutex
	entries  map[string]*jobEntry
	queue    []string // FIFO of keys awaiting lease (may hold stale copies)
	leases   map[string]*lease
	specs    map[string]workloads.Spec // workload hash -> spec, for corpus serving
	workers  map[string]*workerState   // worker name -> fleet state
	wake     chan struct{}             // closed and replaced when the queue gains work
	nextID   uint64
	closed   bool
	draining bool // stop granting leases; in-flight submissions still land

	expirations  uint64 // leases reclaimed after missed heartbeats
	duplicates   uint64 // submissions discarded first-write-wins
	mismatches   uint64 // discarded submissions whose stats differed
	corpusServed uint64

	mux *http.ServeMux

	lis  net.Listener
	srv  *http.Server
	done chan struct{}
}

// NewCoordinator builds a detached coordinator; nothing listens until Start
// (tests mount Handler on an httptest server instead).
func NewCoordinator(opt CoordinatorOptions) *Coordinator {
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = DefaultLeaseTTL
	}
	c := &Coordinator{
		opt:     opt,
		entries: make(map[string]*jobEntry),
		leases:  make(map[string]*lease),
		specs:   make(map[string]workloads.Spec),
		workers: make(map[string]*workerState),
		wake:    make(chan struct{}),
		mux:     http.NewServeMux(),
	}
	c.mux.HandleFunc("/fabric/lease", c.handleLease)
	c.mux.HandleFunc("/fabric/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("/fabric/submit", c.handleSubmit)
	c.mux.HandleFunc("/fabric/corpus/", c.handleCorpus)
	c.mux.HandleFunc("/fabric/status", c.handleStatus)
	c.mux.HandleFunc("/healthz", c.handleHealthz)
	c.mux.HandleFunc("/healthz/live", c.handleHealthz)
	c.mux.HandleFunc("/healthz/ready", c.handleReady)
	return c
}

// Handler returns the coordinator's HTTP handler (for tests and for mounting
// on an existing server).
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Start listens on addr (e.g. ":9090", "127.0.0.1:0") and serves in the
// background until Close. It returns the bound address, so ":0" is usable.
func (c *Coordinator) Start(addr string) (net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fabric: listen %s: %w", addr, err)
	}
	c.lis = lis
	c.srv = &http.Server{Handler: c.mux}
	c.done = make(chan struct{})
	go func() {
		defer close(c.done)
		_ = c.srv.Serve(lis)
	}()
	return lis.Addr(), nil
}

// Close shuts the coordinator down: the listener stops, idle long-polls
// return, and every unresolved job fails with a coordinator-closed error so
// campaign goroutines blocked in ExecuteRemote unblock.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	c.closed = true
	for _, e := range c.entries {
		if e.state != stateDone {
			e.state = stateDone
			e.result = runner.Result{Job: e.job, Err: errors.New("fabric: coordinator closed")}
			e.markLeased()
			close(e.done)
		}
	}
	c.wakeLocked()
	c.mu.Unlock()
	if c.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := c.srv.Shutdown(ctx)
	<-c.done
	return err
}

// Drain gracefully quiesces the coordinator: it stops granting new leases
// (workers' long-polls fall back to 204s) and waits — bounded by ctx — until
// every outstanding lease resolves, either by its worker submitting the
// result or by expiring and being reclaimed. In-flight submissions are
// accepted throughout, so a SIGTERM'd coordinator never discards work a
// worker already finished. Drain does not close the listener; follow with
// Close once the caller has flushed its own state.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	c.wakeLocked() // unblock long-polls so they observe the drain promptly
	c.mu.Unlock()
	for {
		now := time.Now()
		c.mu.Lock()
		c.reclaimLocked(now)
		outstanding := len(c.leases)
		c.mu.Unlock()
		if outstanding == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fabric: drain interrupted with %d leases outstanding: %w", outstanding, ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// Coordinator implements runner.RemoteExecutor.
var _ runner.RemoteExecutor = (*Coordinator)(nil)

// ExecuteRemote enqueues the job for worker execution and blocks until a
// worker submits its result (or ctx ends, or the coordinator closes).
// Concurrent calls with equal keys share one enumeration: the job crosses
// the wire once and every caller receives the same result. started, when
// non-nil, runs once on the calling goroutine: when a worker first leases
// the key, or at once if the key is already leased or done. A requeued lease
// does not run it again.
func (c *Coordinator) ExecuteRemote(ctx context.Context, job runner.Job, key string, started func()) (runner.Result, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return runner.Result{}, errors.New("fabric: coordinator closed")
	}
	e, ok := c.entries[key]
	if !ok {
		e = &jobEntry{key: key, job: job, state: statePending, done: make(chan struct{}),
			enqueuedNS: c.opt.Spans.Now(), leased: make(chan struct{})}
		c.entries[key] = e
		c.queue = append(c.queue, key)
		for _, w := range job.Workloads {
			c.specs[w.Hash()] = w
		}
		c.wakeLocked()
	}
	c.mu.Unlock()

	select {
	case <-e.leased:
		if started != nil {
			started()
		}
	case <-ctx.Done():
		return runner.Result{}, ctx.Err()
	}
	select {
	case <-e.done:
	case <-ctx.Done():
		return runner.Result{}, ctx.Err()
	}
	c.mu.Lock()
	res := e.result
	c.mu.Unlock()
	return res, nil
}

// wakeLocked signals every waiting long-poll that the queue may have work.
// Caller holds c.mu.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// touchWorkerLocked records contact from a worker, creating its fleet state
// on first sight. Caller holds c.mu.
func (c *Coordinator) touchWorkerLocked(name string, now time.Time) *workerState {
	ws := c.workers[name]
	if ws == nil {
		ws = &workerState{}
		c.workers[name] = ws
	}
	ws.last = now
	return ws
}

// reclaimLocked expires overdue leases, requeueing their jobs. Caller holds
// c.mu.
func (c *Coordinator) reclaimLocked(now time.Time) {
	for id, l := range c.leases {
		if now.Before(l.deadline) {
			continue
		}
		delete(c.leases, id)
		c.expirations++
		if ws := c.workers[l.worker]; ws != nil && ws.activeLeases > 0 {
			ws.activeLeases--
		}
		if e := c.entries[l.key]; e != nil && e.state == stateLeased {
			e.state = statePending
			c.queue = append(c.queue, l.key)
			c.logf("lease %s (worker %s) expired; requeueing %.12s…", id, l.worker, l.key)
		}
	}
}

// popLocked removes and returns the next pending entry, skipping stale queue
// copies of keys that are leased or done. Caller holds c.mu.
// popIfServingLocked pops the next pending job unless the coordinator is
// draining — a draining coordinator grants no new leases, so workers fall
// back to 204 long-poll timeouts while outstanding leases resolve.
func (c *Coordinator) popIfServingLocked() (*jobEntry, bool) {
	if c.draining {
		return nil, false
	}
	return c.popLocked()
}

func (c *Coordinator) popLocked() (*jobEntry, bool) {
	for len(c.queue) > 0 {
		key := c.queue[0]
		c.queue = c.queue[1:]
		if e := c.entries[key]; e != nil && e.state == statePending {
			return e, true
		}
	}
	return nil, false
}

// handleLease is the long-poll job grant: it waits up to the request's
// wait_ms (bounded by defaultLeaseWait) for a pending job, returning 204
// when none appears in the window.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	wait := defaultLeaseWait
	if req.WaitMS > 0 && time.Duration(req.WaitMS)*time.Millisecond < wait {
		wait = time.Duration(req.WaitMS) * time.Millisecond
	}
	deadline := time.Now().Add(wait)

	for {
		now := time.Now()
		c.mu.Lock()
		ws := c.touchWorkerLocked(req.Worker, now)
		c.reclaimLocked(now)
		if e, ok := c.popIfServingLocked(); ok {
			c.nextID++
			l := &lease{
				id:        fmt.Sprintf("l%06d", c.nextID),
				key:       e.key,
				worker:    req.Worker,
				deadline:  now.Add(c.opt.LeaseTTL),
				grantedNS: c.opt.Spans.Now(),
			}
			c.leases[l.id] = l
			e.state = stateLeased
			e.markLeased()
			ws.activeLeases++
			if c.opt.Spans != nil {
				c.opt.Spans.Record(spans.Span{
					TraceID: e.key,
					Name:    "lease.wait",
					Worker:  "coordinator",
					StartNS: e.enqueuedNS,
					DurNS:   l.grantedNS - e.enqueuedNS,
					Attrs:   map[string]string{"worker": req.Worker},
				})
			}
			resp := leaseResponse{
				Protocol: ProtocolVersion,
				LeaseID:  l.id,
				Key:      e.key,
				Job:      encodeJob(e.job),
				TTLMS:    c.opt.LeaseTTL.Milliseconds(),
			}
			c.mu.Unlock()
			writeJSON(w, http.StatusOK, resp)
			return
		}
		closed := c.closed
		wake := c.wake
		c.mu.Unlock()

		remaining := time.Until(deadline)
		if closed || remaining <= 0 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if remaining > pollRecheck {
			remaining = pollRecheck
		}
		t := time.NewTimer(remaining)
		select {
		case <-wake:
		case <-t.C:
		case <-r.Context().Done():
			t.Stop()
			return
		}
		t.Stop()
	}
}

// handleHeartbeat renews a lease; 410 Gone tells the worker its lease
// expired and the job was (or will be) reassigned, so it should abandon it.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeBody(w, r, &req) {
		return
	}
	now := time.Now()
	c.mu.Lock()
	c.reclaimLocked(now)
	l, ok := c.leases[req.LeaseID]
	name := req.Worker
	if ok {
		l.deadline = now.Add(c.opt.LeaseTTL)
		l.renewals++
		if name == "" {
			name = l.worker
		}
	}
	if name != "" {
		c.touchWorkerLocked(name, now)
	}
	c.mu.Unlock()
	if !ok {
		http.Error(w, "fabric: unknown or expired lease", http.StatusGone)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleSubmit records a finished job's result. The first submission for a
// key wins and unblocks every campaign goroutine waiting on it; later ones
// (stragglers whose lease expired and whose job was re-run) are discarded,
// with an equality check so a nondeterministic divergence is surfaced
// instead of silently ignored. A submission under an expired lease is still
// accepted when its job is unresolved — the work is done and valid.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	ws := c.touchWorkerLocked(req.Worker, now)
	l := c.leases[req.LeaseID]
	if l != nil {
		delete(c.leases, req.LeaseID)
		if lws := c.workers[l.worker]; lws != nil && lws.activeLeases > 0 {
			lws.activeLeases--
		}
	}
	e, ok := c.entries[req.Key]
	if !ok {
		http.Error(w, "fabric: unknown job key", http.StatusNotFound)
		return
	}
	if c.opt.Spans != nil && l != nil {
		c.opt.Spans.Record(spans.Span{
			TraceID: req.Key,
			Name:    "lease",
			Worker:  "coordinator",
			StartNS: l.grantedNS,
			DurNS:   c.opt.Spans.Now() - l.grantedNS,
			Attrs: map[string]string{
				"worker":   req.Worker,
				"renewals": fmt.Sprint(l.renewals),
			},
		})
	}
	if e.state == stateDone {
		c.duplicates++
		resp := submitResponse{Duplicate: true}
		if req.Result.Err == "" && e.result.Err == nil && req.Result.Stats != e.result.Stats {
			resp.Mismatch = true
			c.mismatches++
			c.logf("duplicate submission for %.12s… from %s DIFFERS from the accepted result", req.Key, req.Worker)
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	res := runner.Result{
		Job:             e.job,
		Elapsed:         time.Duration(req.Result.ElapsedMS * float64(time.Millisecond)),
		SimInstructions: req.Result.SimInstructions,
		InstrPerSec:     req.Result.InstrPerSec,
		PeakHeapBytes:   req.Result.PeakHeapBytes,
	}
	if req.Result.Err != "" {
		res.Err = fmt.Errorf("fabric: worker %s: %s", req.Worker, req.Result.Err)
	} else {
		res.Stats = req.Result.Stats
		res.Sampling = req.Result.Sampling
	}
	e.result = res
	e.state = stateDone
	close(e.done)
	ws.jobsDone++
	ws.instructions += req.Result.SimInstructions
	ws.busySeconds += req.Result.ElapsedMS / 1000
	writeJSON(w, http.StatusOK, submitResponse{Accepted: true})
}

// handleCorpus streams the trace container for a workload parameter hash,
// materialising it on first request. Workers call this when their local
// tracestore misses, so one coordinator-side build feeds every worker.
func (c *Coordinator) handleCorpus(w http.ResponseWriter, r *http.Request) {
	if c.opt.Corpus == nil {
		http.Error(w, "fabric: coordinator has no corpus store", http.StatusNotFound)
		return
	}
	hash := strings.TrimPrefix(r.URL.Path, "/fabric/corpus/")
	records, err := strconv.ParseUint(r.URL.Query().Get("records"), 10, 64)
	if err != nil || records == 0 {
		http.Error(w, "fabric: records query parameter is required", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	spec, ok := c.specs[hash]
	c.mu.Unlock()
	if !ok {
		http.Error(w, "fabric: unknown workload hash", http.StatusNotFound)
		return
	}
	if _, err := c.opt.Corpus.Materialize(spec, records); err != nil {
		http.Error(w, fmt.Sprintf("fabric: materialising corpus: %v", err), http.StatusInternalServerError)
		return
	}
	path, ok := c.opt.Corpus.ContainerPath(hash)
	if !ok {
		http.Error(w, "fabric: corpus vanished after materialise", http.StatusInternalServerError)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		http.Error(w, fmt.Sprintf("fabric: %v", err), http.StatusInternalServerError)
		return
	}
	defer f.Close()
	c.mu.Lock()
	c.corpusServed++
	c.mu.Unlock()
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = io.Copy(w, f)
}

// FleetWorker is one worker's row in /fabric/status.
type FleetWorker struct {
	Name               string  `json:"name"`
	ActiveLeases       int     `json:"active_leases"`
	JobsDone           int     `json:"jobs_done"`
	Instructions       uint64  `json:"instructions"`
	InstrPerSec        float64 `json:"instr_per_sec"`
	LastContactSeconds float64 `json:"last_contact_seconds"`
}

// CoordinatorStatus is the /fabric/status document.
type CoordinatorStatus struct {
	Protocol         int           `json:"protocol"`
	JobsPending      int           `json:"jobs_pending"`
	JobsLeased       int           `json:"jobs_leased"`
	JobsDone         int           `json:"jobs_done"`
	Leases           int           `json:"leases"`
	Workers          int           `json:"workers"`
	LeaseExpirations uint64        `json:"lease_expirations"`
	DuplicateSubmits uint64        `json:"duplicate_submits"`
	MismatchSubmits  uint64        `json:"mismatch_submits"`
	CorpusServed     uint64        `json:"corpus_served"`
	Fleet            []FleetWorker `json:"fleet,omitempty"`
}

// Status snapshots the coordinator's counters and per-worker fleet view.
func (c *Coordinator) Status() CoordinatorStatus {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CoordinatorStatus{
		Protocol:         ProtocolVersion,
		Leases:           len(c.leases),
		Workers:          len(c.workers),
		LeaseExpirations: c.expirations,
		DuplicateSubmits: c.duplicates,
		MismatchSubmits:  c.mismatches,
		CorpusServed:     c.corpusServed,
	}
	for _, e := range c.entries {
		switch e.state {
		case statePending:
			st.JobsPending++
		case stateLeased:
			st.JobsLeased++
		default:
			st.JobsDone++
		}
	}
	for name, ws := range c.workers {
		fw := FleetWorker{
			Name:               name,
			ActiveLeases:       ws.activeLeases,
			JobsDone:           ws.jobsDone,
			Instructions:       ws.instructions,
			LastContactSeconds: now.Sub(ws.last).Seconds(),
		}
		if ws.busySeconds > 0 {
			fw.InstrPerSec = float64(ws.instructions) / ws.busySeconds
		}
		st.Fleet = append(st.Fleet, fw)
	}
	sort.Slice(st.Fleet, func(i, j int) bool { return st.Fleet[i].Name < st.Fleet[j].Name })
	return st
}

// Gauges exposes the coordinator's counters as observability gauges, the
// shape obs.Server.AddGaugeSource consumes, so a campaign served with both
// -serve and -fabric reports fabric state on /metrics.
func (c *Coordinator) Gauges() []obs.Gauge {
	st := c.Status()
	return []obs.Gauge{
		{Name: "morrigan_fabric_jobs_pending", Help: "Fabric jobs awaiting a worker lease.", Value: float64(st.JobsPending)},
		{Name: "morrigan_fabric_jobs_leased", Help: "Fabric jobs currently leased to workers.", Value: float64(st.JobsLeased)},
		{Name: "morrigan_fabric_jobs_done", Help: "Fabric jobs with an accepted result.", Value: float64(st.JobsDone)},
		{Name: "morrigan_fabric_workers", Help: "Distinct workers that have contacted the coordinator.", Value: float64(st.Workers)},
		{Name: "morrigan_fabric_lease_expirations", Help: "Leases reclaimed after missed heartbeats.", Value: float64(st.LeaseExpirations)},
		{Name: "morrigan_fabric_duplicate_submits", Help: "Submissions discarded first-write-wins.", Value: float64(st.DuplicateSubmits)},
		{Name: "morrigan_fabric_mismatch_submits", Help: "Discarded submissions whose stats differed from the accepted result.", Value: float64(st.MismatchSubmits)},
	}
}

// handleStatus serves the status document.
func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Status())
}

// handleHealthz is the liveness endpoint.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReady is the readiness endpoint: ready once a campaign has
// enumerated at least one job (workers polling earlier still get valid 204
// leases; readiness is for orchestration that wants to gate on attachment).
func (c *Coordinator) handleReady(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	attached := len(c.entries) > 0
	closed := c.closed
	c.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if closed || !attached {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no campaign attached")
		return
	}
	fmt.Fprintln(w, "ok")
}

// logf writes one fabric event line when a log sink is configured.
func (c *Coordinator) logf(format string, args ...any) {
	if c.opt.Log != nil {
		fmt.Fprintf(c.opt.Log, "fabric: "+format+"\n", args...)
	}
}

// decodeBody parses a JSON request body, rejecting non-POSTs and bad JSON.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil {
		http.Error(w, fmt.Sprintf("fabric: bad request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// writeJSON emits one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// Package service is the multi-tenant job-serving layer over the campaign
// runner: an HTTP API where a client POSTs a campaign submission (a machine
// spec sweep × a workload set at a warmup/measure scale, with an optional
// sampling policy), gets back a content-derived campaign id, watches progress
// over the observability server's SSE stream, and fetches merged results.
//
// Behind the API sits a bounded fair-share queue (round-robin across
// tenants, FIFO within a tenant), per-tenant token auth with admission
// quotas (max queued jobs and a total simulated-instruction budget) and
// usage accounting, and the shared campaign reuse layers: an in-process
// result cache, the durable content-addressed result store, and optionally
// a fabric coordinator so a worker fleet drains the queue. Submitting a
// campaign whose job keys the store already holds simulates nothing — the
// results are served from the store, and the tenant's budget is charged
// only for instructions actually simulated.
//
// One dispatcher goroutine executes campaigns sequentially; the runner
// fans each campaign's jobs out over its own worker pool, so intra-campaign
// parallelism is preserved while cross-tenant scheduling stays fair and
// predictable. Results are merged in deterministic job order, making the
// service's output for a submission byte-identical (modulo wall-clock
// fields) to the equivalent CLI run.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"morrigan/internal/machine"
	"morrigan/internal/obs"
	"morrigan/internal/runner"
	"morrigan/internal/sampling"
	"morrigan/internal/sim"
	"morrigan/internal/telemetry"
	"morrigan/internal/tracestore"
	"morrigan/internal/workloads"
)

// idVersion tags the campaign-id derivation; bump on incompatible changes to
// the canonical submission encoding.
const idVersion = "morrigan/service.CampaignID/v1"

// TenantConfig declares one tenant: its bearer token and admission quotas.
type TenantConfig struct {
	// Name labels the tenant in gauges, usage accounting and logs.
	Name string `json:"name"`
	// Token is the tenant's bearer token (Authorization: Bearer <token>).
	Token string `json:"token"`
	// MaxQueuedJobs bounds the tenant's jobs sitting in queued or running
	// campaigns. A tenant with zero capacity is rejected at admission.
	MaxQueuedJobs int `json:"max_queued_jobs"`
	// MaxInstructions is the tenant's total simulated-instruction budget
	// across all campaigns (0 = unlimited). Admission reserves each
	// campaign's worst-case cost (every job simulating in full); completion
	// settles the reservation down to what actually simulated, so
	// store-served jobs cost nothing.
	MaxInstructions uint64 `json:"max_instructions,omitempty"`
}

// Options configures a Service.
type Options struct {
	// Tenants declares who may submit. At least one is required.
	Tenants []TenantConfig
	// MaxQueuedCampaigns bounds campaigns waiting for the dispatcher across
	// all tenants (0 = 64). Admission beyond it is rejected with 429.
	MaxQueuedCampaigns int
	// MaxJobsPerCampaign bounds one submission's enumerated jobs (0 = 1024).
	MaxJobsPerCampaign int
	// Workers bounds each campaign's concurrent simulations
	// (0 = GOMAXPROCS).
	Workers int
	// Cache, when non-nil, deduplicates identical jobs across campaigns
	// in-process.
	Cache *runner.ResultCache
	// Store, when non-nil, is the durable cross-run result layer: repeat
	// submissions of stored job keys are served without simulating.
	Store runner.ResultStore
	// Remote, when non-nil, delegates keyed jobs to fabric workers instead
	// of simulating locally.
	Remote runner.RemoteExecutor
	// Observer, when non-nil, receives every campaign's lifecycle events —
	// attach an obs.Server here and its /events SSE stream carries the
	// service's job progress.
	Observer runner.Observer
	// Corpus, when non-nil, feeds every campaign's simulations from
	// materialised trace containers instead of live generators, each built
	// to its submission's warmup+measure.
	Corpus *tracestore.Store
	// Log, when non-nil, receives one line per admission and completion.
	Log io.Writer
}

// Submission is the POST /api/v1/campaigns request body: a machine sweep ×
// workload set at one scale. Its canonical JSON (plus the tenant name)
// derives the campaign id, so identical resubmissions map to the existing
// campaign; Tag lets a client force a distinct campaign for an otherwise
// identical spec (e.g. to demonstrate warm-store replays).
type Submission struct {
	// Experiment labels the campaign in results and SSE events (optional).
	Experiment string `json:"experiment,omitempty"`
	// Tag is an opaque client discriminator mixed into the campaign id.
	Tag string `json:"tag,omitempty"`
	// Machines is the spec sweep: every machine runs every workload entry.
	Machines []MachineEntry `json:"machines"`
	// Workloads are built-in workload names; "a+b+c" colocates up to
	// sim.MaxThreads workloads on one simulated machine's threads.
	Workloads []string `json:"workloads"`
	// Warmup and Measure are instructions per simulation.
	Warmup  uint64 `json:"warmup"`
	Measure uint64 `json:"measure"`
	// Sampling, when non-nil, runs eligible (single-workload) jobs in
	// representative-interval sampling mode.
	Sampling *sampling.Policy `json:"sampling,omitempty"`
}

// MachineEntry is one machine configuration of a submission's sweep.
type MachineEntry struct {
	// Config labels the configuration in results (optional).
	Config string `json:"config,omitempty"`
	// Spec is the declarative machine under test.
	Spec machine.Spec `json:"spec"`
}

// Campaign states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Status is a campaign's externally visible state.
type Status struct {
	ID              string `json:"id"`
	Tenant          string `json:"tenant"`
	Experiment      string `json:"experiment,omitempty"`
	State           string `json:"state"`
	JobsTotal       int    `json:"jobs_total"`
	JobsDone        int    `json:"jobs_done"`
	NewlySimulated  int    `json:"newly_simulated"`
	ReusedJobs      int    `json:"reused_jobs"`
	SimInstructions uint64 `json:"sim_instructions"`
	Error           string `json:"error,omitempty"`
}

// Usage is one tenant's accounting snapshot.
type Usage struct {
	Tenant             string `json:"tenant"`
	Campaigns          int    `json:"campaigns"`
	QueuedJobs         int    `json:"queued_jobs"`
	MaxQueuedJobs      int    `json:"max_queued_jobs"`
	SimulatedJobs      int    `json:"simulated_jobs"`
	ReusedJobs         int    `json:"reused_jobs"`
	UsedInstructions   uint64 `json:"used_instructions"`
	MaxInstructions    uint64 `json:"max_instructions,omitempty"`
	QueuedReservations uint64 `json:"queued_reservations"`
}

// tenant is one tenant's live accounting state.
type tenant struct {
	cfg        TenantConfig
	queuedJobs int    // jobs in queued or running campaigns
	reserved   uint64 // admission reservations not yet settled
	used       uint64 // instructions actually simulated
	campaigns  int
	simulated  int // jobs that simulated (not reused)
	reused     int // jobs served from cache/journal/store
}

// campaignState is one submitted campaign through its lifecycle.
type campaignState struct {
	id      string
	tenant  *tenant
	sub     Submission
	jobs    []runner.Job
	cost    uint64 // admission reservation: Σ(warmup+measure)
	state   string
	errText string

	jobsDone        int
	newlySimulated  int
	reusedJobs      int
	simInstructions uint64

	results []runner.Result // populated when done
	done    chan struct{}   // closed on completion (done or failed)
}

// AdmissionError is a rejected submission with its HTTP status.
type AdmissionError struct {
	Code   int
	Reason string
}

func (e *AdmissionError) Error() string { return e.Reason }

// Service is the job-serving API core. Construct with New, mount Handler on
// an HTTP server (or call Start), and stop with Drain/Close.
type Service struct {
	opt Options

	mu        sync.Mutex
	byToken   map[string]*tenant
	tenants   []*tenant // declaration order, the round-robin ring
	campaigns map[string]*campaignState
	queues    map[string][]*campaignState // per-tenant FIFO, by tenant name
	queuedN   int
	rrNext    int  // ring index the dispatcher scans from
	draining  bool // admission closed
	running   *campaignState

	wake   chan struct{}
	ctx    context.Context
	cancel context.CancelFunc
	exited chan struct{} // closed when the dispatcher goroutine returns
}

// New validates the tenant set and starts the dispatcher.
func New(opt Options) (*Service, error) {
	if len(opt.Tenants) == 0 {
		return nil, fmt.Errorf("service: at least one tenant is required")
	}
	if opt.MaxQueuedCampaigns <= 0 {
		opt.MaxQueuedCampaigns = 64
	}
	if opt.MaxJobsPerCampaign <= 0 {
		opt.MaxJobsPerCampaign = 1024
	}
	s := &Service{
		opt:       opt,
		byToken:   make(map[string]*tenant, len(opt.Tenants)),
		campaigns: make(map[string]*campaignState),
		queues:    make(map[string][]*campaignState),
		wake:      make(chan struct{}, 1),
		exited:    make(chan struct{}),
	}
	seen := make(map[string]bool, len(opt.Tenants))
	for _, tc := range opt.Tenants {
		if tc.Name == "" || tc.Token == "" {
			return nil, fmt.Errorf("service: tenant name and token are required")
		}
		if seen[tc.Name] {
			return nil, fmt.Errorf("service: duplicate tenant %q", tc.Name)
		}
		if _, dup := s.byToken[tc.Token]; dup {
			return nil, fmt.Errorf("service: duplicate token for tenant %q", tc.Name)
		}
		seen[tc.Name] = true
		t := &tenant{cfg: tc}
		s.byToken[tc.Token] = t
		s.tenants = append(s.tenants, t)
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	go s.dispatch()
	return s, nil
}

// CampaignID derives the canonical campaign id of a submission for a tenant:
// a content hash over the tenant name and the submission's canonical JSON,
// so the same tenant resubmitting the same spec addresses the same campaign.
func CampaignID(tenantName string, sub Submission) string {
	h := sha256.New()
	io.WriteString(h, idVersion)
	h.Write([]byte{0})
	io.WriteString(h, tenantName)
	h.Write([]byte{0})
	raw, _ := json.Marshal(sub) // struct marshal: deterministic field order
	h.Write(raw)
	return "c-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// buildJobs enumerates the submission's jobs machine-major: every machine
// entry runs every workload entry, in declaration order.
func (s *Service) buildJobs(sub Submission) ([]runner.Job, error) {
	if len(sub.Machines) == 0 {
		return nil, fmt.Errorf("at least one machine is required")
	}
	if len(sub.Workloads) == 0 {
		return nil, fmt.Errorf("at least one workload is required")
	}
	if sub.Measure == 0 {
		return nil, fmt.Errorf("measure must be positive")
	}
	specsOf := make([][]workloads.Spec, len(sub.Workloads))
	for i, name := range sub.Workloads {
		specs, err := parseMix(name)
		if err != nil {
			return nil, err
		}
		specsOf[i] = specs
	}
	var jobs []runner.Job
	for _, m := range sub.Machines {
		if _, err := m.Spec.Build(); err != nil {
			return nil, fmt.Errorf("machine %q: %w", m.Config, err)
		}
		for i, name := range sub.Workloads {
			j := runner.Job{
				Experiment: sub.Experiment,
				Config:     m.Config,
				Workload:   name,
				Machine:    m.Spec,
				Workloads:  specsOf[i],
				Warmup:     sub.Warmup,
				Measure:    sub.Measure,
			}
			if sub.Sampling != nil && len(specsOf[i]) == 1 {
				j.Sampling = sub.Sampling
			}
			jobs = append(jobs, j)
		}
	}
	if len(jobs) > s.opt.MaxJobsPerCampaign {
		return nil, fmt.Errorf("%d jobs exceed the per-campaign limit of %d", len(jobs), s.opt.MaxJobsPerCampaign)
	}
	if sub.Sampling != nil {
		if err := sub.Sampling.Validate(sub.Measure); err != nil {
			return nil, err
		}
	}
	return jobs, nil
}

// Submit admits one submission for the tenant owning token. It returns the
// campaign's status and whether this call created it; a duplicate submission
// (same tenant, same canonical content) returns the existing campaign. A
// *AdmissionError carries the HTTP status for rejections.
func (s *Service) Submit(token string, sub Submission) (Status, bool, error) {
	s.mu.Lock()
	t, ok := s.byToken[token]
	s.mu.Unlock()
	if !ok {
		return Status{}, false, &AdmissionError{Code: 401, Reason: "unknown token"}
	}
	jobs, err := s.buildJobs(sub)
	if err != nil {
		return Status{}, false, &AdmissionError{Code: 400, Reason: err.Error()}
	}
	id := CampaignID(t.cfg.Name, sub)
	var cost uint64
	for _, j := range jobs {
		cost += j.Warmup + j.Measure
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if c, dup := s.campaigns[id]; dup {
		return s.statusLocked(c), false, nil
	}
	if s.draining {
		return Status{}, false, &AdmissionError{Code: 503, Reason: "service is draining"}
	}
	if t.cfg.MaxQueuedJobs <= 0 {
		return Status{}, false, &AdmissionError{Code: 429,
			Reason: fmt.Sprintf("tenant %s has no job quota", t.cfg.Name)}
	}
	if t.queuedJobs+len(jobs) > t.cfg.MaxQueuedJobs {
		return Status{}, false, &AdmissionError{Code: 429,
			Reason: fmt.Sprintf("quota exceeded: %d queued + %d submitted > %d allowed",
				t.queuedJobs, len(jobs), t.cfg.MaxQueuedJobs)}
	}
	if t.cfg.MaxInstructions > 0 && t.used+t.reserved+cost > t.cfg.MaxInstructions {
		return Status{}, false, &AdmissionError{Code: 429,
			Reason: fmt.Sprintf("instruction budget exceeded: %d used + %d reserved + %d submitted > %d allowed",
				t.used, t.reserved, cost, t.cfg.MaxInstructions)}
	}
	if s.queuedN >= s.opt.MaxQueuedCampaigns {
		return Status{}, false, &AdmissionError{Code: 429,
			Reason: fmt.Sprintf("queue full (%d campaigns)", s.queuedN)}
	}

	c := &campaignState{
		id: id, tenant: t, sub: sub, jobs: jobs, cost: cost,
		state: StateQueued, done: make(chan struct{}),
	}
	s.campaigns[id] = c
	s.queues[t.cfg.Name] = append(s.queues[t.cfg.Name], c)
	s.queuedN++
	t.queuedJobs += len(jobs)
	t.reserved += cost
	t.campaigns++
	s.logf("service: %s admitted %s (%d jobs, %d instr reserved)", t.cfg.Name, id, len(jobs), cost)
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return s.statusLocked(c), true, nil
}

// dispatch is the single dispatcher goroutine: it serves tenants round-robin
// (FIFO within each tenant) and runs one campaign at a time; the runner
// parallelises jobs within the campaign.
func (s *Service) dispatch() {
	defer close(s.exited)
	for {
		c := s.next()
		if c == nil {
			select {
			case <-s.wake:
				continue
			case <-s.ctx.Done():
				return
			}
		}
		s.run(c)
	}
}

// next pops the next campaign in fair-share order, or nil if none is queued.
func (s *Service) next() *campaignState {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < len(s.tenants); i++ {
		t := s.tenants[(s.rrNext+i)%len(s.tenants)]
		q := s.queues[t.cfg.Name]
		if len(q) == 0 {
			continue
		}
		c := q[0]
		s.queues[t.cfg.Name] = q[1:]
		s.queuedN--
		s.rrNext = (s.rrNext + i + 1) % len(s.tenants)
		c.state = StateRunning
		s.running = c
		return c
	}
	return nil
}

// run executes one campaign through the runner and settles the tenant's
// reservation to what actually simulated.
func (s *Service) run(c *campaignState) {
	ropt := runner.Options{
		Workers:  s.opt.Workers,
		Cache:    s.opt.Cache,
		Store:    s.opt.Store,
		Remote:   s.opt.Remote,
		Observer: &campaignObserver{svc: s, c: c, next: s.opt.Observer},
	}
	if s.opt.Corpus != nil {
		ropt.NewReader = s.opt.Corpus.Readers(c.sub.Warmup + c.sub.Measure)
	}
	results, err := runner.Run(s.ctx, c.jobs, ropt)

	s.mu.Lock()
	defer s.mu.Unlock()
	c.results = results
	if err != nil {
		c.state = StateFailed
		c.errText = err.Error()
	} else {
		c.state = StateDone
	}
	t := c.tenant
	t.queuedJobs -= len(c.jobs)
	t.reserved -= c.cost
	t.used += c.simInstructions
	t.simulated += c.newlySimulated
	t.reused += c.reusedJobs
	s.running = nil
	close(c.done)
	s.logf("service: %s %s %s (%d simulated, %d reused, %d instr)",
		t.cfg.Name, c.id, c.state, c.newlySimulated, c.reusedJobs, c.simInstructions)
}

// parseMix resolves one submission workload entry: a built-in workload name,
// or "a+b+c" colocating up to sim.MaxThreads workloads on one machine.
func parseMix(entry string) ([]workloads.Spec, error) {
	names := strings.Split(entry, "+")
	if len(names) > sim.MaxThreads {
		return nil, fmt.Errorf("workload %q colocates %d threads; the machine supports %d", entry, len(names), sim.MaxThreads)
	}
	specs := make([]workloads.Spec, len(names))
	for i, name := range names {
		w, ok := workloads.ByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		specs[i] = w
	}
	return specs, nil
}

// campaignObserver tracks one campaign's per-job progress and usage, then
// forwards every event to the attached observer (e.g. the obs SSE server).
type campaignObserver struct {
	svc  *Service
	c    *campaignState
	next runner.Observer
}

var _ runner.Observer = (*campaignObserver)(nil)

func (o *campaignObserver) CampaignStarted(total int) {
	if o.next != nil {
		o.next.CampaignStarted(total)
	}
}

func (o *campaignObserver) JobStarted(index int, job runner.Job, probe *telemetry.Probe) {
	if o.next != nil {
		o.next.JobStarted(index, job, probe)
	}
}

// JobFinished accrues the campaign's accounting under the service lock, then
// forwards.
func (o *campaignObserver) JobFinished(index int, res runner.Result) {
	o.svc.mu.Lock()
	o.c.jobsDone++
	o.c.simInstructions += res.SimInstructions
	if res.Err == nil {
		if res.Reused == "" {
			o.c.newlySimulated++
		} else {
			o.c.reusedJobs++
		}
	}
	o.svc.mu.Unlock()
	if o.next != nil {
		o.next.JobFinished(index, res)
	}
}

// Wait blocks until the campaign completes or ctx is cancelled; it reports
// whether the campaign finished.
func (s *Service) Wait(ctx context.Context, id string) (Status, bool) {
	s.mu.Lock()
	c, ok := s.campaigns[id]
	s.mu.Unlock()
	if !ok {
		return Status{}, false
	}
	select {
	case <-c.done:
		return s.CampaignStatus(id)
	case <-ctx.Done():
		st, _ := s.CampaignStatus(id)
		return st, false
	}
}

// CampaignStatus returns a campaign's status by id.
func (s *Service) CampaignStatus(id string) (Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	if !ok {
		return Status{}, false
	}
	return s.statusLocked(c), true
}

// statusLocked renders one campaign's status; callers hold s.mu.
func (s *Service) statusLocked(c *campaignState) Status {
	return Status{
		ID:              c.id,
		Tenant:          c.tenant.cfg.Name,
		Experiment:      c.sub.Experiment,
		State:           c.state,
		JobsTotal:       len(c.jobs),
		JobsDone:        c.jobsDone,
		NewlySimulated:  c.newlySimulated,
		ReusedJobs:      c.reusedJobs,
		SimInstructions: c.simInstructions,
		Error:           c.errText,
	}
}

// Results returns a completed campaign's results in deterministic job order.
// ok is false while the campaign is unknown or not yet done.
func (s *Service) Results(id string) ([]runner.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	if !ok || (c.state != StateDone && c.state != StateFailed) {
		return nil, false
	}
	return c.results, true
}

// TenantUsage returns the usage snapshot of the tenant owning token.
func (s *Service) TenantUsage(token string) (Usage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.byToken[token]
	if !ok {
		return Usage{}, false
	}
	return s.usageLocked(t), true
}

func (s *Service) usageLocked(t *tenant) Usage {
	return Usage{
		Tenant:             t.cfg.Name,
		Campaigns:          t.campaigns,
		QueuedJobs:         t.queuedJobs,
		MaxQueuedJobs:      t.cfg.MaxQueuedJobs,
		SimulatedJobs:      t.simulated,
		ReusedJobs:         t.reused,
		UsedInstructions:   t.used,
		MaxInstructions:    t.cfg.MaxInstructions,
		QueuedReservations: t.reserved,
	}
}

// tenantOf resolves a token to its tenant, for the HTTP layer.
func (s *Service) tenantOf(token string) (*tenant, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.byToken[token]
	return t, ok
}

// list returns the tenant's campaigns' statuses, by id.
func (s *Service) list(t *tenant) []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Status
	for _, c := range s.campaigns {
		if c.tenant == t {
			out = append(out, s.statusLocked(c))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Gauges publishes per-tenant labelled gauges for the obs /metrics
// exposition (register with obs.Server.AddGaugeSource).
func (s *Service) Gauges() []obs.Gauge {
	s.mu.Lock()
	defer s.mu.Unlock()
	var gs []obs.Gauge
	for _, t := range s.tenants {
		labels := map[string]string{"tenant": t.cfg.Name}
		gs = append(gs,
			obs.Gauge{Name: "morrigan_service_tenant_queued_jobs",
				Help: "Jobs in queued or running campaigns, by tenant.", Labels: labels, Value: float64(t.queuedJobs)},
			obs.Gauge{Name: "morrigan_service_tenant_campaigns_total",
				Help: "Campaigns admitted since start, by tenant.", Labels: labels, Value: float64(t.campaigns)},
			obs.Gauge{Name: "morrigan_service_tenant_jobs_simulated_total",
				Help: "Jobs that actually simulated, by tenant.", Labels: labels, Value: float64(t.simulated)},
			obs.Gauge{Name: "morrigan_service_tenant_jobs_reused_total",
				Help: "Jobs served from the cache, journal or result store, by tenant.", Labels: labels, Value: float64(t.reused)},
			obs.Gauge{Name: "morrigan_service_tenant_instructions_used",
				Help: "Simulated instructions charged against the tenant's budget.", Labels: labels, Value: float64(t.used)},
		)
		if t.cfg.MaxInstructions > 0 {
			gs = append(gs, obs.Gauge{Name: "morrigan_service_tenant_instructions_quota",
				Help: "The tenant's simulated-instruction budget.", Labels: labels, Value: float64(t.cfg.MaxInstructions)})
		}
	}
	gs = append(gs, obs.Gauge{Name: "morrigan_service_queued_campaigns",
		Help: "Campaigns waiting for the dispatcher.", Value: float64(s.queuedN)})
	return gs
}

// Drain closes admission (new submissions get 503) and waits — bounded by
// ctx — until the in-flight campaign, if any, completes. Queued campaigns
// stay queued; a subsequent Close abandons them.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	c := s.running
	s.mu.Unlock()
	if c == nil {
		return nil
	}
	select {
	case <-c.done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted with campaign %s still running: %w", c.id, ctx.Err())
	}
}

// Close cancels the dispatcher (interrupting any in-flight campaign) and
// waits for it to exit. Use Drain first for a graceful stop.
func (s *Service) Close() {
	s.cancel()
	<-s.exited
}

// Draining reports whether admission is closed.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Service) logf(format string, args ...any) {
	if s.opt.Log != nil {
		fmt.Fprintf(s.opt.Log, format+"\n", args...)
	}
}

package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"time"

	"morrigan/internal/runner"
	"morrigan/internal/spans"
	"morrigan/internal/trace"
	"morrigan/internal/tracestore"
	"morrigan/internal/workloads"
)

// defaultPollWait is the worker-side long-poll window per lease request.
const defaultPollWait = 20 * time.Second

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (e.g. "http://127.0.0.1:9090").
	// Required.
	Coordinator string
	// Name identifies this worker in coordinator logs and status. Empty
	// defaults to "worker".
	Name string
	// Corpus, when non-nil, is the worker's local trace corpus store: jobs
	// read materialised containers from it, and containers the store misses
	// are fetched from the coordinator by workload hash (falling back to a
	// local build when the fetch fails). When nil, jobs step generators live.
	Corpus *tracestore.Store
	// Client is the HTTP client; nil means a fresh http.Client. The client
	// must not set a global timeout shorter than the lease long-poll window.
	Client *http.Client
	// PollWait is the lease long-poll window; zero means defaultPollWait.
	PollWait time.Duration
	// Log, when non-nil, receives one line per job and per notable event.
	Log io.Writer
	// Spans, when non-nil, records this worker's job spans (for a
	// worker-side -trace-out export), each under its job's canonical key.
	Spans *spans.Recorder
}

// Worker is a stateless fabric worker: it leases jobs from a coordinator,
// simulates them with the runner, and submits results back, repeating until
// its context ends or the coordinator goes away. Any number of workers may
// pull from one coordinator; none holds campaign state, so workers can join,
// leave, or be killed at any point without affecting campaign output.
type Worker struct {
	opt    WorkerOptions
	base   string
	client *http.Client

	// jobsRun counts jobs this worker executed and submitted (informational).
	jobsRun int
}

// NewWorker builds a worker. Run starts it.
func NewWorker(opt WorkerOptions) (*Worker, error) {
	if opt.Coordinator == "" {
		return nil, errors.New("fabric: WorkerOptions.Coordinator is required")
	}
	if _, err := url.Parse(opt.Coordinator); err != nil {
		return nil, fmt.Errorf("fabric: coordinator URL: %w", err)
	}
	if opt.Name == "" {
		opt.Name = "worker"
	}
	if opt.PollWait <= 0 {
		opt.PollWait = defaultPollWait
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{}
	}
	return &Worker{
		opt:    opt,
		base:   strings.TrimSuffix(opt.Coordinator, "/"),
		client: client,
	}, nil
}

// JobsRun reports how many jobs this worker executed and submitted.
func (w *Worker) JobsRun() int { return w.jobsRun }

// errProtocolMismatch marks a lease from a coordinator built against another
// ProtocolVersion. Retrying cannot help, so Run returns it.
var errProtocolMismatch = errors.New("fabric: protocol mismatch")

// Run is the worker loop: lease, simulate, submit, repeat. It returns nil on
// a clean exit — the context ended, or the coordinator went away after the
// worker had connected at least once (a finished campaign shuts its
// coordinator down; workers drain out rather than erroring). Before first
// contact, connection failures retry with backoff, so a worker may be
// started before its coordinator. A coordinator speaking another protocol
// version ends the loop at once with an error naming both versions.
func (w *Worker) Run(ctx context.Context) error {
	connected := false
	backoff := 100 * time.Millisecond
	for {
		if ctx.Err() != nil {
			return nil
		}
		grant, ok, err := w.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			if errors.Is(err, errProtocolMismatch) {
				return err
			}
			if connected {
				// The coordinator answered before and is now unreachable:
				// the campaign is over (or the coordinator died — either
				// way there is nothing left to pull).
				w.logf("coordinator gone (%v); exiting", err)
				return nil
			}
			w.logf("waiting for coordinator: %v", err)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil
			}
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			continue
		}
		connected = true
		backoff = 100 * time.Millisecond
		if !ok {
			continue // idle window; poll again
		}
		w.process(ctx, grant)
	}
}

// lease long-polls for one job. ok is false on an empty (204) window.
func (w *Worker) lease(ctx context.Context) (leaseResponse, bool, error) {
	rctx, cancel := context.WithTimeout(ctx, w.opt.PollWait+10*time.Second)
	defer cancel()
	var resp leaseResponse
	status, err := w.post(rctx, "/fabric/lease", leaseRequest{
		Worker: w.opt.Name,
		WaitMS: w.opt.PollWait.Milliseconds(),
	}, &resp)
	if err != nil {
		return leaseResponse{}, false, err
	}
	switch status {
	case http.StatusOK:
		if resp.Protocol != ProtocolVersion {
			return leaseResponse{}, false, fmt.Errorf("%w: coordinator speaks protocol %d, worker %d", errProtocolMismatch, resp.Protocol, ProtocolVersion)
		}
		return resp, true, nil
	case http.StatusNoContent:
		return leaseResponse{}, false, nil
	default:
		return leaseResponse{}, false, fmt.Errorf("fabric: lease: unexpected status %d", status)
	}
}

// process executes one leased job and submits its result. A lease lost
// mid-job (coordinator reassigned it) cancels the simulation, and nothing is
// submitted for a job that failed because of that cancellation — the
// reassigned run's result stands instead.
func (w *Worker) process(ctx context.Context, grant leaseResponse) {
	job := decodeJob(grant.Job)
	if key, ok := job.Key(); !ok || key != grant.Key {
		// The job does not re-derive the coordinator's key: a hash-version or
		// protocol skew between builds. Fail the job loudly — silently
		// dropping the lease would hang the campaign until reassignment hits
		// the same wall on every worker.
		w.logf("job %s key skew (coordinator %.12s…); failing it", job.Name(), grant.Key)
		w.submit(ctx, grant, runner.Result{Job: job, Err: fmt.Errorf(
			"fabric: worker cannot re-derive job key %.12s… (mixed builds?)", grant.Key)})
		return
	}

	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	hb := &heartbeatState{}
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeatLoop(jctx, cancel, grant, hb)
	}()

	w.logf("running %s (%.12s…)", job.Name(), grant.Key)
	opt := runner.Options{Workers: 1, Spans: w.opt.Spans}
	if w.opt.Corpus != nil {
		opt.NewReader = w.newReader(job, grant.Key)
	}
	results, _ := runner.Run(jctx, []runner.Job{job}, opt)
	res := results[0]
	cancel()
	<-hbDone

	if res.Err != nil && jctx.Err() != nil {
		// The failure is (or may be) an artifact of cancellation — a lost
		// lease or worker shutdown, not the job. Submitting it would poison
		// the campaign first-write-wins; let the lease expire and the job be
		// reassigned instead. The abandon span records why the job was
		// cancelled — the heartbeat loop's verdict, or a worker shutdown.
		reason := hb.reason
		if reason == "" {
			reason = "worker shutdown"
		}
		w.opt.Spans.Start(grant.Key, "abandon").Attr("reason", reason).End()
		w.logf("abandoning %s after cancellation (%v)", job.Name(), res.Err)
		return
	}
	w.submit(ctx, grant, res)
}

// heartbeatState carries the heartbeat loop's verdict back to process: why
// the job was cancelled, for the abandon span. Written before the loop
// returns; process reads it only after the loop's done channel closes.
type heartbeatState struct {
	reason string
}

// heartbeatLoop renews the lease at a third of its TTL until ctx ends,
// cancelling the job when the lease is lost (410) or the coordinator stays
// unreachable. A transient failure gets one in-tick retry after a jittered
// pause, all within the TTL/3 beat budget, so a single dropped packet or
// coordinator GC pause does not throw away a long simulation; only a failed
// retry cancels.
func (w *Worker) heartbeatLoop(ctx context.Context, cancel context.CancelFunc, grant leaseResponse, hb *heartbeatState) {
	interval := time.Duration(grant.TTLMS) * time.Millisecond / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		beat := func(timeout time.Duration) (int, error) {
			rctx, rcancel := context.WithTimeout(ctx, timeout)
			defer rcancel()
			var ack map[string]bool
			return w.post(rctx, "/fabric/heartbeat", heartbeatRequest{
				LeaseID: grant.LeaseID,
				Worker:  w.opt.Name,
			}, &ack)
		}
		status, err := beat(interval / 2)
		transient := err != nil || (status != http.StatusOK && status != http.StatusGone)
		if transient && ctx.Err() == nil {
			// Jittered retry inside the remaining beat budget: sleep an
			// eighth to a quarter of the interval, then try once more.
			pause := interval/8 + time.Duration(rand.Int63n(int64(interval/8)+1))
			select {
			case <-time.After(pause):
			case <-ctx.Done():
				return
			}
			status, err = beat(interval / 4)
		}
		switch {
		case err == nil && status == http.StatusOK:
		case err == nil && status == http.StatusGone:
			hb.reason = "lease lost"
			w.logf("lease %s lost; cancelling job", grant.LeaseID)
			cancel()
			return
		case ctx.Err() != nil:
			return
		default:
			hb.reason = "heartbeat unreachable"
			if err == nil {
				hb.reason = fmt.Sprintf("heartbeat rejected (status %d)", status)
			}
			w.logf("heartbeat failed twice (%s); cancelling job", hb.reason)
			cancel()
			return
		}
	}
}

// submit delivers one result, retrying transient failures a few times.
func (w *Worker) submit(ctx context.Context, grant leaseResponse, res runner.Result) {
	req := submitRequest{
		Worker:  w.opt.Name,
		LeaseID: grant.LeaseID,
		Key:     grant.Key,
		Result: wireResult{
			Stats:           res.Stats,
			SimInstructions: res.SimInstructions,
			ElapsedMS:       float64(res.Elapsed.Microseconds()) / 1000,
			InstrPerSec:     res.InstrPerSec,
			PeakHeapBytes:   res.PeakHeapBytes,
			Sampling:        res.Sampling,
		},
	}
	if res.Err != nil {
		req.Result.Err = res.Err.Error()
	}
	for attempt := 0; attempt < 3; attempt++ {
		rctx, rcancel := context.WithTimeout(ctx, 10*time.Second)
		var resp submitResponse
		status, err := w.post(rctx, "/fabric/submit", req, &resp)
		rcancel()
		if err == nil {
			switch {
			case status == http.StatusOK && resp.Mismatch:
				w.logf("submitted %.12s…: DISCARDED, stats differ from accepted result", grant.Key)
			case status == http.StatusOK && resp.Duplicate:
				w.logf("submitted %.12s…: duplicate (another worker finished first)", grant.Key)
			case status == http.StatusOK:
				w.jobsRun++
			default:
				w.logf("submit %.12s…: status %d", grant.Key, status)
			}
			return
		}
		if ctx.Err() != nil {
			return
		}
		select {
		case <-time.After(200 * time.Millisecond):
		case <-ctx.Done():
			return
		}
	}
	w.logf("submit %.12s… failed after retries; lease will expire and reassign", grant.Key)
}

// newReader is the corpus hook for one job: containers present locally (and
// long enough) are used as-is; misses are fetched from the coordinator by
// workload hash and ingested, falling back to a local build when the fetch
// fails. Either way the job reads the exact same generator output, so
// results are bit-identical no matter where the container came from.
func (w *Worker) newReader(job runner.Job, traceID string) func(workloads.Spec) (trace.Reader, error) {
	records := job.Warmup + job.Measure
	return func(spec workloads.Spec) (trace.Reader, error) {
		hash := spec.Hash()
		if e, ok := w.opt.Corpus.Manifest().Entries[hash]; !ok || e.Records < records {
			sp := w.opt.Spans.Start(traceID, "corpus.fetch")
			err := w.fetchCorpus(spec, hash, records)
			sp.Attr("ok", fmt.Sprint(err == nil)).End()
			if err != nil {
				w.logf("corpus fetch %.12s… failed (%v); building locally", hash, err)
			}
		}
		c, err := w.opt.Corpus.Materialize(spec, records)
		if err != nil {
			return nil, fmt.Errorf("fabric: materialising corpus for %s: %w", spec.Name, err)
		}
		return c.NewReader(), nil
	}
}

// fetchCorpus downloads one container from the coordinator and ingests it
// into the local store (verifying every chunk checksum on the way in).
func (w *Worker) fetchCorpus(spec workloads.Spec, hash string, records uint64) error {
	req, err := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s/fabric/corpus/%s?records=%d", w.base, hash, records), nil)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if _, err := w.opt.Corpus.Ingest(spec, resp.Body); err != nil {
		return err
	}
	w.logf("fetched corpus %.12s… (%s) from coordinator", hash, spec.Name)
	return nil
}

// post sends one JSON request and decodes a JSON response (when the status
// has one). The returned status lets callers branch on 204/410.
func (w *Worker) post(ctx context.Context, path string, body, dst any) (int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if dst != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			return resp.StatusCode, fmt.Errorf("fabric: decoding %s response: %w", path, err)
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// logf writes one worker event line when a log sink is configured.
func (w *Worker) logf(format string, args ...any) {
	if w.opt.Log != nil {
		fmt.Fprintf(w.opt.Log, "%s: "+format+"\n", append([]any{w.opt.Name}, args...)...)
	}
}

// Package fabric is the distributed campaign layer: a coordinator that
// enumerates a campaign's jobs (by plugging into the runner as its
// RemoteExecutor) and serves them over a lease/heartbeat/submit HTTP API,
// plus stateless pull-based workers that lease jobs by canonical JobKey,
// simulate them with the existing runner, and stream results back.
//
// The protocol is JSON over HTTP, mounted under /fabric/ with the same mux
// conventions as internal/obs:
//
//   - POST /fabric/lease — long-poll for a job; 200 with a lease (job spec,
//     lease id, TTL) or 204 when nothing is pending within the wait window;
//   - POST /fabric/heartbeat — renew a lease's deadline; 410 Gone when the
//     lease expired and was reassigned (the worker should abandon the job);
//   - POST /fabric/submit — deliver a finished job's result; duplicate
//     submissions for one key resolve first-write-wins with an equality
//     check, so a straggler can never change a merged result;
//   - GET /fabric/corpus/{hash} — stream the MTC1 trace container for a
//     workload parameter hash, materialising it on first use, so workers
//     whose local tracestore misses fetch chunks by hash instead of
//     re-generating them;
//   - GET /fabric/status — coordinator state as JSON;
//   - GET /healthz, /healthz/live, /healthz/ready — liveness, and readiness
//     (readiness requires an attached campaign with enumerated jobs).
//
// Failure model: a worker that dies mid-job simply stops heartbeating; its
// lease expires and the job is reassigned, so a campaign survives any number
// of worker kills as long as one worker remains. Because jobs are identified
// by canonical JobKey and simulation is deterministic, a reassigned job's
// result is bit-identical to what the dead worker would have produced, and
// merged campaign tables are byte-identical to a single-process run at any
// worker count. Durability beyond the coordinator process comes from backing
// the campaign with runner.Options.Store (internal/resultstore) and/or the
// checkpoint journal, exactly as in single-process runs.
package fabric

import (
	"morrigan/internal/machine"
	"morrigan/internal/runner"
	"morrigan/internal/sampling"
	"morrigan/internal/sim"
	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

// ProtocolVersion identifies the fabric wire protocol; lease responses carry
// it so a worker built against a different protocol stops with an error
// instead of misreading fields. Version 3 removed the tracing fields version
// 2 added: trace ids on leases, clock samples and fleet telemetry on
// heartbeats, and spans on submissions.
const ProtocolVersion = 3

// wireWorkload is one workload spec on the wire (the same shape
// workloads.SaveSpec writes).
type wireWorkload struct {
	Name   string             `json:"name"`
	Params trace.ServerParams `json:"params"`
}

// wireJob is one leased job: the full declarative (machine, workloads,
// scale) triple, so a stateless worker can reconstruct — and re-derive the
// key of — the exact simulation the coordinator enumerated.
type wireJob struct {
	Experiment string         `json:"experiment,omitempty"`
	Config     string         `json:"config,omitempty"`
	Workload   string         `json:"workload,omitempty"`
	Machine    machine.Spec   `json:"machine"`
	Workloads  []wireWorkload `json:"workloads"`
	Warmup     uint64         `json:"warmup"`
	Measure    uint64         `json:"measure"`
	// Sampling crosses the wire because it is part of the canonical key:
	// a worker that dropped it would re-derive a different key than the
	// grant's and fail loudly at the key-skew check.
	Sampling *sampling.Policy `json:"sampling,omitempty"`
}

// encodeJob converts a runner job to its wire form (keyed jobs only — the
// Instrument/NewThreads escape hatches cannot cross a process boundary and
// never reach the fabric; see runner.RemoteExecutor).
func encodeJob(j runner.Job) wireJob {
	ws := make([]wireWorkload, len(j.Workloads))
	for i, w := range j.Workloads {
		ws[i] = wireWorkload{Name: w.Name, Params: w.Params}
	}
	return wireJob{
		Experiment: j.Experiment,
		Config:     j.Config,
		Workload:   j.Workload,
		Machine:    j.Machine,
		Workloads:  ws,
		Warmup:     j.Warmup,
		Measure:    j.Measure,
		Sampling:   j.Sampling,
	}
}

// decodeJob reconstructs the runner job a wire job describes.
func decodeJob(wj wireJob) runner.Job {
	ws := make([]workloads.Spec, len(wj.Workloads))
	for i, w := range wj.Workloads {
		ws[i] = workloads.Spec{Name: w.Name, Params: w.Params}
	}
	return runner.Job{
		Experiment: wj.Experiment,
		Config:     wj.Config,
		Workload:   wj.Workload,
		Machine:    wj.Machine,
		Workloads:  ws,
		Warmup:     wj.Warmup,
		Measure:    wj.Measure,
		Sampling:   wj.Sampling,
	}
}

// leaseRequest asks for one job, waiting up to WaitMS for one to appear.
type leaseRequest struct {
	Worker string `json:"worker"`
	WaitMS int64  `json:"wait_ms"`
}

// leaseResponse grants one job under a lease. The worker must heartbeat
// before TTLMS elapses (and keep doing so) or the job is reassigned.
type leaseResponse struct {
	Protocol int     `json:"protocol"`
	LeaseID  string  `json:"lease_id"`
	Key      string  `json:"key"`
	Job      wireJob `json:"job"`
	TTLMS    int64   `json:"ttl_ms"`
}

// heartbeatRequest renews a lease.
type heartbeatRequest struct {
	LeaseID string `json:"lease_id"`
	Worker  string `json:"worker,omitempty"`
}

// wireResult is a finished job's outcome on the wire.
type wireResult struct {
	Err             string            `json:"err,omitempty"`
	Stats           sim.Stats         `json:"stats"`
	SimInstructions uint64            `json:"sim_instructions"`
	ElapsedMS       float64           `json:"elapsed_ms"`
	InstrPerSec     float64           `json:"instr_per_sec"`
	PeakHeapBytes   uint64            `json:"peak_heap_bytes"`
	Sampling        *sampling.Outcome `json:"sampling,omitempty"`
}

// submitRequest delivers a finished job's result.
type submitRequest struct {
	Worker  string     `json:"worker"`
	LeaseID string     `json:"lease_id"`
	Key     string     `json:"key"`
	Result  wireResult `json:"result"`
}

// submitResponse reports how the submission resolved. Duplicate is set when
// the key already had an accepted result (the submission was discarded);
// Mismatch additionally marks the discarded result as differing from the
// stored one — a determinism violation worth surfacing.
type submitResponse struct {
	Accepted  bool `json:"accepted"`
	Duplicate bool `json:"duplicate,omitempty"`
	Mismatch  bool `json:"mismatch,omitempty"`
}

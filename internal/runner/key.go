package runner

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"

	"morrigan/internal/sampling"
	"morrigan/internal/sim"
)

// jobKeyVersion is folded into every job key so a deliberate change to the
// key derivation (or to either underlying spec hash version) invalidates
// persisted checkpoint journals instead of silently matching stale results.
const jobKeyVersion = "morrigan/runner.JobKey/v1"

// samplingKeyTag separates the sampled-key domain. It is appended — together
// with the policy fields — only for sampled jobs, so every full-run key is
// byte-identical to what pre-sampling releases derived: persisted journals,
// result stores and fabric campaigns keep matching.
const samplingKeyTag = "sampled"

// Key returns the job's canonical identity: the SHA-256 (as lowercase hex)
// of the machine spec hash, the workload spec hashes in thread order, the
// warmup/measure scale, and — for sampled jobs only — the sampling policy:
// H(machine ‖ workloads ‖ scale [‖ policy]). Two jobs with equal keys
// simulate the identical (config, workload, scale, policy) tuple and produce
// bit-identical Stats, which is what the checkpoint journal and the
// cross-experiment result cache rely on. A sampled job measures different
// instruction slices than its full-run twin, so the two hash differently.
//
// The second return is false for jobs that have no data-only identity:
// jobs with an Instrument hook (the capture closure observes the run, so a
// cached result would silently skip it) or a NewThreads factory (the
// instruction streams are not described by workload specs), and jobs with
// no Workloads at all. Such jobs always execute.
func (j Job) Key() (string, bool) {
	if j.Instrument != nil || j.NewThreads != nil || len(j.Workloads) == 0 {
		return "", false
	}
	hashes := make([]string, len(j.Workloads))
	for i, w := range j.Workloads {
		hashes[i] = w.Hash()
	}
	return jobKey(j.Machine.Hash(), hashes, j.Warmup, j.Measure, j.Sampling), true
}

// Describe renders the job's enumeration line for -dry-run output: display
// name, canonical key (or "unkeyed" with the reason), machine hash, workload
// hashes and scale — everything the checkpoint journal, result store and
// fabric coordinator would identify the job by, without simulating it.
func (j Job) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  ", j.Name())
	if key, ok := j.Key(); ok {
		fmt.Fprintf(&b, "key=%s", key)
	} else {
		reason := "no-workloads"
		switch {
		case j.Instrument != nil:
			reason = "instrumented"
		case j.NewThreads != nil:
			reason = "newthreads"
		}
		fmt.Fprintf(&b, "key=unkeyed(%s)", reason)
	}
	fmt.Fprintf(&b, " machine=%s workloads=", j.Machine.Hash())
	for i, w := range j.Workloads {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(w.Hash())
	}
	if len(j.Workloads) == 0 {
		b.WriteByte('-')
	}
	fmt.Fprintf(&b, " warmup=%d measure=%d", j.Warmup, j.Measure)
	if j.Sampling != nil {
		fmt.Fprintf(&b, " sampled=interval:%d,clusters:%d,slicewarmup:%d,seed:%d",
			j.Sampling.Interval, j.Sampling.Clusters, j.Sampling.SliceWarmup, j.Sampling.Seed)
	}
	return b.String()
}

// jobKey derives the canonical key from already-computed component hashes.
// StoredRecord.Verified re-derives keys through this same function to check
// that a persisted record still matches what its components hash to today.
// The sampling policy is folded in only when present — full-run keys are
// unchanged from every prior release.
func jobKey(machineHash string, workloadHashes []string, warmup, measure uint64, pol *sampling.Policy) string {
	h := sha256.New()
	h.Write([]byte(jobKeyVersion))
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ws := func(s string) {
		wu(uint64(len(s)))
		h.Write([]byte(s))
	}
	ws(machineHash)
	wu(uint64(len(workloadHashes)))
	for _, wh := range workloadHashes {
		ws(wh)
	}
	wu(warmup)
	wu(measure)
	if pol != nil {
		ws(samplingKeyTag)
		wu(pol.Interval)
		wu(uint64(pol.Clusters))
		wu(pol.SliceWarmup)
		wu(pol.Seed)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// StoredRecord is the durable form of one completed keyed job, written by
// both the checkpoint journal and the result store. The key's components
// (machine hash, workload hashes, scale) are stored alongside the key so a
// reader can check the key still derives from them (Verified); the display
// fields are informational.
type StoredRecord struct {
	Key        string    `json:"key"`
	Machine    string    `json:"machine"`
	Workloads  []string  `json:"workloads"`
	Warmup     uint64    `json:"warmup"`
	Measure    uint64    `json:"measure"`
	Experiment string    `json:"experiment,omitempty"`
	Config     string    `json:"config,omitempty"`
	Workload   string    `json:"workload,omitempty"`
	Stats      sim.Stats `json:"stats"`
	// Sampling marks sampled results; its policy participates in key
	// re-derivation, so a sampled record is never served to a full-run job
	// or the reverse. Absent for full runs, so records written before
	// sampling existed read unchanged.
	Sampling *sampling.Outcome `json:"sampling,omitempty"`
}

// NewStoredRecord returns the stored form of res under key, the canonical
// key of res.Job.
func NewStoredRecord(key string, res Result) StoredRecord {
	hashes := make([]string, len(res.Job.Workloads))
	for i, w := range res.Job.Workloads {
		hashes[i] = w.Hash()
	}
	return StoredRecord{
		Key:        key,
		Machine:    res.Job.Machine.Hash(),
		Workloads:  hashes,
		Warmup:     res.Job.Warmup,
		Measure:    res.Job.Measure,
		Experiment: res.Job.Experiment,
		Config:     res.Job.Config,
		Workload:   res.Job.Workload,
		Stats:      res.Stats,
		Sampling:   res.Sampling,
	}
}

// Verified reports whether the record's key still derives from its stored
// components, the sampling policy included. A record that fails (a stale
// hash version, a hand-edited file) must be discarded so its job re-runs
// rather than reusing a wrong result.
func (r *StoredRecord) Verified() bool {
	var pol *sampling.Policy
	if r.Sampling != nil {
		pol = &r.Sampling.Policy
	}
	return jobKey(r.Machine, r.Workloads, r.Warmup, r.Measure, pol) == r.Key
}

// Stored returns the record's reusable payload.
func (r *StoredRecord) Stored() Stored { return Stored{Stats: r.Stats, Sampling: r.Sampling} }

package obs

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"
)

// promWriter emits Prometheus text exposition format (version 0.0.4): for
// each metric one # HELP line, one # TYPE line, then its samples. Everything
// the server exposes is a gauge or a counter, so no dependency on a client
// library is needed — the format is five line shapes.
type promWriter struct {
	w   io.Writer
	err error
}

// metric opens a metric family: HELP and TYPE comment lines.
func (p *promWriter) metric(name, help, typ string) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample emits one sample line; labels may be nil.
func (p *promWriter) sample(name string, labels map[string]string, value float64) {
	if p.err != nil {
		return
	}
	lbl := ""
	if len(labels) > 0 {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			// Go's %q escaping of \, " and newline coincides with the
			// exposition format's label-value escaping.
			parts[i] = fmt.Sprintf("%s=%q", k, labels[k])
		}
		lbl = "{" + strings.Join(parts, ",") + "}"
	}
	_, p.err = fmt.Fprintf(p.w, "%s%s %s\n", name, lbl, formatValue(value))
}

// formatValue renders a sample value: integral values without an exponent,
// everything else in Go's shortest-roundtrip form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.status(time.Now())
	s.mu.Lock()
	s.scrapes++
	scrapes := s.scrapes
	jobSeconds := s.doneElapsed
	sampledRuns, sampledTimed, sampledFF := s.sampledRuns, s.sampledTimed, s.sampledFF
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := &promWriter{w: w}

	// Campaign progress.
	p.metric("morrigan_campaign_jobs", "Jobs scheduled across all campaigns so far.", "gauge")
	p.sample("morrigan_campaign_jobs", nil, float64(st.JobsTotal))
	p.metric("morrigan_campaign_jobs_done_total", "Jobs completed (including failures).", "counter")
	p.sample("morrigan_campaign_jobs_done_total", nil, float64(st.JobsDone))
	p.metric("morrigan_campaign_jobs_failed_total", "Jobs that failed, panicked, timed out or were cancelled.", "counter")
	p.sample("morrigan_campaign_jobs_failed_total", nil, float64(st.JobsFailed))
	p.metric("morrigan_campaign_eta_seconds", "Estimated seconds until the campaign completes (0 until one job has simulated).", "gauge")
	p.sample("morrigan_campaign_eta_seconds", nil, st.ETASeconds)
	p.metric("morrigan_campaign_elapsed_seconds", "Seconds since the server attached.", "counter")
	p.sample("morrigan_campaign_elapsed_seconds", nil, st.ElapsedSeconds)
	p.metric("morrigan_campaign_instructions_total", "Instructions executed in timing detail, warmup included: finished jobs plus live jobs' latest totals.", "counter")
	p.sample("morrigan_campaign_instructions_total", nil, float64(st.Instructions))
	p.metric("morrigan_campaign_job_seconds_total", "Summed wall-clock seconds of finished jobs.", "counter")
	p.sample("morrigan_campaign_job_seconds_total", nil, jobSeconds)

	// Per-job live gauges, from each job's latest progress report.
	perJob := []struct {
		name, help string
		value      func(liveJob) float64
	}{
		{"morrigan_job_instructions", "Instructions the job has executed in timing detail so far, warmup included.", func(j liveJob) float64 { return float64(j.Instructions) }},
		{"morrigan_job_cycles", "Simulated cycles in the job's current measurement interval.", func(j liveJob) float64 { return float64(j.Cycles) }},
		{"morrigan_job_ipc", "Simulated IPC of the current measurement interval.", func(j liveJob) float64 { return j.IPC }},
		{"morrigan_job_istlb_mpki", "iSTLB misses per kilo-instruction in the current measurement interval.", func(j liveJob) float64 { return j.ISTLBMPKI }},
		{"morrigan_job_dstlb_mpki", "dSTLB misses per kilo-instruction in the current measurement interval.", func(j liveJob) float64 { return j.DSTLBMPKI }},
		{"morrigan_job_pb_hit_rate", "Fraction of the current measurement interval's iSTLB misses served by the prefetch buffer.", func(j liveJob) float64 { return j.PBHitRate }},
		{"morrigan_job_instr_per_second", "Simulation throughput: executed instructions per wall-clock second.", func(j liveJob) float64 { return j.InstrPerSec }},
	}
	for _, m := range perJob {
		p.metric(m.name, m.help, "gauge")
		for _, lj := range st.Active {
			p.sample(m.name, map[string]string{"job": lj.Name, "index": fmt.Sprintf("%d", lj.Index)}, m.value(lj))
		}
	}

	// Sampled execution, counted from finished results that simulated.
	p.metric("morrigan_sampling_runs_total", "Sampled jobs simulated (not reused) in observed campaigns.", "counter")
	p.sample("morrigan_sampling_runs_total", nil, float64(sampledRuns))
	p.metric("morrigan_sampling_timed_instructions_total", "Instructions timing-simulated by sampled jobs, slice warmups included.", "counter")
	p.sample("morrigan_sampling_timed_instructions_total", nil, float64(sampledTimed))
	p.metric("morrigan_sampling_fastforwarded_instructions_total", "Instructions fast-forwarded functionally between the slices of sampled jobs.", "counter")
	p.sample("morrigan_sampling_fastforwarded_instructions_total", nil, float64(sampledFF))

	// Host self-profiling.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.metric("morrigan_host_heap_alloc_bytes", "Live heap (runtime.MemStats.HeapAlloc).", "gauge")
	p.sample("morrigan_host_heap_alloc_bytes", nil, float64(ms.HeapAlloc))
	p.metric("morrigan_host_heap_sys_bytes", "Heap obtained from the OS (runtime.MemStats.HeapSys).", "gauge")
	p.sample("morrigan_host_heap_sys_bytes", nil, float64(ms.HeapSys))
	p.metric("morrigan_host_gc_total", "Completed GC cycles.", "counter")
	p.sample("morrigan_host_gc_total", nil, float64(ms.NumGC))
	p.metric("morrigan_host_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", "counter")
	p.sample("morrigan_host_gc_pause_seconds_total", nil, float64(ms.PauseTotalNs)/1e9)
	p.metric("morrigan_host_goroutines", "Live goroutines.", "gauge")
	p.sample("morrigan_host_goroutines", nil, float64(runtime.NumGoroutine()))
	p.metric("morrigan_scrapes_total", "Scrapes served by this /metrics endpoint.", "counter")
	p.sample("morrigan_scrapes_total", nil, float64(scrapes))

	// SSE back-pressure.
	p.metric("morrigan_sse_dropped_events_total", "Events dropped on full /events subscriber queues.", "counter")
	p.sample("morrigan_sse_dropped_events_total", nil, float64(st.SSEDroppedEvents))

	// Externally registered gauges (e.g. fabric coordinator state), each an
	// unlabelled family of one sample.
	s.mu.Lock()
	sources := append([]func() []Gauge(nil), s.gaugeSources...)
	s.mu.Unlock()
	for _, src := range sources {
		for _, g := range src() {
			p.metric(g.Name, g.Help, "gauge")
			p.sample(g.Name, nil, g.Value)
		}
	}
}

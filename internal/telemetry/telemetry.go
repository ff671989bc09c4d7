// Package telemetry is the simulator's observability layer: interval
// time-series sampling of live counters, a bounded ring-buffered event trace
// of the prefetch lifecycle and page walks, and log2-bucketed latency
// histograms, all emitted as schema-versioned JSON Lines.
//
// The simulator reports only end-of-run aggregates on its own; a Probe
// attached through sim.Config.Probe additionally records *when* things
// happened — how IPC and MPKI evolve as a prefetcher warms up, why a
// prefetched translation went unused, how page-walk latency is distributed —
// without perturbing the simulation: every hook is observational, so a run
// with a probe attached produces bit-identical Stats to one without.
//
// A Probe is owned by exactly one simulation (one goroutine); it is not safe
// for concurrent use. The campaign orchestrator (internal/runner) creates one
// probe per job and writes one JSONL file per job next to the campaign's
// JSON/CSV results.
package telemetry

import "morrigan/internal/arch"

// DefaultInterval is the sampling period, in retired instructions, used when
// Config.Interval is zero.
const DefaultInterval = 100_000

// DefaultEventBuffer is the event-ring capacity used when Config.EventBuffer
// is zero.
const DefaultEventBuffer = 4096

// Config parameterises a Probe.
type Config struct {
	// Interval is the time-series sampling period in retired instructions;
	// 0 means DefaultInterval.
	Interval uint64
	// EventBuffer is the event-trace ring capacity; 0 means
	// DefaultEventBuffer, negative disables event tracing entirely. When the
	// ring is full the oldest events are overwritten (the emitted trace is
	// the trailing window) and the overwritten count is reported.
	EventBuffer int
}

// DefaultConfig returns the default probe parameters.
func DefaultConfig() Config {
	return Config{Interval: DefaultInterval, EventBuffer: DefaultEventBuffer}
}

// interval resolves the effective sampling period.
func (c Config) interval() uint64 {
	if c.Interval == 0 {
		return DefaultInterval
	}
	return c.Interval
}

// Sample is a snapshot of the simulator's cumulative counters at one point in
// simulated time. The simulator fills one at every sampling boundary; the
// probe differences consecutive snapshots into IntervalSamples, so the
// emitted per-interval deltas sum exactly to the end-of-run aggregates.
type Sample struct {
	Instructions  uint64
	Cycles        arch.Cycle
	L1IMisses     uint64
	ITLBMisses    uint64
	ISTLBAccesses uint64
	ISTLBMisses   uint64
	// DSTLBAccesses and DSTLBMisses are carried for the simulator's live
	// progress reports (the observability server's dSTLB MPKI gauge); they
	// are not differenced into IntervalSamples, so the JSONL schema is
	// unchanged.
	DSTLBAccesses uint64
	DSTLBMisses   uint64
	PBHits        uint64
	PrefIssued    uint64
	PrefDiscarded uint64
	PrefWalks     uint64
	DemandIWalks  uint64
	DemandDWalks  uint64
	DroppedWalks  uint64
}

// IntervalSample is one emitted time-series point: the counter deltas over
// one sampling interval plus the rates derived from them. JSON field names
// are the schema; see DESIGN.md "Telemetry".
type IntervalSample struct {
	// Seq numbers samples from 0 within the measurement interval.
	Seq int `json:"seq"`
	// Instructions is the cumulative retired-instruction count at the end of
	// this interval (the sample's position on the time axis).
	Instructions uint64 `json:"instructions"`

	// Deltas over the interval.
	DInstructions  uint64 `json:"d_instructions"`
	DCycles        uint64 `json:"d_cycles"`
	DL1IMisses     uint64 `json:"d_l1i_misses"`
	DITLBMisses    uint64 `json:"d_itlb_misses"`
	DISTLBAccesses uint64 `json:"d_istlb_accesses"`
	DISTLBMisses   uint64 `json:"d_istlb_misses"`
	DPBHits        uint64 `json:"d_pb_hits"`
	DPrefIssued    uint64 `json:"d_prefetch_issued"`
	DPrefDiscarded uint64 `json:"d_prefetch_discarded"`
	DPrefInstalled uint64 `json:"d_prefetch_installed"`
	DPrefUsed      uint64 `json:"d_prefetch_used"`
	DPrefLate      uint64 `json:"d_prefetch_late"`
	DPrefEvicted   uint64 `json:"d_prefetch_evicted"`
	DPrefWalks     uint64 `json:"d_prefetch_walks"`
	DDemandIWalks  uint64 `json:"d_demand_iwalks"`
	DDemandDWalks  uint64 `json:"d_demand_dwalks"`
	DDroppedWalks  uint64 `json:"d_dropped_walks"`

	// Rates derived from the interval's deltas.
	IPC       float64 `json:"ipc"`
	L1IMPKI   float64 `json:"l1i_mpki"`
	ITLBMPKI  float64 `json:"itlb_mpki"`
	ISTLBMPKI float64 `json:"istlb_mpki"`
	// PBHitRate is the fraction of the interval's iSTLB misses served by the
	// prefetch buffer.
	PBHitRate float64 `json:"pb_hit_rate"`
}

// prefCounters are the lifecycle tallies the probe derives from its own
// hooks (the simulator's counters do not distinguish them all).
type prefCounters struct {
	installed, used, late, evicted uint64
}

// pendingKey identifies an in-flight prefetched translation.
type pendingKey struct {
	tid arch.ThreadID
	vpn arch.VPN
}

// maxPending bounds the issue-time map used for the prefetch-to-use distance
// histogram; beyond it new prefetches are not tracked (counted as untracked)
// so a pathological workload cannot grow the probe without bound.
const maxPending = 1 << 14

// Probe collects telemetry for one simulation. The zero value is not usable;
// construct with NewProbe. All methods are single-goroutine.
type Probe struct {
	cfg      Config
	interval uint64

	base    Sample
	prev    prefCounters
	cur     prefCounters
	samples []IntervalSample

	ring *eventRing

	demandWalkLat   *LogHistogram
	prefetchWalkLat *LogHistogram
	useDistance     *LogHistogram

	pending   map[pendingKey]arch.Cycle
	untracked uint64
}

// NewProbe builds a probe from cfg.
func NewProbe(cfg Config) *Probe {
	p := &Probe{
		cfg:             cfg,
		interval:        cfg.interval(),
		demandWalkLat:   NewLogHistogram("demand_walk_latency"),
		prefetchWalkLat: NewLogHistogram("prefetch_walk_latency"),
		useDistance:     NewLogHistogram("prefetch_to_use_distance"),
		pending:         make(map[pendingKey]arch.Cycle),
	}
	if cap := cfg.EventBuffer; cap >= 0 {
		if cap == 0 {
			cap = DefaultEventBuffer
		}
		p.ring = newEventRing(cap)
	}
	return p
}

// Interval returns the effective sampling period in instructions.
func (p *Probe) Interval() uint64 { return p.interval }

// Reset clears everything collected so far; the simulator calls it at the
// warmup/measure boundary so the emitted series covers exactly the
// measurement interval.
func (p *Probe) Reset() {
	p.base = Sample{}
	p.prev, p.cur = prefCounters{}, prefCounters{}
	p.samples = p.samples[:0]
	if p.ring != nil {
		p.ring.reset()
	}
	p.demandWalkLat.Reset()
	p.prefetchWalkLat.Reset()
	p.useDistance.Reset()
	for k := range p.pending {
		delete(p.pending, k)
	}
	p.untracked = 0
}

// RecordSample closes one sampling interval: cum holds the simulator's
// cumulative counters at the boundary. Empty intervals (no instructions
// retired since the previous boundary) are skipped.
func (p *Probe) RecordSample(cum Sample) {
	d := IntervalSample{
		Seq:          len(p.samples),
		Instructions: cum.Instructions,

		DInstructions:  cum.Instructions - p.base.Instructions,
		DCycles:        uint64(cum.Cycles - p.base.Cycles),
		DL1IMisses:     cum.L1IMisses - p.base.L1IMisses,
		DITLBMisses:    cum.ITLBMisses - p.base.ITLBMisses,
		DISTLBAccesses: cum.ISTLBAccesses - p.base.ISTLBAccesses,
		DISTLBMisses:   cum.ISTLBMisses - p.base.ISTLBMisses,
		DPBHits:        cum.PBHits - p.base.PBHits,
		DPrefIssued:    cum.PrefIssued - p.base.PrefIssued,
		DPrefDiscarded: cum.PrefDiscarded - p.base.PrefDiscarded,
		DPrefInstalled: p.cur.installed - p.prev.installed,
		DPrefUsed:      p.cur.used - p.prev.used,
		DPrefLate:      p.cur.late - p.prev.late,
		DPrefEvicted:   p.cur.evicted - p.prev.evicted,
		DPrefWalks:     cum.PrefWalks - p.base.PrefWalks,
		DDemandIWalks:  cum.DemandIWalks - p.base.DemandIWalks,
		DDemandDWalks:  cum.DemandDWalks - p.base.DemandDWalks,
		DDroppedWalks:  cum.DroppedWalks - p.base.DroppedWalks,
	}
	if d.DInstructions == 0 {
		return
	}
	if d.DCycles > 0 {
		d.IPC = float64(d.DInstructions) / float64(d.DCycles)
	}
	ki := float64(d.DInstructions) / 1000
	d.L1IMPKI = float64(d.DL1IMisses) / ki
	d.ITLBMPKI = float64(d.DITLBMisses) / ki
	d.ISTLBMPKI = float64(d.DISTLBMisses) / ki
	if d.DISTLBMisses > 0 {
		d.PBHitRate = float64(d.DPBHits) / float64(d.DISTLBMisses)
	}
	p.samples = append(p.samples, d)
	p.base = cum
	p.prev = p.cur
}

// Finish closes the trailing partial interval at the end of measurement.
func (p *Probe) Finish(cum Sample) { p.RecordSample(cum) }

// Samples returns the recorded interval samples.
func (p *Probe) Samples() []IntervalSample { return p.samples }

// WalkObserved records one completed page walk: its latency histogram bucket
// and, when event tracing is on, a trace event. Called by the page table
// walker for every walk it performs.
func (p *Probe) WalkObserved(tid arch.ThreadID, vpn arch.VPN, demand bool, lat arch.Cycle, now arch.Cycle) {
	kind := EvWalkPrefetch
	if demand {
		kind = EvWalkDemand
		p.demandWalkLat.Observe(uint64(lat))
	} else {
		p.prefetchWalkLat.Observe(uint64(lat))
	}
	p.emit(Event{Cycle: now, Kind: kind, TID: tid, VPN: vpn, Lat: lat})
}

// WalkDropped records a prefetch walk dropped for lack of walker MSHRs.
func (p *Probe) WalkDropped(tid arch.ThreadID, vpn arch.VPN, now arch.Cycle) {
	p.emit(Event{Cycle: now, Kind: EvWalkDropped, TID: tid, VPN: vpn})
}

// PrefetchIssued records one prefetch request leaving the prefetcher.
func (p *Probe) PrefetchIssued(tid arch.ThreadID, vpn arch.VPN, now arch.Cycle) {
	p.emit(Event{Cycle: now, Kind: EvPrefetchIssued, TID: tid, VPN: vpn})
}

// PrefetchDiscarded records a prefetch deduplicated against the PB/STLB.
func (p *Probe) PrefetchDiscarded(tid arch.ThreadID, vpn arch.VPN, now arch.Cycle) {
	p.emit(Event{Cycle: now, Kind: EvPrefetchDiscarded, TID: tid, VPN: vpn})
}

// PrefetchInstalled records a prefetched translation entering the PB (or the
// STLB under P2TLB). issued is the cycle the producing request was issued;
// ready is when its page walk completes.
func (p *Probe) PrefetchInstalled(tid arch.ThreadID, vpn arch.VPN, issued, ready arch.Cycle) {
	p.cur.installed++
	if len(p.pending) < maxPending {
		p.pending[pendingKey{tid, vpn}] = issued
	} else {
		p.untracked++
	}
	p.emit(Event{Cycle: issued, Kind: EvPrefetchInstalled, TID: tid, VPN: vpn, Lat: ready - issued})
}

// PrefetchUsed records a PB entry servicing an iSTLB miss. late reports that
// the producing walk had not yet completed (the miss waited out the
// remainder). The prefetch-to-use distance histogram gets the cycles from
// issue to use when the issue time is known.
func (p *Probe) PrefetchUsed(tid arch.ThreadID, vpn arch.VPN, now arch.Cycle, late bool) {
	p.cur.used++
	kind := EvPrefetchUsed
	if late {
		p.cur.late++
		kind = EvPrefetchLate
	}
	var dist arch.Cycle
	if issued, ok := p.pending[pendingKey{tid, vpn}]; ok {
		dist = now - issued
		p.useDistance.Observe(uint64(dist))
		delete(p.pending, pendingKey{tid, vpn})
	}
	p.emit(Event{Cycle: now, Kind: kind, TID: tid, VPN: vpn, Lat: dist})
}

// PrefetchEvicted records a PB entry displaced without ever servicing a miss
// (a useless prefetch). at is the entry's walk-completion cycle — the PB has
// no clock of its own.
func (p *Probe) PrefetchEvicted(tid arch.ThreadID, vpn arch.VPN, at arch.Cycle) {
	p.cur.evicted++
	delete(p.pending, pendingKey{tid, vpn})
	p.emit(Event{Cycle: at, Kind: EvPrefetchEvicted, TID: tid, VPN: vpn})
}

// emit appends to the event ring when tracing is enabled.
func (p *Probe) emit(e Event) {
	if p.ring != nil {
		p.ring.push(e)
	}
}

// Events returns the traced events, oldest first, and how many older events
// were overwritten once the ring filled.
func (p *Probe) Events() (events []Event, overwritten uint64) {
	if p.ring == nil {
		return nil, 0
	}
	return p.ring.snapshot(), p.ring.overwritten()
}

// Histograms returns the probe's histograms (demand walk latency, prefetch
// walk latency, prefetch-to-use distance).
func (p *Probe) Histograms() []*LogHistogram {
	return []*LogHistogram{p.demandWalkLat, p.prefetchWalkLat, p.useDistance}
}

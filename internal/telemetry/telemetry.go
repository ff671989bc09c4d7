// Package telemetry holds the simulator's live counters and the per-job time
// series built from them.
//
// The simulator reports a Sample of its counters through one hook,
// sim.Config.OnProgress, every 65,536 instructions and at the end of each
// run. The observability server (internal/obs) serves the latest report of
// each running job; a Series differences one job's consecutive reports into
// IntervalSamples, whose deltas sum exactly to the job's end-of-run Stats, and
// writes them as schema-versioned JSON Lines. The campaign orchestrator
// (internal/runner) keeps one Series per job and writes one file per job next
// to the campaign's JSON/CSV results.
package telemetry

import "morrigan/internal/arch"

// Sample is the simulator's counters since the last stats reset, at one point
// in simulated time. They are read from the same sources as the end-of-run
// Stats, so the last Sample of a run agrees with them.
type Sample struct {
	Instructions  uint64
	Cycles        arch.Cycle
	L1IMisses     uint64
	ITLBMisses    uint64
	ISTLBAccesses uint64
	ISTLBMisses   uint64
	// DSTLBAccesses and DSTLBMisses feed the observability server's dSTLB
	// MPKI gauge; a Series does not difference them.
	DSTLBAccesses uint64
	DSTLBMisses   uint64
	PBHits        uint64
	// PBLateHits counts the PB hits whose prefetch walk had not completed,
	// so the miss waited out the remainder.
	PBLateHits    uint64
	PrefIssued    uint64
	PrefDiscarded uint64
	// PrefInstalled counts prefetched translations installed into the PB,
	// or into the STLB under P2TLB.
	PrefInstalled uint64
	// PBEvictions counts PB entries evicted without serving a miss: useless
	// prefetches.
	PBEvictions  uint64
	PrefWalks    uint64
	DemandIWalks uint64
	DemandDWalks uint64
	DroppedWalks uint64
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
	// DPrefUsed equals DPBHits: a prefetch is used when its PB entry serves
	// an iSTLB miss.
	DPrefUsed     uint64 `json:"d_prefetch_used"`
	DPrefLate     uint64 `json:"d_prefetch_late"`
	DPrefEvicted  uint64 `json:"d_prefetch_evicted"`
	DPrefWalks    uint64 `json:"d_prefetch_walks"`
	DDemandIWalks uint64 `json:"d_demand_iwalks"`
	DDemandDWalks uint64 `json:"d_demand_dwalks"`
	DDroppedWalks uint64 `json:"d_dropped_walks"`

	// Rates derived from the interval's deltas.
	IPC       float64 `json:"ipc"`
	L1IMPKI   float64 `json:"l1i_mpki"`
	ITLBMPKI  float64 `json:"itlb_mpki"`
	ISTLBMPKI float64 `json:"istlb_mpki"`
	// PBHitRate is the fraction of the interval's iSTLB misses served by the
	// prefetch buffer.
	PBHitRate float64 `json:"pb_hit_rate"`
}

// Series differences the Samples of one measurement window into
// IntervalSamples. The zero value is an empty series; it is not safe for
// concurrent use.
type Series struct {
	prev    Sample
	samples []IntervalSample
}

// Add closes one interval at cum, the counters at its end. An interval in
// which no instruction retired is skipped.
func (s *Series) Add(cum Sample) {
	p := s.prev
	d := IntervalSample{
		Seq:          len(s.samples),
		Instructions: cum.Instructions,

		DInstructions:  cum.Instructions - p.Instructions,
		DCycles:        uint64(cum.Cycles - p.Cycles),
		DL1IMisses:     cum.L1IMisses - p.L1IMisses,
		DITLBMisses:    cum.ITLBMisses - p.ITLBMisses,
		DISTLBAccesses: cum.ISTLBAccesses - p.ISTLBAccesses,
		DISTLBMisses:   cum.ISTLBMisses - p.ISTLBMisses,
		DPBHits:        cum.PBHits - p.PBHits,
		DPrefIssued:    cum.PrefIssued - p.PrefIssued,
		DPrefDiscarded: cum.PrefDiscarded - p.PrefDiscarded,
		DPrefInstalled: cum.PrefInstalled - p.PrefInstalled,
		DPrefUsed:      cum.PBHits - p.PBHits,
		DPrefLate:      cum.PBLateHits - p.PBLateHits,
		DPrefEvicted:   cum.PBEvictions - p.PBEvictions,
		DPrefWalks:     cum.PrefWalks - p.PrefWalks,
		DDemandIWalks:  cum.DemandIWalks - p.DemandIWalks,
		DDemandDWalks:  cum.DemandDWalks - p.DemandDWalks,
		DDroppedWalks:  cum.DroppedWalks - p.DroppedWalks,
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
	s.samples = append(s.samples, d)
	s.prev = cum
}

// Reset empties the series for a new measurement window, whose counters
// start again from zero.
func (s *Series) Reset() {
	s.prev = Sample{}
	s.samples = s.samples[:0]
}

// Samples returns the recorded interval samples.
func (s *Series) Samples() []IntervalSample { return s.samples }

package sampling

import (
	"fmt"
	"io"
	"math"
	"sort"

	"morrigan/internal/arch"
	"morrigan/internal/tlb"
	"morrigan/internal/trace"
)

// Features is one interval's memory-behaviour feature vector, produced by the
// functional profiling pass. The fields are raw counts and summaries; the
// clusterer derives normalised per-kilo-instruction rates from them, so the
// artifact stays interval-length-agnostic.
type Features struct {
	// Instructions actually profiled in the interval (equals the policy
	// interval except for a truncated final interval, which the profiler
	// drops).
	Instructions uint64 `json:"instructions"`
	// ITLBMisses counts first-level instruction-TLB misses.
	ITLBMisses uint64 `json:"itlb_misses"`
	// ISTLBMisses counts instruction-side misses that also missed the STLB.
	ISTLBMisses uint64 `json:"istlb_misses"`
	// DSTLBMisses counts data-side misses that also missed the STLB.
	DSTLBMisses uint64 `json:"dstlb_misses"`
	// PageTransitions counts changes of the executing instruction page —
	// the routine-transition mix that drives Morrigan's markov prefetcher.
	PageTransitions uint64 `json:"page_transitions"`
	// MissPCSkew is the share of the interval's ITLB misses attributable to
	// its four most-missed instruction pages: near 1.0 for tight loops over
	// few hot pages, near 0 for flat sprawling code footprints.
	MissPCSkew float64 `json:"miss_pc_skew"`
	// ReuseLog2Mean is the mean log2 reuse distance of instruction-page
	// transitions, measured in transitions since the page was last entered.
	// Zero when no page in the interval had been entered before.
	ReuseLog2Mean float64 `json:"reuse_log2_mean"`
}

// Profile is the versioned per-workload profiling artifact: one feature
// vector per fixed-length interval of the measurement window.
type Profile struct {
	Schema   int    `json:"schema"`
	Feature  int    `json:"feature"`
	Workload string `json:"workload"` // workload spec hash, informational
	Skip     uint64 `json:"skip"`     // instructions skipped (job warmup)
	Measure  uint64 `json:"measure"`
	Interval uint64 `json:"interval"`
	// Intervals holds one entry per full interval, in stream order.
	Intervals []Features `json:"intervals"`
}

// The functional profiler runs fixed TLB geometries regardless of the
// machine under study (the paper's Table 1 baseline: 64-entry L1 TLBs,
// 1536-entry 6-way STLB). Profiles characterise the workload, not the
// machine, so one artifact serves every configuration swept over a workload.
const (
	profITLBEntries = 64
	profITLBWays    = 4
	profDTLBEntries = 64
	profDTLBWays    = 4
	profSTLBEntries = 1536
	profSTLBWays    = 6
)

// skewTopPages is how many hot miss pages the skew feature aggregates.
const skewTopPages = 4

// profiler is the functional state streamed over the trace. It models TLB
// presence only — no latencies, no context switches, no prefetchers — which
// is what makes the pass cheap enough to run over the full window.
type profiler struct {
	itlb, dtlb, stlb *tlb.TLB

	curVPN  arch.VPN
	haveVPN bool

	// Reuse-distance tracking in transition-sequence space, global across
	// intervals so distances spanning interval boundaries are preserved.
	lastSeen map[arch.VPN]uint64
	seq      uint64

	// Per-interval accumulators, cleared at each boundary.
	cur       Features
	missPages map[arch.VPN]uint64
	reuseSum  float64
	reuseN    uint64
}

func newProfiler() *profiler {
	return &profiler{
		itlb:      tlb.New("prof-itlb", profITLBEntries, profITLBWays, 0),
		dtlb:      tlb.New("prof-dtlb", profDTLBEntries, profDTLBWays, 0),
		stlb:      tlb.New("prof-stlb", profSTLBEntries, profSTLBWays, 0),
		lastSeen:  make(map[arch.VPN]uint64),
		missPages: make(map[arch.VPN]uint64),
	}
}

// step feeds one instruction through the functional model. record selects
// whether counters accumulate (false during the skip phase, which only warms
// state).
func (p *profiler) step(rec *trace.Record, record bool) {
	const tid = arch.ThreadID(0)

	vpn := rec.PC.Page()
	if !p.haveVPN || vpn != p.curVPN {
		if record {
			p.cur.PageTransitions++
			if prev, ok := p.lastSeen[vpn]; ok {
				p.reuseSum += math.Log2(float64(p.seq - prev))
				p.reuseN++
			}
		}
		p.lastSeen[vpn] = p.seq
		p.seq++
		p.curVPN = vpn
		p.haveVPN = true

		if _, hit := p.itlb.Lookup(tid, vpn); !hit {
			if record {
				p.cur.ITLBMisses++
				p.missPages[vpn]++
			}
			if _, hit := p.stlb.Lookup(tid, vpn); !hit {
				if record {
					p.cur.ISTLBMisses++
				}
				p.stlb.Insert(tid, vpn, arch.PFN(vpn))
			}
			p.itlb.Insert(tid, vpn, arch.PFN(vpn))
		}
	}

	if rec.HasLoad() {
		p.data(rec.Load.Page(), record)
	}
	if rec.HasStore() {
		p.data(rec.Store.Page(), record)
	}
	if record {
		p.cur.Instructions++
	}
}

func (p *profiler) data(vpn arch.VPN, record bool) {
	const tid = arch.ThreadID(0)
	if _, hit := p.dtlb.Lookup(tid, vpn); hit {
		return
	}
	if _, hit := p.stlb.Lookup(tid, vpn); !hit {
		if record {
			p.cur.DSTLBMisses++
		}
		p.stlb.Insert(tid, vpn, arch.PFN(vpn))
	}
	p.dtlb.Insert(tid, vpn, arch.PFN(vpn))
}

// finish closes the current interval and returns its feature vector.
func (p *profiler) finish() Features {
	f := p.cur
	f.MissPCSkew = topShare(p.missPages, f.ITLBMisses)
	if p.reuseN > 0 {
		f.ReuseLog2Mean = p.reuseSum / float64(p.reuseN)
	}
	p.cur = Features{}
	clear(p.missPages)
	p.reuseSum, p.reuseN = 0, 0
	return f
}

// topShare returns the fraction of total held by the skewTopPages largest
// counts in m.
func topShare(m map[arch.VPN]uint64, total uint64) float64 {
	if total == 0 || len(m) == 0 {
		return 0
	}
	counts := make([]uint64, 0, len(m))
	for _, c := range m {
		counts = append(counts, c)
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
	if len(counts) > skewTopPages {
		counts = counts[:skewTopPages]
	}
	var top uint64
	for _, c := range counts {
		top += c
	}
	return float64(top) / float64(total)
}

// BuildProfile streams skip+measure instructions from r through the
// functional model and returns the per-interval profile. The skip phase warms
// the functional TLBs and the reuse tracker without recording, mirroring the
// job's timing warmup. A truncated final interval (stream ended early) is
// dropped; at least one full interval must survive.
func BuildProfile(r trace.Reader, workloadHash string, skip, measure, interval uint64) (*Profile, error) {
	if interval == 0 || measure < interval {
		return nil, fmt.Errorf("sampling: invalid profile window measure=%d interval=%d", measure, interval)
	}
	p := newProfiler()
	prof := &Profile{
		Schema:   ProfileSchemaVersion,
		Feature:  FeatureVersion,
		Workload: workloadHash,
		Skip:     skip,
		Measure:  measure,
		Interval: interval,
	}

	buf := make([]trace.Record, 512)
	var done uint64
	total := skip + measure
	for done < total {
		n, err := r.NextBatch(buf[:min(uint64(len(buf)), total-done)])
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("sampling: profiling pass: %w", err)
		}
		if n == 0 {
			break // end of stream
		}
		for i := range buf[:n] {
			recording := done >= skip
			p.step(&buf[i], recording)
			done++
			if recording && (done-skip)%interval == 0 {
				prof.Intervals = append(prof.Intervals, p.finish())
			}
		}
	}
	if len(prof.Intervals) == 0 {
		return nil, fmt.Errorf("sampling: stream ended before one full interval (%d instructions) was profiled", interval)
	}
	return prof, nil
}

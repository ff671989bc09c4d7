package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// specHashVersion is folded into the hash so a deliberate change to the
// canonical encoding (or to the set of hashed fields) invalidates every
// persisted job key — checkpoint journals re-run instead of silently
// colliding with results from a differently-shaped machine.
const specHashVersion = "morrigan/machine.Spec/v1"

// Hash returns a stable, platform-independent identity for the machine: the
// SHA-256 of a canonical fixed-order encoding of every Spec field, as
// lowercase hex. It mirrors workloads.Spec.Hash and is half of a campaign
// job's canonical identity (runner JobKey).
//
// Kind strings are canonicalised before hashing — an empty prefetcher kind
// and "none", an empty page table and "radix-4", an empty I-cache kind and
// "next-line", an empty policy and "RLFU" each hash identically, matching
// what New constructs for them. TestSpecHashGolden pins known values;
// when the encoding must change, bump specHashVersion.
func (s Spec) Hash() string {
	h := sha256.New()
	h.Write([]byte(specHashVersion))
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wi := func(v int) { wu(uint64(int64(v))) }
	wb := func(v bool) {
		if v {
			wu(1)
		} else {
			wu(0)
		}
	}
	ws := func(v string) {
		wu(uint64(len(v)))
		h.Write([]byte(v))
	}

	wu(uint64(s.Seed))

	// cache.Config
	c := s.Cache
	wi(c.L1ISets)
	wi(c.L1IWays)
	wi(c.L1DSets)
	wi(c.L1DWays)
	wi(c.L2Sets)
	wi(c.L2Ways)
	wi(c.LLCSets)
	wi(c.LLCWays)
	wu(uint64(c.L1Latency))
	wu(uint64(c.L2Latency))
	wu(uint64(c.LLCLatency))
	wu(uint64(c.DRAMLatency))
	wb(c.L2StridePrefetch)

	// ptw.Config (PSC levels, MSHRs, ASAP)
	p := s.Walker
	wi(p.PSC.PML4Entries)
	wi(p.PSC.PML4Ways)
	wi(p.PSC.PDPEntries)
	wi(p.PSC.PDPWays)
	wi(p.PSC.PDEntries)
	wi(p.PSC.PDWays)
	wu(uint64(p.PSC.Latency))
	wi(p.MSHRs)
	wb(p.ASAP)

	// cpu.Config
	wi(s.Core.Width)
	wi(s.Core.ROB)
	wu(uint64(s.Core.HideWindow))
	wu(uint64(s.Core.FetchHide))
	wi(s.Core.FetchWindow)

	// TLBs and PB
	wi(s.ITLBEntries)
	wi(s.ITLBWays)
	wu(uint64(s.ITLBLatency))
	wi(s.DTLBEntries)
	wi(s.DTLBWays)
	wu(uint64(s.DTLBLatency))
	wi(s.STLBEntries)
	wi(s.STLBWays)
	wu(uint64(s.STLBLatency))
	wi(s.PBEntries)
	wu(uint64(s.PBLatency))

	// iSTLB prefetcher
	ws(normKind(s.Prefetcher.Kind, PrefetcherNone))
	wi(s.Prefetcher.Entries)
	wi(s.Prefetcher.Ways)
	wi(s.Prefetcher.MaxSuccessors)
	if m := s.Prefetcher.Morrigan; m != nil {
		wu(1)
		wu(uint64(len(m.Tables)))
		for _, t := range m.Tables {
			wi(t.Slots)
			wi(t.Entries)
			wi(t.Ways)
		}
		ws(normKind(m.Policy, "rlfu"))
		wi(m.RLFUCandidates)
		wu(m.FreqResetInterval)
		wb(m.SDP)
		wb(m.Spatial)
		wu(uint64(m.Seed))
	} else {
		wu(0)
	}
	wb(s.PrefetchIntoSTLB)
	wb(s.PerfectISTLB)

	// I-cache prefetcher
	ic := s.ICachePrefetcher
	ws(normKind(ic.Kind, ICacheNextLine))
	wi(ic.Entries)
	wi(ic.Ways)
	wi(ic.Degree)
	wi(ic.Ahead)
	wi(ic.Destinations)
	wi(ic.Window)
	wi(ic.Footprint)
	wu(ic.JumpMin)
	wb(s.ICacheTLBCost)

	wi(s.SMTBlock)
	ws(normKind(s.PageTable, PageTableRadix4))
	wb(s.HugeDataPages)
	wb(s.CorrectingWalks)
	wu(s.ContextSwitchInterval)
	return hex.EncodeToString(h.Sum(nil))
}

// Field counts folded into Hash, checked against the structs via reflection
// by TestSpecHashFieldCount so a new field cannot be added without extending
// the canonical encoding (and bumping specHashVersion).
const (
	hashedSpecFieldCount       = 25
	hashedCacheFieldCount      = 13
	hashedWalkerFieldCount     = 3
	hashedPSCFieldCount        = 7
	hashedCoreFieldCount       = 5
	hashedPrefetcherFieldCount = 5
	hashedMorriganFieldCount   = 7
	hashedTableFieldCount      = 3
	hashedICacheFieldCount     = 9
)

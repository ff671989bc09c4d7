package cache

import (
	"testing"

	"morrigan/internal/arch"
	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

// access is one replayed hierarchy request.
type access struct {
	kind Kind
	addr arch.PAddr
}

// qmmStream builds the hierarchy requests of the first n records of
// qmm-srv-01 the way the simulator issues them: one fetch per new
// instruction line, then the record's load and store. Pages map to frames in
// first-touch order, a fixed stand-in for the simulator's frame allocator.
func qmmStream(n int) []access {
	recs, err := trace.Slice(workloads.QMM()[0].NewReader(), n)
	if err != nil {
		panic(err)
	}
	frames := map[arch.VPN]arch.PFN{}
	phys := func(va arch.VAddr) arch.PAddr {
		pfn, ok := frames[va.Page()]
		if !ok {
			pfn = arch.PFN(len(frames) + 1)
			frames[va.Page()] = pfn
		}
		return arch.Translate(pfn, va)
	}
	var out []access
	lastLine := ^uint64(0)
	for _, rec := range recs {
		if line := rec.PC.Line(); line != lastLine {
			out = append(out, access{KindFetch, phys(rec.PC)})
			lastLine = line
		}
		if rec.Load != 0 {
			out = append(out, access{KindLoad, phys(rec.Load)})
		}
		if rec.Store != 0 {
			out = append(out, access{KindStore, phys(rec.Store)})
		}
	}
	return out
}

// BenchmarkHierarchyAccess replays a fixed qmm-srv-01 request stream through
// the Table 1 hierarchy, L2 stride prefetcher included, after one warming
// pass, and reports the share of requests each level served.
func BenchmarkHierarchyAccess(b *testing.B) {
	stream := qmmStream(1 << 20)
	h := NewHierarchy(DefaultConfig())
	for _, a := range stream {
		h.Access(a.kind, a.addr)
	}
	h.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := stream[i%len(stream)]
		h.Access(a.kind, a.addr)
	}
	b.StopTimer()
	var served [arch.NumLevels]uint64
	var total uint64
	for k := Kind(0); k < numKinds; k++ {
		if k == KindPrefetch {
			continue
		}
		for l := range served {
			served[l] += h.Served(k, arch.Level(l))
		}
		total += h.ServedTotal(k)
	}
	for l, n := range served {
		b.ReportMetric(float64(n)/float64(total), arch.Level(l).String()+"-share")
	}
}

// llc returns an empty cache with the Table 1 LLC geometry, the longest set
// scan in the hierarchy.
func llc() *Cache {
	cfg := DefaultConfig()
	return NewCache("LLC", cfg.LLCSets, cfg.LLCWays)
}

// BenchmarkCacheLookupHit measures hits over a resident working set that
// fills every way of every set, so hits land at every recency position.
func BenchmarkCacheLookupHit(b *testing.B) {
	c := llc()
	lines := uint64(c.Entries())
	for l := uint64(0); l < lines; l++ {
		c.Insert(l)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64(i) * 2654435761 % lines)
	}
}

// BenchmarkCacheLookupMiss measures a guaranteed-miss probe stream against
// full sets.
func BenchmarkCacheLookupMiss(b *testing.B) {
	c := llc()
	for l := uint64(0); l < uint64(c.Entries()); l++ {
		c.Insert(l)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(1<<30 + uint64(i))
	}
}

// BenchmarkCacheInsertEvict measures steady-state fills that each evict the
// LRU line of a full set.
func BenchmarkCacheInsertEvict(b *testing.B) {
	c := llc()
	for l := uint64(0); l < uint64(c.Entries()); l++ {
		c.Insert(l)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(1<<30 + uint64(i))
	}
}

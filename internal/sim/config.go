// Package sim wires the simulated machine together — core timing model,
// TLB hierarchy, prefetch buffer, STLB prefetcher, page table walker, page
// table, cache hierarchy and I-cache prefetcher — and drives instruction
// traces through it, collecting the statistics every experiment in the paper
// is built from.
package sim

import (
	"fmt"
	"strings"

	"morrigan/internal/arch"
	"morrigan/internal/cache"
	"morrigan/internal/cpu"
	"morrigan/internal/icache"
	"morrigan/internal/ptw"
	"morrigan/internal/telemetry"
	"morrigan/internal/tlb"
	"morrigan/internal/tlbprefetch"
	"morrigan/internal/trace"
)

// PageTableKind selects the page-table organisation (Section 4.3).
type PageTableKind int

// Page table organisations.
const (
	// PageTableRadix4 is the default x86-64 4-level radix tree.
	PageTableRadix4 PageTableKind = iota
	// PageTableRadix5 adds the PML5 level (5-level paging).
	PageTableRadix5
	// PageTableHashed is a clustered hashed page table; walks hash
	// directly to the bucket holding the translation and its 7 line
	// neighbours, so there are no interior levels and the PSCs are idle.
	PageTableHashed
)

// ParsePageTableKind maps a page-table name (as produced by
// PageTableKind.String, case-insensitive) back to the constant. The empty
// string means the default radix-4 organisation, so a zero-valued
// machine-spec field round-trips to the zero PageTableKind.
func ParsePageTableKind(s string) (PageTableKind, error) {
	switch strings.ToLower(s) {
	case "", "radix-4":
		return PageTableRadix4, nil
	case "radix-5":
		return PageTableRadix5, nil
	case "hashed":
		return PageTableHashed, nil
	}
	return 0, fmt.Errorf("sim: unknown page table kind %q", s)
}

// String names the page table kind.
func (k PageTableKind) String() string {
	switch k {
	case PageTableRadix4:
		return "radix-4"
	case PageTableRadix5:
		return "radix-5"
	case PageTableHashed:
		return "hashed"
	}
	return "invalid"
}

// ThreadSpec binds one hardware thread to an instruction stream. VAOffset
// shifts the stream's entire virtual address space, giving colocated SMT
// workloads distinct address spaces as separate processes would have.
type ThreadSpec struct {
	Reader   trace.Reader
	VAOffset arch.VAddr
}

// Config describes one simulated machine (Table 1 defaults).
type Config struct {
	// Seed drives the OS frame allocator.
	Seed int64

	// Cache is the cache hierarchy configuration.
	Cache cache.Config
	// Walker is the page table walker and PSC configuration.
	Walker ptw.Config
	// Core is the timing model configuration.
	Core cpu.Config

	// TLB geometry (entries, ways, latency), per Table 1.
	ITLBEntries, ITLBWays int
	ITLBLatency           arch.Cycle
	DTLBEntries, DTLBWays int
	DTLBLatency           arch.Cycle
	STLBEntries, STLBWays int
	STLBLatency           arch.Cycle

	// PBEntries and PBLatency size the prefetch buffer.
	PBEntries int
	PBLatency arch.Cycle

	// Prefetcher is the iSTLB prefetcher under test; nil means no STLB
	// prefetching (the paper's baseline).
	Prefetcher tlbprefetch.Prefetcher
	// PrefetchIntoSTLB routes prefetches directly into the STLB instead of
	// the PB (the P2TLB configuration of Figure 18).
	PrefetchIntoSTLB bool
	// PerfectISTLB makes every iSTLB lookup hit (the Perfect iSTLB upper
	// bound of Figures 9 and 18).
	PerfectISTLB bool

	// ICachePrefetcher is the instruction cache prefetcher; nil means the
	// baseline next-line prefetcher that does not cross page boundaries.
	ICachePrefetcher icache.Prefetcher
	// ICacheTLBCost charges address translation for page-crossing I-cache
	// prefetches (the FNL+MMA+TLB configuration of Figure 10). When false,
	// page-crossing prefetches are translated for free as in the IPC-1
	// infrastructure.
	ICacheTLBCost bool

	// SMTBlock is the number of instructions fetched from one thread
	// before switching under SMT (the paper's "one basic block per
	// cycle per thread" interleave).
	SMTBlock int

	// PageTable selects the page-table organisation.
	PageTable PageTableKind

	// HugeDataPages maps each thread's data region with 2 MB pages (the
	// paper's Section 5 methodology: transparent huge pages for data while
	// code pages stay at 4 KB — there is no transparent huge page support
	// for code). Requires a radix page table and the built-in synthetic
	// workload address layout.
	HugeDataPages bool

	// CorrectingWalks enables the Section 4.3 refinement: when a
	// prefetched translation is evicted from the PB without having served
	// a miss, a background correcting walk resets its accessed bit so the
	// OS page replacement policy is not misled. Corrections are issued
	// only when a walker MSHR is free.
	CorrectingWalks bool

	// ContextSwitchInterval, when non-zero, models periodic context
	// switches: every N instructions the TLBs, PSCs, prefetch buffer and
	// prefetcher state are flushed (Section 4.3 — Morrigan's small tables
	// refill quickly; SDP is stateless and unaffected).
	ContextSwitchInterval uint64

	// OnISTLBMiss, when set, observes the instruction STLB miss stream
	// (used by the Section 3.3 characterisation figures).
	OnISTLBMiss func(tid arch.ThreadID, vpn arch.VPN)

	// OnProgress, when set, receives the run's live counters on the
	// simulation goroutine, every 65,536 instructions and whenever a timed
	// or functional run returns (see Progress). It observes only, and must
	// be fast: it runs inside the record loop.
	OnProgress func(Progress)

	// Probe, when non-nil, attaches the telemetry observability layer:
	// interval time-series samples, a prefetch-lifecycle/page-walk event
	// trace and latency histograms (see internal/telemetry). Probes observe
	// only — a run with a probe produces bit-identical Stats to one without.
	// A probe belongs to exactly one simulator.
	Probe *telemetry.Probe
}

// Progress is a running simulation's live counters, as Config.OnProgress
// receives them.
type Progress struct {
	// Counters are the measured counters since the last stats reset; a
	// warmup/measure boundary zeroes them.
	Counters telemetry.Sample
	// Executed and FastForwarded count the instructions run in timing
	// detail and functionally since construction. They are never reset;
	// Executed is the figure a runner result reports as SimInstructions.
	Executed, FastForwarded uint64
}

// DefaultConfig mirrors Table 1: 128-entry 8-way I-TLB, 64-entry 4-way
// D-TLB, 1536-entry 6-way 8-cycle STLB, 64-entry 2-cycle PB, the paper's
// cache hierarchy and walker, and a next-line I-cache prefetcher.
func DefaultConfig() Config {
	return Config{
		Seed:        1,
		Cache:       cache.DefaultConfig(),
		Walker:      ptw.DefaultConfig(),
		Core:        cpu.DefaultConfig(),
		ITLBEntries: 128, ITLBWays: 8, ITLBLatency: 1,
		DTLBEntries: 64, DTLBWays: 4, DTLBLatency: 1,
		STLBEntries: 1536, STLBWays: 6, STLBLatency: 8,
		PBEntries: 64, PBLatency: 2,
		SMTBlock: 8,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	check := func(name string, entries, ways int) error {
		if entries <= 0 || ways <= 0 || entries%ways != 0 {
			return fmt.Errorf("sim: %s geometry invalid: %d entries, %d ways", name, entries, ways)
		}
		return nil
	}
	if err := check("ITLB", c.ITLBEntries, c.ITLBWays); err != nil {
		return err
	}
	if err := check("DTLB", c.DTLBEntries, c.DTLBWays); err != nil {
		return err
	}
	if err := check("STLB", c.STLBEntries, c.STLBWays); err != nil {
		return err
	}
	if err := c.Cache.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.PBEntries <= 0 {
		return fmt.Errorf("sim: PBEntries = %d", c.PBEntries)
	}
	if c.SMTBlock <= 0 {
		return fmt.Errorf("sim: SMTBlock = %d", c.SMTBlock)
	}
	if c.PerfectISTLB && c.Prefetcher != nil {
		return fmt.Errorf("sim: PerfectISTLB excludes an iSTLB prefetcher")
	}
	if c.PageTable < PageTableRadix4 || c.PageTable > PageTableHashed {
		return fmt.Errorf("sim: unknown page table kind %d", c.PageTable)
	}
	if c.HugeDataPages && c.PageTable == PageTableHashed {
		return fmt.Errorf("sim: HugeDataPages requires a radix page table")
	}
	return nil
}

// tlbs builds the three TLBs from the configuration.
func (c *Config) tlbs() (itlb, dtlb, stlb *tlb.TLB) {
	itlb = tlb.New("ITLB", c.ITLBEntries, c.ITLBWays, c.ITLBLatency)
	dtlb = tlb.New("DTLB", c.DTLBEntries, c.DTLBWays, c.DTLBLatency)
	stlb = tlb.New("STLB", c.STLBEntries, c.STLBWays, c.STLBLatency)
	return itlb, dtlb, stlb
}

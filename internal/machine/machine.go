// Package machine defines the one description of a simulated machine: a
// declarative, JSON-serializable Spec holding every TLB/PB/cache/walker/core
// parameter plus the iSTLB prefetcher, I-cache prefetcher and page table as
// *kinds with their parameters*.
//
// A machine.Spec is to configurations what workloads.Spec is to instruction
// streams: a value with a stable content Hash() that names exactly what would
// be simulated. Together they give every campaign job a canonical identity
// (runner.Job.Key), which is what the checkpoint journal and the
// cross-experiment result cache key on. sim.Config embeds a Spec; Validate
// checks one without building anything, and sim.New builds fresh prefetcher
// state from it (PrefetcherSpec.New, ICacheSpec.New) for every simulator, so
// simulators never share mutable tables.
package machine

import (
	"fmt"
	"strings"

	"morrigan/internal/arch"
	"morrigan/internal/cache"
	"morrigan/internal/core"
	"morrigan/internal/cpu"
	"morrigan/internal/icache"
	"morrigan/internal/pagetable"
	"morrigan/internal/ptw"
	"morrigan/internal/tlbprefetch"
)

// Spec describes one simulated machine as data. The zero value is not a
// valid machine; start from Default() and mutate. Every field is
// JSON-serializable and folded into Hash(); the runtime-only hooks sim.Config
// adds around it (OnISTLBMiss, OnProgress) are attached per run, not
// part of the machine's identity.
type Spec struct {
	// Seed drives the OS frame allocator.
	Seed int64 `json:"seed"`

	// Cache, Walker and Core are the cache-hierarchy, page-walker and
	// timing-model geometries (plain data already).
	Cache  cache.Config `json:"cache"`
	Walker ptw.Config   `json:"walker"`
	Core   cpu.Config   `json:"core"`

	// TLB geometry (entries, ways, latency), per Table 1.
	ITLBEntries int        `json:"itlb_entries"`
	ITLBWays    int        `json:"itlb_ways"`
	ITLBLatency arch.Cycle `json:"itlb_latency"`
	DTLBEntries int        `json:"dtlb_entries"`
	DTLBWays    int        `json:"dtlb_ways"`
	DTLBLatency arch.Cycle `json:"dtlb_latency"`
	STLBEntries int        `json:"stlb_entries"`
	STLBWays    int        `json:"stlb_ways"`
	STLBLatency arch.Cycle `json:"stlb_latency"`

	// PBEntries and PBLatency size the prefetch buffer.
	PBEntries int        `json:"pb_entries"`
	PBLatency arch.Cycle `json:"pb_latency"`

	// Prefetcher selects the iSTLB prefetcher; the zero value (kind "none")
	// is the paper's no-prefetching baseline.
	Prefetcher PrefetcherSpec `json:"prefetcher"`
	// PrefetchIntoSTLB routes prefetches directly into the STLB (P2TLB).
	PrefetchIntoSTLB bool `json:"prefetch_into_stlb,omitempty"`
	// PerfectISTLB makes every iSTLB lookup hit (upper bound).
	PerfectISTLB bool `json:"perfect_istlb,omitempty"`

	// ICachePrefetcher selects the I-cache prefetcher; the zero value (kind
	// "next-line") is the baseline next-line prefetcher.
	ICachePrefetcher ICacheSpec `json:"icache_prefetcher"`
	// ICacheTLBCost charges address translation for page-crossing I-cache
	// prefetches.
	ICacheTLBCost bool `json:"icache_tlb_cost,omitempty"`

	// SMTBlock is the per-thread fetch interleave under SMT.
	SMTBlock int `json:"smt_block"`

	// PageTable selects the page-table organisation (Section 4.3):
	// PageTableRadix4 (or empty), PageTableRadix5 or PageTableHashed.
	PageTable string `json:"page_table,omitempty"`

	// HugeDataPages maps each thread's data region with 2 MB pages.
	HugeDataPages bool `json:"huge_data_pages,omitempty"`

	// CorrectingWalks enables background accessed-bit correcting walks.
	CorrectingWalks bool `json:"correcting_walks,omitempty"`

	// ContextSwitchInterval, when non-zero, flushes all translation state
	// every N instructions.
	ContextSwitchInterval uint64 `json:"context_switch_interval,omitempty"`
}

// Prefetcher kinds.
const (
	PrefetcherNone        = "none"
	PrefetcherSP          = "sp"
	PrefetcherASP         = "asp"
	PrefetcherDP          = "dp"
	PrefetcherMP          = "mp"
	PrefetcherUnboundedMP = "mp-unbounded"
	PrefetcherMorrigan    = "morrigan"
)

// PrefetcherSpec selects an iSTLB prefetcher by kind and parameters. Fields
// beyond Kind apply only to the kinds that use them: Entries to "asp"/"dp"
// and (with Ways) "mp", MaxSuccessors to "mp-unbounded" (0 = unlimited), and
// Morrigan to "morrigan" (nil = the paper's default configuration).
type PrefetcherSpec struct {
	Kind          string        `json:"kind,omitempty"`
	Entries       int           `json:"entries,omitempty"`
	Ways          int           `json:"ways,omitempty"`
	MaxSuccessors int           `json:"max_successors,omitempty"`
	Morrigan      *MorriganSpec `json:"morrigan,omitempty"`
}

// MorriganSpec is core.Config as data: the IRIP table ensemble, replacement
// policy (by name), and module toggles.
type MorriganSpec struct {
	Tables            []TableSpec `json:"tables"`
	Policy            string      `json:"policy,omitempty"`
	RLFUCandidates    int         `json:"rlfu_candidates"`
	FreqResetInterval uint64      `json:"freq_reset_interval"`
	SDP               bool        `json:"sdp"`
	Spatial           bool        `json:"spatial"`
	Seed              int64       `json:"seed"`
}

// TableSpec sizes one IRIP prediction table.
type TableSpec struct {
	Slots   int `json:"slots"`
	Entries int `json:"entries"`
	Ways    int `json:"ways"`
}

// Page-table organisations (Section 4.3).
const (
	// PageTableRadix4 is the default x86-64 4-level radix tree.
	PageTableRadix4 = "radix-4"
	// PageTableRadix5 adds the PML5 level (5-level paging).
	PageTableRadix5 = "radix-5"
	// PageTableHashed is a clustered hashed page table; walks hash
	// directly to the bucket holding the translation and its 7 line
	// neighbours, so there are no interior levels and the PSCs are idle.
	PageTableHashed = "hashed"
)

// I-cache prefetcher kinds.
const (
	ICacheNextLine = "next-line"
	ICacheFNLMMA   = "fnl-mma"
	ICacheEPI      = "epi"
	ICacheDJolt    = "d-jolt"
)

// ICacheSpec selects an I-cache prefetcher by kind and parameters. Entries
// and Ways apply to every non-baseline kind; Degree and Ahead to "fnl-mma",
// Destinations and Window to "epi", Degree/Footprint/JumpMin to "d-jolt".
type ICacheSpec struct {
	Kind         string `json:"kind,omitempty"`
	Entries      int    `json:"entries,omitempty"`
	Ways         int    `json:"ways,omitempty"`
	Degree       int    `json:"degree,omitempty"`
	Ahead        int    `json:"ahead,omitempty"`
	Destinations int    `json:"destinations,omitempty"`
	Window       int    `json:"window,omitempty"`
	Footprint    int    `json:"footprint,omitempty"`
	JumpMin      uint64 `json:"jump_min,omitempty"`
}

// Default is the paper's Table 1 machine: 128-entry 8-way I-TLB, 64-entry
// 4-way D-TLB, 1536-entry 6-way 8-cycle STLB, 64-entry 2-cycle PB, the
// paper's cache hierarchy and walker, no iSTLB prefetcher and the next-line
// I-cache baseline.
func Default() Spec {
	return Spec{
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

// SP returns the sequential-prefetcher spec.
func SP() PrefetcherSpec { return PrefetcherSpec{Kind: PrefetcherSP} }

// ASP returns an arbitrary-stride prefetcher spec with the given table size.
func ASP(entries int) PrefetcherSpec {
	return PrefetcherSpec{Kind: PrefetcherASP, Entries: entries}
}

// DP returns a distance prefetcher spec with the given table size.
func DP(entries int) PrefetcherSpec {
	return PrefetcherSpec{Kind: PrefetcherDP, Entries: entries}
}

// MP returns a Markov prefetcher spec with the given geometry.
func MP(entries, ways int) PrefetcherSpec {
	return PrefetcherSpec{Kind: PrefetcherMP, Entries: entries, Ways: ways}
}

// UnboundedMP returns the idealized unbounded Markov prefetcher spec;
// maxSucc bounds successors per page (0 = unlimited).
func UnboundedMP(maxSucc int) PrefetcherSpec {
	return PrefetcherSpec{Kind: PrefetcherUnboundedMP, MaxSuccessors: maxSucc}
}

// Morrigan returns a Morrigan prefetcher spec carrying the given core
// configuration as data.
func Morrigan(mc core.Config) PrefetcherSpec {
	ts := make([]TableSpec, len(mc.Tables))
	for i, t := range mc.Tables {
		ts[i] = TableSpec(t)
	}
	return PrefetcherSpec{Kind: PrefetcherMorrigan, Morrigan: &MorriganSpec{
		Tables: ts, Policy: mc.Policy.String(), RLFUCandidates: mc.RLFUCandidates,
		FreqResetInterval: mc.FreqResetInterval, SDP: mc.SDP, Spatial: mc.Spatial, Seed: mc.Seed,
	}}
}

// parsePolicy maps a policy name (case-insensitive; empty means RLFU, the
// zero core.Policy) to the core constant.
func parsePolicy(s string) (core.Policy, error) {
	if s == "" {
		return core.PolicyRLFU, nil
	}
	for p := core.PolicyRLFU; p <= core.PolicyRandom; p++ {
		if strings.EqualFold(s, p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown replacement policy %q", s)
}

// FNLMMA returns the default FNL+MMA I-cache prefetcher spec: a 2K-entry
// miss table, comparable to the IPC-1 submission's storage class, with FNL
// degree 4 and MMA depth 3.
func FNLMMA() ICacheSpec {
	return ICacheSpec{Kind: ICacheFNLMMA, Entries: 2048, Ways: 8, Degree: 4, Ahead: 3}
}

// EPI returns the default entangling (EPI) I-cache prefetcher spec, sized
// comparably to the IPC-1 submission's class.
func EPI() ICacheSpec {
	return ICacheSpec{Kind: ICacheEPI, Entries: 2048, Ways: 8, Destinations: 6, Window: 4}
}

// DJolt returns the default D-Jolt I-cache prefetcher spec, sized comparably
// to the IPC-1 submission's class.
func DJolt() ICacheSpec {
	return ICacheSpec{Kind: ICacheDJolt, Entries: 2048, Ways: 8, Degree: 3, Footprint: 4, JumpMin: 16}
}

// normKind canonicalises a kind string: lowercase, empty means def. Hash,
// Validate and the constructors share it, so "" and the explicit default
// name are the same machine.
func normKind(s, def string) string {
	if s == "" {
		return def
	}
	return strings.ToLower(s)
}

// Validate reports whether sim.New can build the machine: every kind is
// known and every geometry is one its component accepts. It constructs
// nothing, so a spec arriving from outside the program (Load, the fabric
// wire) is checked before any job starts, and sim.New checks it again at
// little cost.
func (s Spec) Validate() error {
	psc := s.Walker.PSC
	for _, g := range [...]struct {
		name          string
		entries, ways int
	}{
		{"ITLB", s.ITLBEntries, s.ITLBWays},
		{"DTLB", s.DTLBEntries, s.DTLBWays},
		{"STLB", s.STLBEntries, s.STLBWays},
		{"PSC PML4", psc.PML4Entries, psc.PML4Ways},
		{"PSC PDP", psc.PDPEntries, psc.PDPWays},
		{"PSC PD", psc.PDEntries, psc.PDWays},
	} {
		if err := checkGeometry(g.entries, g.ways); err != nil {
			return fmt.Errorf("machine: %s %w", g.name, err)
		}
	}
	if err := s.Cache.Validate(); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	if s.Core.Width <= 0 || s.Core.ROB <= 0 {
		return fmt.Errorf("machine: core width and ROB must be positive: width %d, ROB %d", s.Core.Width, s.Core.ROB)
	}
	if s.PBEntries <= 0 {
		return fmt.Errorf("machine: PBEntries = %d", s.PBEntries)
	}
	if s.SMTBlock <= 0 {
		return fmt.Errorf("machine: SMTBlock = %d", s.SMTBlock)
	}
	if err := s.Prefetcher.validate(); err != nil {
		return err
	}
	if s.PerfectISTLB && normKind(s.Prefetcher.Kind, PrefetcherNone) != PrefetcherNone {
		return fmt.Errorf("machine: PerfectISTLB excludes an iSTLB prefetcher")
	}
	if err := s.ICachePrefetcher.validate(); err != nil {
		return err
	}
	switch normKind(s.PageTable, PageTableRadix4) {
	case PageTableRadix4, PageTableRadix5:
	case PageTableHashed:
		if s.HugeDataPages {
			return fmt.Errorf("machine: HugeDataPages requires a radix page table")
		}
	default:
		return fmt.Errorf("machine: unknown page table kind %q", s.PageTable)
	}
	return nil
}

// checkGeometry accepts a set-associative structure whose entries are a
// positive multiple of its positive ways.
func checkGeometry(entries, ways int) error {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		return fmt.Errorf("geometry invalid: %d entries, %d ways", entries, ways)
	}
	return nil
}

// validate checks the kind and the parameters that kind uses.
func (p PrefetcherSpec) validate() error {
	switch kind := normKind(p.Kind, PrefetcherNone); kind {
	case PrefetcherNone, PrefetcherSP, PrefetcherUnboundedMP:
	case PrefetcherASP, PrefetcherDP:
		if p.Entries <= 0 {
			return fmt.Errorf("machine: %s prefetcher needs entries > 0 (got %d)", kind, p.Entries)
		}
	case PrefetcherMP:
		if err := checkGeometry(p.Entries, p.Ways); err != nil {
			return fmt.Errorf("machine: mp prefetcher %w", err)
		}
	case PrefetcherMorrigan:
		mc, err := p.coreConfig()
		if err == nil {
			err = mc.Validate()
		}
		if err != nil {
			return fmt.Errorf("machine: morrigan prefetcher: %w", err)
		}
	default:
		return fmt.Errorf("machine: unknown prefetcher kind %q", p.Kind)
	}
	return nil
}

// coreConfig is the Morrigan configuration a "morrigan" spec names: the
// paper's default when Morrigan is nil.
func (p PrefetcherSpec) coreConfig() (core.Config, error) {
	m := p.Morrigan
	if m == nil {
		return core.DefaultConfig(), nil
	}
	pol, err := parsePolicy(m.Policy)
	if err != nil {
		return core.Config{}, err
	}
	ts := make([]core.TableConfig, len(m.Tables))
	for i, t := range m.Tables {
		ts[i] = core.TableConfig(t)
	}
	return core.Config{
		Tables: ts, Policy: pol, RLFUCandidates: m.RLFUCandidates,
		FreqResetInterval: m.FreqResetInterval, SDP: m.SDP, Spatial: m.Spatial, Seed: m.Seed,
	}, nil
}

// New constructs the iSTLB prefetcher the spec names, with fresh state:
// tlbprefetch.None for the no-prefetching baseline. The spec must have
// passed Validate; New panics on one that fails it.
func (p PrefetcherSpec) New() tlbprefetch.Prefetcher {
	switch normKind(p.Kind, PrefetcherNone) {
	case PrefetcherNone:
		return tlbprefetch.None{}
	case PrefetcherSP:
		return &tlbprefetch.SP{}
	case PrefetcherASP:
		return tlbprefetch.NewASP(p.Entries)
	case PrefetcherDP:
		return tlbprefetch.NewDP(p.Entries)
	case PrefetcherMP:
		return tlbprefetch.NewMP(p.Entries, p.Ways)
	case PrefetcherUnboundedMP:
		return tlbprefetch.NewUnboundedMP(p.MaxSuccessors)
	case PrefetcherMorrigan:
		mc, err := p.coreConfig()
		if err != nil {
			panic(err)
		}
		return core.New(mc)
	}
	panic(fmt.Sprintf("machine: unknown prefetcher kind %q", p.Kind))
}

// validate checks the kind and, for every kind but the next-line baseline,
// the table geometry.
func (p ICacheSpec) validate() error {
	switch kind := normKind(p.Kind, ICacheNextLine); kind {
	case ICacheNextLine:
	case ICacheFNLMMA, ICacheEPI, ICacheDJolt:
		if err := checkGeometry(p.Entries, p.Ways); err != nil {
			return fmt.Errorf("machine: %s I-cache prefetcher %w", kind, err)
		}
	default:
		return fmt.Errorf("machine: unknown I-cache prefetcher kind %q", p.Kind)
	}
	return nil
}

// New constructs the I-cache prefetcher the spec names, with fresh state.
// The spec must have passed Validate; New panics on one that fails it.
func (p ICacheSpec) New() icache.Prefetcher {
	switch normKind(p.Kind, ICacheNextLine) {
	case ICacheNextLine:
		return &icache.NextLine{}
	case ICacheFNLMMA:
		return icache.NewFNLMMA(p.Entries, p.Ways, p.Degree, p.Ahead)
	case ICacheEPI:
		return icache.NewEPI(p.Entries, p.Ways, p.Destinations, p.Window)
	case ICacheDJolt:
		return icache.NewDJolt(p.Entries, p.Ways, p.Degree, p.Footprint, p.JumpMin)
	}
	panic(fmt.Sprintf("machine: unknown I-cache prefetcher kind %q", p.Kind))
}

// NewPageTable constructs the page table the spec names, its frame
// allocator seeded by Seed. The spec must have passed Validate.
func (s Spec) NewPageTable() pagetable.Translator {
	switch normKind(s.PageTable, PageTableRadix4) {
	case PageTableRadix5:
		return pagetable.NewWithLevels(s.Seed, 5)
	case PageTableHashed:
		return pagetable.NewHashed(s.Seed, pagetable.DefaultHashedBuckets)
	}
	return pagetable.New(s.Seed)
}

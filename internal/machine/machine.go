// Package machine defines the declarative, JSON-serializable description of
// one simulated machine: every TLB/PB/cache/walker/core parameter plus the
// iSTLB and I-cache prefetcher *kinds with their parameters* as plain data,
// instead of the live prefetcher instances a sim.Config carries.
//
// A machine.Spec is to configurations what workloads.Spec is to instruction
// streams: a value with a stable content Hash() that names exactly what would
// be simulated. Together they give every campaign job a canonical identity
// (runner.Job.Key), which is what the checkpoint journal and the
// cross-experiment result cache key on. Build() turns a spec back into a
// runnable sim.Config, constructing fresh prefetcher state on every call so
// jobs never share mutable tables.
package machine

import (
	"fmt"
	"strings"

	"morrigan/internal/arch"
	"morrigan/internal/cache"
	"morrigan/internal/core"
	"morrigan/internal/cpu"
	"morrigan/internal/icache"
	"morrigan/internal/ptw"
	"morrigan/internal/sim"
	"morrigan/internal/tlbprefetch"
)

// Spec describes one simulated machine as data. The zero value is not a
// valid machine; start from Default() and mutate. Every field is
// JSON-serializable and folded into Hash(); the runtime-only sim.Config hooks
// (OnISTLBMiss, OnProgress, Probe) deliberately have no counterpart here —
// they are attached per run, not part of the machine's identity.
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

	// PageTable selects the page-table organisation: "radix-4" (or empty),
	// "radix-5", "hashed".
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

// Default mirrors sim.DefaultConfig (the paper's Table 1 machine with no
// iSTLB prefetcher and the next-line I-cache baseline). TestBuildDefault
// pins the equivalence.
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
	ms := FromCoreConfig(mc)
	return PrefetcherSpec{Kind: PrefetcherMorrigan, Morrigan: &ms}
}

// FromCoreConfig converts a live core.Config into its data form.
func FromCoreConfig(mc core.Config) MorriganSpec {
	ts := make([]TableSpec, len(mc.Tables))
	for i, t := range mc.Tables {
		ts[i] = TableSpec{Slots: t.Slots, Entries: t.Entries, Ways: t.Ways}
	}
	return MorriganSpec{
		Tables:            ts,
		Policy:            mc.Policy.String(),
		RLFUCandidates:    mc.RLFUCandidates,
		FreqResetInterval: mc.FreqResetInterval,
		SDP:               mc.SDP,
		Spatial:           mc.Spatial,
		Seed:              mc.Seed,
	}
}

// CoreConfig converts the spec back into a live core.Config.
func (m MorriganSpec) CoreConfig() (core.Config, error) {
	pol, err := parsePolicy(m.Policy)
	if err != nil {
		return core.Config{}, err
	}
	ts := make([]core.TableConfig, len(m.Tables))
	for i, t := range m.Tables {
		ts[i] = core.TableConfig{Slots: t.Slots, Entries: t.Entries, Ways: t.Ways}
	}
	return core.Config{
		Tables:            ts,
		Policy:            pol,
		RLFUCandidates:    m.RLFUCandidates,
		FreqResetInterval: m.FreqResetInterval,
		SDP:               m.SDP,
		Spatial:           m.Spatial,
		Seed:              m.Seed,
	}, nil
}

// parsePolicy maps a policy name (case-insensitive; empty means RLFU, the
// zero core.Policy) to the core constant.
func parsePolicy(s string) (core.Policy, error) {
	switch strings.ToLower(s) {
	case "", "rlfu":
		return core.PolicyRLFU, nil
	case "lfu":
		return core.PolicyLFU, nil
	case "lru":
		return core.PolicyLRU, nil
	case "random":
		return core.PolicyRandom, nil
	}
	return 0, fmt.Errorf("machine: unknown replacement policy %q", s)
}

// FNLMMA returns the default FNL+MMA I-cache prefetcher spec.
func FNLMMA() ICacheSpec {
	return ICacheSpec{Kind: ICacheFNLMMA, Entries: 2048, Ways: 8, Degree: 4, Ahead: 3}
}

// EPI returns the default entangling (EPI) I-cache prefetcher spec.
func EPI() ICacheSpec {
	return ICacheSpec{Kind: ICacheEPI, Entries: 2048, Ways: 8, Destinations: 6, Window: 4}
}

// DJolt returns the default D-Jolt I-cache prefetcher spec.
func DJolt() ICacheSpec {
	return ICacheSpec{Kind: ICacheDJolt, Entries: 2048, Ways: 8, Degree: 3, Footprint: 4, JumpMin: 16}
}

// build constructs the live iSTLB prefetcher the spec names; nil for the
// no-prefetching baseline.
func (p PrefetcherSpec) build() (tlbprefetch.Prefetcher, error) {
	switch kind := normKind(p.Kind, PrefetcherNone); kind {
	case PrefetcherNone:
		return nil, nil
	case PrefetcherSP:
		return &tlbprefetch.SP{}, nil
	case PrefetcherASP, PrefetcherDP, PrefetcherMP:
		if p.Entries <= 0 {
			return nil, fmt.Errorf("machine: %s prefetcher needs entries > 0 (got %d)", kind, p.Entries)
		}
		switch kind {
		case PrefetcherASP:
			return tlbprefetch.NewASP(p.Entries), nil
		case PrefetcherDP:
			return tlbprefetch.NewDP(p.Entries), nil
		}
		if p.Ways <= 0 || p.Entries%p.Ways != 0 {
			return nil, fmt.Errorf("machine: mp prefetcher geometry invalid: %d entries, %d ways", p.Entries, p.Ways)
		}
		return tlbprefetch.NewMP(p.Entries, p.Ways), nil
	case PrefetcherUnboundedMP:
		return tlbprefetch.NewUnboundedMP(p.MaxSuccessors), nil
	case PrefetcherMorrigan:
		mc := core.DefaultConfig()
		if p.Morrigan != nil {
			var err error
			mc, err = p.Morrigan.CoreConfig()
			if err != nil {
				return nil, err
			}
		}
		return core.New(mc), nil
	}
	return nil, fmt.Errorf("machine: unknown prefetcher kind %q", p.Kind)
}

// build constructs the live I-cache prefetcher the spec names; nil for the
// next-line baseline (sim substitutes icache.NextLine).
func (p ICacheSpec) build() (icache.Prefetcher, error) {
	kind := normKind(p.Kind, ICacheNextLine)
	if kind != ICacheNextLine && (p.Entries <= 0 || p.Ways <= 0) {
		return nil, fmt.Errorf("machine: %s I-cache prefetcher geometry invalid: %d entries, %d ways", kind, p.Entries, p.Ways)
	}
	switch kind {
	case ICacheNextLine:
		return nil, nil
	case ICacheFNLMMA:
		return icache.NewFNLMMA(p.Entries, p.Ways, p.Degree, p.Ahead), nil
	case ICacheEPI:
		return icache.NewEPI(p.Entries, p.Ways, p.Destinations, p.Window), nil
	case ICacheDJolt:
		return icache.NewDJolt(p.Entries, p.Ways, p.Degree, p.Footprint, p.JumpMin), nil
	}
	return nil, fmt.Errorf("machine: unknown I-cache prefetcher kind %q", p.Kind)
}

// normKind canonicalises a kind string: lowercase, empty means def. Hash and
// Build share it, so "" and the explicit default name are the same machine.
func normKind(s, def string) string {
	if s == "" {
		return def
	}
	return strings.ToLower(s)
}

// Build turns the spec into a runnable sim.Config, constructing fresh
// prefetcher instances — the returned config shares no mutable state with any
// other Build call. The config is validated before it is returned.
func (s Spec) Build() (sim.Config, error) {
	cfg := sim.Config{
		Seed:        s.Seed,
		Cache:       s.Cache,
		Walker:      s.Walker,
		Core:        s.Core,
		ITLBEntries: s.ITLBEntries, ITLBWays: s.ITLBWays, ITLBLatency: s.ITLBLatency,
		DTLBEntries: s.DTLBEntries, DTLBWays: s.DTLBWays, DTLBLatency: s.DTLBLatency,
		STLBEntries: s.STLBEntries, STLBWays: s.STLBWays, STLBLatency: s.STLBLatency,
		PBEntries: s.PBEntries, PBLatency: s.PBLatency,
		PrefetchIntoSTLB:      s.PrefetchIntoSTLB,
		PerfectISTLB:          s.PerfectISTLB,
		ICacheTLBCost:         s.ICacheTLBCost,
		SMTBlock:              s.SMTBlock,
		HugeDataPages:         s.HugeDataPages,
		CorrectingWalks:       s.CorrectingWalks,
		ContextSwitchInterval: s.ContextSwitchInterval,
	}
	kind, err := sim.ParsePageTableKind(s.PageTable)
	if err != nil {
		return sim.Config{}, fmt.Errorf("machine: %w", err)
	}
	cfg.PageTable = kind
	if cfg.Prefetcher, err = s.Prefetcher.build(); err != nil {
		return sim.Config{}, err
	}
	if cfg.ICachePrefetcher, err = s.ICachePrefetcher.build(); err != nil {
		return sim.Config{}, err
	}
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}

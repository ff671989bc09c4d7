// Package morrigan is a from-scratch reproduction of "Morrigan: A Composite
// Instruction TLB Prefetcher" (Vavouliotis, Alvarez, Grot, Jiménez, Casas —
// MICRO 2021). It provides:
//
//   - the Morrigan prefetcher itself: the IRIP ensemble of table-based
//     Markov prefetchers with the RLFU replacement policy, plus the Small
//     Delta Prefetcher (SDP), both exploiting page table locality;
//   - every baseline the paper compares against: the Sequential, Arbitrary
//     Stride, Distance and Markov dSTLB prefetchers, idealized unbounded
//     Markov variants, ASAP-style walk acceleration, prefetching directly
//     into the STLB, enlarged STLBs, and an FNL+MMA-style instruction cache
//     prefetcher;
//   - the simulation substrate they need: a trace-driven timing simulator
//     with an x86-64 radix page table, page-structure caches, a page table
//     walker, multi-level TLBs, a cache hierarchy and an interval-analysis
//     core model with SMT colocation support;
//   - a synthetic server-workload generator calibrated to the paper's
//     measured iSTLB miss-stream properties, a chunked, checksummed trace
//     container format, and the 45-workload "QMM-like" evaluation suite;
//   - an experiment harness that regenerates every table and figure of the
//     paper's evaluation (see DESIGN.md and EXPERIMENTS.md).
//
// # Quick start
//
//	w, _ := morrigan.WorkloadByName("qmm-srv-07")
//	cfg := morrigan.DefaultConfig() // the paper's Table 1 machine, as data
//	cfg.Prefetcher = morrigan.MorriganMachineSpec(morrigan.DefaultPrefetcherConfig())
//	s, err := morrigan.NewSimulator(cfg, []morrigan.ThreadSpec{{Reader: w.NewReader()}})
//	if err != nil { ... }
//	stats, err := s.Run(1_000_000, 5_000_000) // warmup, measure
//	fmt.Println(stats.IPC, stats.ISTLBMPKI, stats.PBHits)
//
// The package root re-exports the library's stable surface; the
// implementation lives under internal/.
package morrigan

import (
	"io"

	"morrigan/internal/arch"
	"morrigan/internal/core"
	"morrigan/internal/machine"
	"morrigan/internal/sim"
	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

// Architectural types.
type (
	// VPN is a virtual page number.
	VPN = arch.VPN
	// VAddr is a virtual address.
	VAddr = arch.VAddr
	// ThreadID identifies a hardware (SMT) thread.
	ThreadID = arch.ThreadID
	// Cycle is a simulation timestamp in core clock cycles.
	Cycle = arch.Cycle
)

// Simulator types.
type (
	// Config is one simulated machine (an embedded MachineSpec, Table 1 of
	// the paper by default) plus the hooks a run attaches to it.
	Config = sim.Config
	// Stats is the measurement snapshot of a simulation interval.
	Stats = sim.Stats
	// Simulator drives instruction traces through the simulated machine.
	Simulator = sim.Simulator
	// ThreadSpec binds a hardware thread to an instruction stream.
	ThreadSpec = sim.ThreadSpec
	// Progress is a running simulation's live counters, as Config.OnProgress
	// and CampaignObserver.JobProgress receive them.
	Progress = sim.Progress
)

// Page table organisations (Section 4.3), the values of Config.PageTable.
const (
	// PageTableRadix4 is the default x86-64 4-level radix tree.
	PageTableRadix4 = machine.PageTableRadix4
	// PageTableRadix5 adds the PML5 level (5-level paging).
	PageTableRadix5 = machine.PageTableRadix5
	// PageTableHashed is a clustered hashed page table.
	PageTableHashed = machine.PageTableHashed
)

// Prefetcher types.
type (
	// MorriganPrefetcher is the paper's composite prefetcher (IRIP + SDP).
	MorriganPrefetcher = core.Morrigan
	// PrefetcherConfig parameterises Morrigan.
	PrefetcherConfig = core.Config
	// TableConfig sizes one IRIP prediction table.
	TableConfig = core.TableConfig
	// Policy selects the prediction tables' replacement policy.
	Policy = core.Policy
)

// Replacement policies for the IRIP prediction tables.
const (
	PolicyRLFU   = core.PolicyRLFU
	PolicyLFU    = core.PolicyLFU
	PolicyLRU    = core.PolicyLRU
	PolicyRandom = core.PolicyRandom
)

// Workload and trace types.
type (
	// Workload names a benchmark and its generator parameters.
	Workload = workloads.Spec
	// TraceReader produces instruction records in batches through its one
	// method, NextBatch.
	TraceReader = trace.Reader
	// TraceRecord is one executed instruction.
	TraceRecord = trace.Record
	// TraceParams configures the synthetic server-workload generator.
	TraceParams = trace.ServerParams
)

// DefaultConfig returns the paper's Table 1 system configuration with no
// STLB prefetching and a next-line I-cache prefetcher.
func DefaultConfig() Config { return sim.DefaultConfig() }

// Machine specs: declarative, JSON-serialisable machine descriptions with a
// stable content hash. A spec is pure data — NewSimulator builds fresh
// prefetcher state from the one a Config embeds, and Hash gives campaigns a
// machine identity for checkpointing and cross-experiment result reuse.
type (
	// MachineSpec describes one simulated machine as data.
	MachineSpec = machine.Spec
	// MachinePrefetcherSpec selects and parameterises an iSTLB prefetcher.
	MachinePrefetcherSpec = machine.PrefetcherSpec
	// MachineICacheSpec selects and parameterises an I-cache prefetcher.
	MachineICacheSpec = machine.ICacheSpec
	// MorriganSpec parameterises the Morrigan prefetcher as data.
	MorriganSpec = machine.MorriganSpec
)

// DefaultMachineSpec returns the Table 1 machine as a declarative spec, the
// one DefaultConfig embeds.
func DefaultMachineSpec() MachineSpec { return machine.Default() }

// MorriganMachineSpec returns the Morrigan prefetcher spec for cfg.
func MorriganMachineSpec(cfg PrefetcherConfig) MachinePrefetcherSpec { return machine.Morrigan(cfg) }

// Machine-spec constructors for the named prefetchers: the baseline dSTLB
// prefetchers of Section 2.1 and the I-cache prefetchers of Sections 3.5 and
// 6.5, as the values of Config.Prefetcher and Config.ICachePrefetcher.

// SPSpec is the Sequential Prefetcher as a spec.
func SPSpec() MachinePrefetcherSpec { return machine.SP() }

// ASPSpec is the Arbitrary Stride Prefetcher as a spec.
func ASPSpec(entries int) MachinePrefetcherSpec { return machine.ASP(entries) }

// DPSpec is the Distance Prefetcher as a spec.
func DPSpec(entries int) MachinePrefetcherSpec { return machine.DP(entries) }

// MPSpec is the Markov Prefetcher as a spec.
func MPSpec(entries, ways int) MachinePrefetcherSpec { return machine.MP(entries, ways) }

// UnboundedMPSpec is the Section 3.4 idealization as a spec; maxSucc <= 0
// means unlimited successors per entry.
func UnboundedMPSpec(maxSucc int) MachinePrefetcherSpec { return machine.UnboundedMP(maxSucc) }

// FNLMMASpec is the FNL+MMA-style page-crossing I-cache prefetcher (the
// IPC-1 winner the paper carries into Sections 6.5/6.6) as a spec.
func FNLMMASpec() MachineICacheSpec { return machine.FNLMMA() }

// EPISpec is the entangling-style I-cache prefetcher, one of the IPC-1 top
// performers of the Section 3.5 selection study, as a spec.
func EPISpec() MachineICacheSpec { return machine.EPI() }

// DJoltSpec is the D-Jolt-style I-cache prefetcher, one of the IPC-1 top
// performers of the Section 3.5 selection study, as a spec.
func DJoltSpec() MachineICacheSpec { return machine.DJolt() }

// LoadMachineSpec parses a machine spec from its JSON form, rejecting
// unknown fields and specs that fail validation.
func LoadMachineSpec(r io.Reader) (MachineSpec, error) { return machine.Load(r) }

// SaveMachineSpec serialises a machine spec as JSON readable by
// LoadMachineSpec.
func SaveMachineSpec(w io.Writer, s MachineSpec) error { return machine.Save(w, s) }

// NewSimulator builds a simulator over 1 to 16 threads, validating the
// machine cfg embeds and constructing its prefetchers afresh.
func NewSimulator(cfg Config, threads []ThreadSpec) (*Simulator, error) {
	return sim.New(cfg, threads)
}

// NewMorrigan builds the composite prefetcher from cfg, for inspecting it
// outside a simulator (storage accounting, direct OnMiss calls).
func NewMorrigan(cfg PrefetcherConfig) *MorriganPrefetcher { return core.New(cfg) }

// DefaultPrefetcherConfig returns the paper's selected 3.76 KB Morrigan
// configuration (Section 6.1.3).
func DefaultPrefetcherConfig() PrefetcherConfig { return core.DefaultConfig() }

// MonoPrefetcherConfig returns the single-table Morrigan-mono ablation of
// Section 6.3.
func MonoPrefetcherConfig() PrefetcherConfig { return core.MonoConfig() }

// ScaledPrefetcherConfig scales the default table sizes by factor (the
// storage-budget sweeps of Figures 13/14 and the SMT doubling of Section
// 6.6).
func ScaledPrefetcherConfig(factor float64) PrefetcherConfig { return core.ScaledConfig(factor) }

// Workload suites (Section 5).

// QMMWorkloads returns the 45 QMM-like server workloads of the evaluation.
func QMMWorkloads() []Workload { return workloads.QMM() }

// SPECWorkloads returns the SPEC-CPU-like small-footprint workloads.
func SPECWorkloads() []Workload { return workloads.SPEC() }

// JavaWorkloads returns the Java-server-like workloads of Figure 2.
func JavaWorkloads() []Workload { return workloads.Java() }

// SMTWorkloadPairs draws n deterministic colocation pairs (Section 6.6).
func SMTWorkloadPairs(n int, seed int64) [][2]Workload { return workloads.SMTPairs(n, seed) }

// WorkloadByName finds a workload in any built-in suite.
func WorkloadByName(name string) (Workload, bool) { return workloads.ByName(name) }

// NewServerTrace builds a synthetic server instruction stream from params;
// the stream is infinite and deterministic for a fixed seed.
func NewServerTrace(params TraceParams) TraceReader { return trace.NewServerGenerator(params) }

// Package sim wires the simulated machine together — core timing model,
// TLB hierarchy, prefetch buffer, STLB prefetcher, page table walker, page
// table, cache hierarchy and I-cache prefetcher — and drives instruction
// traces through it, collecting the statistics every experiment in the paper
// is built from.
package sim

import (
	"morrigan/internal/arch"
	"morrigan/internal/machine"
	"morrigan/internal/telemetry"
	"morrigan/internal/trace"
)

// ThreadSpec binds one hardware thread to an instruction stream. VAOffset
// shifts the stream's entire virtual address space, giving colocated SMT
// workloads distinct address spaces as separate processes would have.
type ThreadSpec struct {
	Reader   trace.Reader
	VAOffset arch.VAddr
}

// Config is one simulated machine plus the hooks a run attaches to it. The
// machine is data: New validates the embedded spec and builds fresh
// prefetcher state from it for every simulator, so one Config value can build
// any number of independent simulators.
type Config struct {
	machine.Spec

	// OnISTLBMiss, when set, observes the instruction STLB miss stream
	// (used by the Section 3.3 characterisation figures).
	OnISTLBMiss func(tid arch.ThreadID, vpn arch.VPN)

	// OnProgress, when set, receives the run's live counters on the
	// simulation goroutine, every ProgressInterval instructions and whenever
	// a timed or functional run returns (see Progress). It is the
	// simulator's one periodic observation hook: the live view and the
	// telemetry series are both built from it. It observes only, and must be
	// fast: it runs inside the record loop.
	OnProgress func(Progress)
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

// DefaultConfig is the paper's Table 1 machine (machine.Default) with no
// hooks attached.
func DefaultConfig() Config { return Config{Spec: machine.Default()} }

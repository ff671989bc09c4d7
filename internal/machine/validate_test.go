package machine_test

import (
	"slices"
	"strings"
	"testing"

	"morrigan/internal/core"
	"morrigan/internal/machine"
)

// specCase mutates the Table 1 machine and names the error Validate must
// report for the result.
type specCase struct {
	name    string
	mutate  func(*machine.Spec)
	wantErr string // "" means the spec is valid
}

// parameterCases vary Table 1's own parameters: TLB, cache, walker and core
// geometry, the prefetch buffer, SMT and the page table. The accepted rows
// pin the Table 1 machine and case-insensitive page-table names, so a new
// check cannot silently reject them. sim's TestConfigValidateErrors requires
// sim.New to return Validate's error for one row of each component group.
var parameterCases = []specCase{
	{"table 1 machine", func(s *machine.Spec) {}, ""},
	{"upper-case page table kind", func(s *machine.Spec) { s.PageTable = "HASHED" }, ""},
	{"mixed-case page table kind", func(s *machine.Spec) { s.PageTable = "Radix-4" }, ""},

	{"itlb zero entries", func(s *machine.Spec) { s.ITLBEntries = 0 }, "ITLB geometry invalid"},
	{"itlb zero ways", func(s *machine.Spec) { s.ITLBWays = 0 }, "ITLB geometry invalid"},
	{"dtlb entries not multiple of ways", func(s *machine.Spec) { s.DTLBEntries = 63 }, "DTLB geometry invalid"},
	{"stlb negative ways", func(s *machine.Spec) { s.STLBWays = -6 }, "STLB geometry invalid"},
	{"stlb entries not multiple of ways", func(s *machine.Spec) { s.STLBEntries = 7 }, "STLB geometry invalid"},
	{"l2 sets not a power of two", func(s *machine.Spec) { s.Cache.L2Sets = 1000 }, "L2 geometry must be positive with power-of-two sets"},
	{"llc zero ways", func(s *machine.Spec) { s.Cache.LLCWays = 0 }, "LLC geometry must be positive"},
	{"l1i zero sets", func(s *machine.Spec) { s.Cache.L1ISets = 0 }, "L1I geometry"},
	{"psc pd zero ways", func(s *machine.Spec) { s.Walker.PSC.PDWays = 0 }, "PSC PD geometry invalid"},
	{"psc pml4 more ways than entries", func(s *machine.Spec) { s.Walker.PSC.PML4Ways = 4 }, "PSC PML4 geometry invalid"},
	{"core zero width", func(s *machine.Spec) { s.Core.Width = 0 }, "width and ROB must be positive"},
	{"core zero rob", func(s *machine.Spec) { s.Core.ROB = 0 }, "width and ROB must be positive"},
	{"pb empty", func(s *machine.Spec) { s.PBEntries = 0 }, "PBEntries"},
	{"smt block zero", func(s *machine.Spec) { s.SMTBlock = 0 }, "SMTBlock"},

	{"unknown page table", func(s *machine.Spec) { s.PageTable = "radix-7" }, `unknown page table kind "radix-7"`},
	{"page table kind out of range", func(s *machine.Spec) { s.PageTable = "radix-6" }, "unknown page table kind"},
	{"page table kind negative", func(s *machine.Spec) { s.PageTable = "-1" }, "unknown page table kind"},
	{"huge pages on hashed table", func(s *machine.Spec) {
		s.HugeDataPages = true
		s.PageTable = machine.PageTableHashed
	}, "HugeDataPages requires a radix page table"},
}

// componentCases vary the iSTLB and I-cache prefetchers: unknown kinds and
// policies, and every geometry a prefetcher's constructor would panic on.
// TestBuildErrors requires sim.New to return each rejection as an error.
var componentCases = []specCase{
	{"upper-case prefetcher kinds", func(s *machine.Spec) {
		s.Prefetcher = machine.PrefetcherSpec{Kind: "MORRIGAN"}
		s.ICachePrefetcher = machine.EPI()
		s.ICachePrefetcher.Kind = "EPI"
	}, ""},

	{"unknown prefetcher kind", func(s *machine.Spec) {
		s.Prefetcher.Kind = "quantum"
	}, `unknown prefetcher kind "quantum"`},
	{"asp without entries", func(s *machine.Spec) {
		s.Prefetcher = machine.PrefetcherSpec{Kind: machine.PrefetcherASP}
	}, "needs entries > 0"},
	{"dp negative entries", func(s *machine.Spec) {
		s.Prefetcher = machine.PrefetcherSpec{Kind: machine.PrefetcherDP, Entries: -8}
	}, "needs entries > 0"},
	{"mp bad geometry", func(s *machine.Spec) {
		s.Prefetcher = machine.PrefetcherSpec{Kind: machine.PrefetcherMP, Entries: 130, Ways: 4}
	}, "mp prefetcher geometry invalid"},
	{"unknown morrigan policy", func(s *machine.Spec) {
		s.Prefetcher = machine.PrefetcherSpec{Kind: machine.PrefetcherMorrigan, Morrigan: &machine.MorriganSpec{
			Tables: []machine.TableSpec{{Slots: 2, Entries: 64, Ways: 4}},
			Policy: "fifo",
		}}
	}, `unknown replacement policy "fifo"`},
	{"morrigan entries not multiple of ways", func(s *machine.Spec) {
		s.Prefetcher = machine.PrefetcherSpec{Kind: machine.PrefetcherMorrigan, Morrigan: &machine.MorriganSpec{
			Tables: []machine.TableSpec{{Slots: 2, Entries: 64, Ways: 5}},
		}}
	}, "table 0 geometry invalid"},
	{"morrigan without tables", func(s *machine.Spec) {
		s.Prefetcher = machine.PrefetcherSpec{Kind: machine.PrefetcherMorrigan, Morrigan: &machine.MorriganSpec{
			Tables: []machine.TableSpec{},
		}}
	}, "at least one prediction table"},
	{"perfect istlb with prefetcher", func(s *machine.Spec) {
		s.PerfectISTLB = true
		s.Prefetcher = machine.SP()
	}, "PerfectISTLB excludes"},

	{"unknown icache kind", func(s *machine.Spec) {
		s.ICachePrefetcher = machine.ICacheSpec{Kind: "oracle", Entries: 2048, Ways: 8}
	}, `unknown I-cache prefetcher kind "oracle"`},
	{"icache missing geometry", func(s *machine.Spec) {
		s.ICachePrefetcher = machine.ICacheSpec{Kind: machine.ICacheEPI}
	}, "I-cache prefetcher geometry invalid"},
	{"fnl-mma entries not multiple of ways", func(s *machine.Spec) {
		s.ICachePrefetcher = machine.FNLMMA()
		s.ICachePrefetcher.Ways = 7
	}, "fnl-mma I-cache prefetcher geometry invalid"},
	{"epi entries not multiple of ways", func(s *machine.Spec) {
		s.ICachePrefetcher = machine.EPI()
		s.ICachePrefetcher.Ways = 7
	}, "epi I-cache prefetcher geometry invalid"},
	{"d-jolt entries not multiple of ways", func(s *machine.Spec) {
		s.ICachePrefetcher = machine.DJolt()
		s.ICachePrefetcher.Ways = 7
	}, "d-jolt I-cache prefetcher geometry invalid"},
}

// TestValidateErrors covers every Validate rejection: unknown kinds and
// policies, and every geometry or combination a component cannot build.
func TestValidateErrors(t *testing.T) {
	for _, tc := range slices.Concat(parameterCases, componentCases) {
		t.Run(tc.name, func(t *testing.T) {
			s := machine.Default()
			tc.mutate(&s)
			err := s.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestValidateAllocs: Validate checks parameters without constructing the
// prefetchers they describe, so it stays cheap enough to run at every entry
// point (Load, morrigansim, sim.New).
func TestValidateAllocs(t *testing.T) {
	s := machine.Default()
	s.Prefetcher = machine.Morrigan(core.DefaultConfig())
	s.ICachePrefetcher = machine.EPI()
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Validate of a Morrigan + EPI spec: %.0f allocations", allocs)
	if allocs > 5 {
		t.Errorf("Validate of a Morrigan + EPI spec allocates %.0f times, want at most 5", allocs)
	}
}

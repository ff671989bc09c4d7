package machine

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"morrigan/internal/cache"
	"morrigan/internal/core"
	"morrigan/internal/cpu"
	"morrigan/internal/ptw"
)

// goldenSpec pins one fully populated machine for the hash golden: every
// field non-zero, a Morrigan prefetcher with an explicit table ensemble, and
// a parameterised I-cache prefetcher.
func goldenSpec() Spec {
	s := Default()
	s.Seed = 7
	s.Cache.L2StridePrefetch = true
	s.Walker.ASAP = true
	s.Prefetcher = PrefetcherSpec{
		Kind: PrefetcherMorrigan,
		Morrigan: &MorriganSpec{
			Tables: []TableSpec{
				{Slots: 2, Entries: 128, Ways: 4},
				{Slots: 4, Entries: 64, Ways: 4},
			},
			Policy:            "rlfu",
			RLFUCandidates:    4,
			FreqResetInterval: 512,
			SDP:               true,
			Spatial:           true,
			Seed:              3,
		},
	}
	s.PrefetchIntoSTLB = true
	s.ICachePrefetcher = FNLMMA()
	s.ICacheTLBCost = true
	s.PageTable = "radix-5"
	s.CorrectingWalks = true
	s.ContextSwitchInterval = 100_000
	return s
}

// TestSpecHashGolden pins the canonical encoding: these values are part of
// the checkpoint-journal contract (JobKey = H(machine ‖ workloads ‖ scale)).
// If this test fails, either the encoding changed by accident (fix the code)
// or deliberately (bump specHashVersion and update the goldens — persisted
// journals then re-run instead of silently colliding).
func TestSpecHashGolden(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{
			name: "default",
			spec: Default(),
			want: "bdd4a650c2f0e1543631ab2d27138c1733032d1a8374d34f4293af9f804e8e2b",
		},
		{
			name: "golden-full",
			spec: goldenSpec(),
			want: "623240a067d89edd4863ff0012cf76068581411ac66abe741050068f42127e36",
		},
	}
	for _, tc := range cases {
		if got := tc.spec.Hash(); got != tc.want {
			t.Errorf("%s: Hash() = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestSpecHashKindNormalization checks that the canonical kind spellings and
// the zero values hash identically — an empty prefetcher kind is "none", an
// empty page table is "radix-4", an empty I-cache kind is "next-line", an
// empty Morrigan policy is RLFU, and kind strings are case-insensitive —
// matching exactly what Build constructs for them.
func TestSpecHashKindNormalization(t *testing.T) {
	base := Default()

	named := base
	named.Prefetcher.Kind = PrefetcherNone
	named.ICachePrefetcher.Kind = ICacheNextLine
	named.PageTable = "radix-4"
	if named.Hash() != base.Hash() {
		t.Errorf("explicit default kinds hash differently from zero values")
	}

	upper := base
	upper.Prefetcher.Kind = "NONE"
	upper.ICachePrefetcher.Kind = "Next-Line"
	upper.PageTable = "Radix-4"
	if upper.Hash() != base.Hash() {
		t.Errorf("kind strings are not case-normalised before hashing")
	}

	mor := base
	mor.Prefetcher = Morrigan(core.DefaultConfig())
	morNamed := mor
	named2 := *morNamed.Prefetcher.Morrigan
	named2.Policy = "RLFU"
	morNamed.Prefetcher.Morrigan = &named2
	mor.Prefetcher.Morrigan.Policy = ""
	if mor.Hash() != morNamed.Hash() {
		t.Errorf("empty Morrigan policy should hash as RLFU")
	}
}

// TestSpecHashFieldCount fails when Spec (or any struct folded into it)
// grows a field that Hash does not encode, which would let two different
// machines share a JobKey. Extend Hash, update the counts, and bump
// specHashVersion when this fires.
func TestSpecHashFieldCount(t *testing.T) {
	cases := []struct {
		name string
		typ  reflect.Type
		want int
	}{
		{"machine.Spec", reflect.TypeOf(Spec{}), hashedSpecFieldCount},
		{"cache.Config", reflect.TypeOf(cache.Config{}), hashedCacheFieldCount},
		{"ptw.Config", reflect.TypeOf(ptw.Config{}), hashedWalkerFieldCount},
		{"ptw.PSCConfig", reflect.TypeOf(ptw.PSCConfig{}), hashedPSCFieldCount},
		{"cpu.Config", reflect.TypeOf(cpu.Config{}), hashedCoreFieldCount},
		{"machine.PrefetcherSpec", reflect.TypeOf(PrefetcherSpec{}), hashedPrefetcherFieldCount},
		{"machine.MorriganSpec", reflect.TypeOf(MorriganSpec{}), hashedMorriganFieldCount},
		{"machine.TableSpec", reflect.TypeOf(TableSpec{}), hashedTableFieldCount},
		{"machine.ICacheSpec", reflect.TypeOf(ICacheSpec{}), hashedICacheFieldCount},
	}
	for _, tc := range cases {
		if got := tc.typ.NumField(); got != tc.want {
			t.Errorf("%s has %d fields, Hash encodes %d — extend Spec.Hash and bump specHashVersion",
				tc.name, got, tc.want)
		}
	}
}

// flatHashedFields counts how many hashed leaves Spec has: every Spec field
// with nested structs flattened. Spec embeds cache.Config, ptw.Config
// (itself embedding PSCConfig) and cpu.Config as single fields, so the
// flattened count replaces those 3 with their own field counts (the walker
// counts PSC as one field, replaced by the PSC's 7).
const flatHashedFields = hashedSpecFieldCount - 3 +
	hashedCacheFieldCount + (hashedWalkerFieldCount - 1 + hashedPSCFieldCount) + hashedCoreFieldCount

// TestSpecHashSensitivity mutates every hashed parameter — including one
// drawn from each nested struct and each prefetcher-spec field — and checks
// the hash moves.
func TestSpecHashSensitivity(t *testing.T) {
	base := goldenSpec()
	baseHash := base.Hash()

	mutations := map[string]func(*Spec){
		"Seed": func(s *Spec) { s.Seed++ },

		"Cache.L1ISets":          func(s *Spec) { s.Cache.L1ISets *= 2 },
		"Cache.L1IWays":          func(s *Spec) { s.Cache.L1IWays *= 2 },
		"Cache.L1DSets":          func(s *Spec) { s.Cache.L1DSets *= 2 },
		"Cache.L1DWays":          func(s *Spec) { s.Cache.L1DWays *= 2 },
		"Cache.L2Sets":           func(s *Spec) { s.Cache.L2Sets *= 2 },
		"Cache.L2Ways":           func(s *Spec) { s.Cache.L2Ways *= 2 },
		"Cache.LLCSets":          func(s *Spec) { s.Cache.LLCSets *= 2 },
		"Cache.LLCWays":          func(s *Spec) { s.Cache.LLCWays *= 2 },
		"Cache.L1Latency":        func(s *Spec) { s.Cache.L1Latency++ },
		"Cache.L2Latency":        func(s *Spec) { s.Cache.L2Latency++ },
		"Cache.LLCLatency":       func(s *Spec) { s.Cache.LLCLatency++ },
		"Cache.DRAMLatency":      func(s *Spec) { s.Cache.DRAMLatency++ },
		"Cache.L2StridePrefetch": func(s *Spec) { s.Cache.L2StridePrefetch = !s.Cache.L2StridePrefetch },

		"Walker.PSC.PML4Entries": func(s *Spec) { s.Walker.PSC.PML4Entries *= 2 },
		"Walker.PSC.PML4Ways":    func(s *Spec) { s.Walker.PSC.PML4Ways *= 2 },
		"Walker.PSC.PDPEntries":  func(s *Spec) { s.Walker.PSC.PDPEntries *= 2 },
		"Walker.PSC.PDPWays":     func(s *Spec) { s.Walker.PSC.PDPWays *= 2 },
		"Walker.PSC.PDEntries":   func(s *Spec) { s.Walker.PSC.PDEntries *= 2 },
		"Walker.PSC.PDWays":      func(s *Spec) { s.Walker.PSC.PDWays *= 2 },
		"Walker.PSC.Latency":     func(s *Spec) { s.Walker.PSC.Latency++ },
		"Walker.MSHRs":           func(s *Spec) { s.Walker.MSHRs++ },
		"Walker.ASAP":            func(s *Spec) { s.Walker.ASAP = !s.Walker.ASAP },

		"Core.Width":       func(s *Spec) { s.Core.Width++ },
		"Core.ROB":         func(s *Spec) { s.Core.ROB++ },
		"Core.HideWindow":  func(s *Spec) { s.Core.HideWindow++ },
		"Core.FetchHide":   func(s *Spec) { s.Core.FetchHide++ },
		"Core.FetchWindow": func(s *Spec) { s.Core.FetchWindow++ },

		"ITLBEntries": func(s *Spec) { s.ITLBEntries *= 2 },
		"ITLBWays":    func(s *Spec) { s.ITLBWays *= 2 },
		"ITLBLatency": func(s *Spec) { s.ITLBLatency++ },
		"DTLBEntries": func(s *Spec) { s.DTLBEntries *= 2 },
		"DTLBWays":    func(s *Spec) { s.DTLBWays *= 2 },
		"DTLBLatency": func(s *Spec) { s.DTLBLatency++ },
		"STLBEntries": func(s *Spec) { s.STLBEntries *= 2 },
		"STLBWays":    func(s *Spec) { s.STLBWays *= 2 },
		"STLBLatency": func(s *Spec) { s.STLBLatency++ },
		"PBEntries":   func(s *Spec) { s.PBEntries *= 2 },
		"PBLatency":   func(s *Spec) { s.PBLatency++ },

		"Prefetcher.Kind":          func(s *Spec) { s.Prefetcher = SP() },
		"Prefetcher.Entries":       func(s *Spec) { s.Prefetcher.Entries++ },
		"Prefetcher.Ways":          func(s *Spec) { s.Prefetcher.Ways++ },
		"Prefetcher.MaxSuccessors": func(s *Spec) { s.Prefetcher.MaxSuccessors++ },
		"Morrigan.Tables.Slots": func(s *Spec) {
			m := *s.Prefetcher.Morrigan
			m.Tables = append([]TableSpec(nil), m.Tables...)
			m.Tables[0].Slots++
			s.Prefetcher.Morrigan = &m
		},
		"Morrigan.Tables.Entries": func(s *Spec) {
			m := *s.Prefetcher.Morrigan
			m.Tables = append([]TableSpec(nil), m.Tables...)
			m.Tables[1].Entries *= 2
			s.Prefetcher.Morrigan = &m
		},
		"Morrigan.Tables.Ways": func(s *Spec) {
			m := *s.Prefetcher.Morrigan
			m.Tables = append([]TableSpec(nil), m.Tables...)
			m.Tables[1].Ways *= 2
			s.Prefetcher.Morrigan = &m
		},
		"Morrigan.Tables.len": func(s *Spec) {
			m := *s.Prefetcher.Morrigan
			m.Tables = m.Tables[:1]
			s.Prefetcher.Morrigan = &m
		},
		"Morrigan.Policy": func(s *Spec) {
			m := *s.Prefetcher.Morrigan
			m.Policy = "lru"
			s.Prefetcher.Morrigan = &m
		},
		"Morrigan.RLFUCandidates": func(s *Spec) {
			m := *s.Prefetcher.Morrigan
			m.RLFUCandidates++
			s.Prefetcher.Morrigan = &m
		},
		"Morrigan.FreqResetInterval": func(s *Spec) {
			m := *s.Prefetcher.Morrigan
			m.FreqResetInterval++
			s.Prefetcher.Morrigan = &m
		},
		"Morrigan.SDP": func(s *Spec) {
			m := *s.Prefetcher.Morrigan
			m.SDP = !m.SDP
			s.Prefetcher.Morrigan = &m
		},
		"Morrigan.Spatial": func(s *Spec) {
			m := *s.Prefetcher.Morrigan
			m.Spatial = !m.Spatial
			s.Prefetcher.Morrigan = &m
		},
		"Morrigan.Seed": func(s *Spec) {
			m := *s.Prefetcher.Morrigan
			m.Seed++
			s.Prefetcher.Morrigan = &m
		},
		"Morrigan.nil":     func(s *Spec) { s.Prefetcher.Morrigan = nil },
		"PrefetchIntoSTLB": func(s *Spec) { s.PrefetchIntoSTLB = !s.PrefetchIntoSTLB },
		"PerfectISTLB":     func(s *Spec) { s.PerfectISTLB = !s.PerfectISTLB },

		"ICachePrefetcher.Kind":         func(s *Spec) { s.ICachePrefetcher.Kind = ICacheEPI },
		"ICachePrefetcher.Entries":      func(s *Spec) { s.ICachePrefetcher.Entries *= 2 },
		"ICachePrefetcher.Ways":         func(s *Spec) { s.ICachePrefetcher.Ways *= 2 },
		"ICachePrefetcher.Degree":       func(s *Spec) { s.ICachePrefetcher.Degree++ },
		"ICachePrefetcher.Ahead":        func(s *Spec) { s.ICachePrefetcher.Ahead++ },
		"ICachePrefetcher.Destinations": func(s *Spec) { s.ICachePrefetcher.Destinations++ },
		"ICachePrefetcher.Window":       func(s *Spec) { s.ICachePrefetcher.Window++ },
		"ICachePrefetcher.Footprint":    func(s *Spec) { s.ICachePrefetcher.Footprint++ },
		"ICachePrefetcher.JumpMin":      func(s *Spec) { s.ICachePrefetcher.JumpMin++ },
		"ICacheTLBCost":                 func(s *Spec) { s.ICacheTLBCost = !s.ICacheTLBCost },

		"SMTBlock":              func(s *Spec) { s.SMTBlock++ },
		"PageTable":             func(s *Spec) { s.PageTable = "hashed" },
		"HugeDataPages":         func(s *Spec) { s.HugeDataPages = !s.HugeDataPages },
		"CorrectingWalks":       func(s *Spec) { s.CorrectingWalks = !s.CorrectingWalks },
		"ContextSwitchInterval": func(s *Spec) { s.ContextSwitchInterval++ },
	}
	// One mutation per flattened Spec leaf, plus the Morrigan/table-spec
	// internals and two structural cases (table count, nil Morrigan).
	wantMutations := flatHashedFields - 1 /* Prefetcher counted once via Kind */ +
		(hashedPrefetcherFieldCount - 1) /* Entries, Ways, MaxSuccessors, Morrigan via nil */ +
		(hashedMorriganFieldCount - 1) /* Morrigan leaves minus Tables */ +
		hashedTableFieldCount + 1 /* per-table fields + table count */ +
		(hashedICacheFieldCount - 1) /* I-cache leaves minus Kind */ + 1 /* ICache kind */
	if len(mutations) != wantMutations {
		t.Fatalf("sensitivity table covers %d mutations, want %d", len(mutations), wantMutations)
	}
	seen := map[string]string{baseHash: "base"}
	for field, mutate := range mutations {
		s := goldenSpec()
		mutate(&s)
		h := s.Hash()
		if h == baseHash {
			t.Errorf("mutating %s did not change the hash", field)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("mutations %s and %s collide", field, prev)
		}
		seen[h] = field
	}
}

// TestSpecJSONRoundTrip checks Save/Load is exact: the reloaded spec is
// deep-equal to the original and keeps its Hash, for both the default and
// the fully populated golden machine.
func TestSpecJSONRoundTrip(t *testing.T) {
	for _, spec := range []Spec{Default(), goldenSpec()} {
		var buf bytes.Buffer
		if err := Save(&buf, spec); err != nil {
			t.Fatal(err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatalf("Load(Save(spec)): %v\nJSON: %s", err, buf.String())
		}
		if !reflect.DeepEqual(got, spec) {
			t.Errorf("round trip changed the spec:\n got %+v\nwant %+v", got, spec)
		}
		if got.Hash() != spec.Hash() {
			t.Errorf("round trip changed the hash: %s -> %s", spec.Hash(), got.Hash())
		}
	}
}

// TestLoadRejectsUnknownFields: a typo'd parameter must fail loudly, not
// fall back to a default.
func TestLoadRejectsUnknownFields(t *testing.T) {
	_, err := Load(strings.NewReader(`{"seed": 1, "slbt_entries": 1536}`))
	if err == nil || !strings.Contains(err.Error(), "slbt_entries") {
		t.Errorf("Load accepted an unknown field: %v", err)
	}
}

// TestLoadRejectsInvalidSpec: Load validates by building once, cache
// geometry included.
func TestLoadRejectsInvalidSpec(t *testing.T) {
	for _, tc := range []struct {
		mutate  func(*Spec)
		wantErr string
	}{
		{func(s *Spec) { s.Prefetcher = PrefetcherSpec{Kind: "warp-drive"} }, "warp-drive"},
		{func(s *Spec) { s.Cache.L2Sets = 1000 }, "L2 geometry"},
		{func(s *Spec) { s.Cache.LLCWays = 0 }, "LLC geometry"},
	} {
		var buf bytes.Buffer
		bad := Default()
		tc.mutate(&bad)
		if err := Save(&buf, bad); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("Load accepted an unbuildable spec: err = %v, want containing %q", err, tc.wantErr)
		}
	}
}

package machine_test

import (
	"strings"
	"testing"

	"morrigan/internal/core"
	"morrigan/internal/machine"
	"morrigan/internal/sim"
	"morrigan/internal/workloads"
)

// TestBuildFreshState: every New call must construct fresh prefetcher
// instances, or two concurrent jobs sharing one spec would share mutable
// prediction tables.
func TestBuildFreshState(t *testing.T) {
	s := machine.Default()
	s.Prefetcher = machine.Morrigan(core.DefaultConfig())
	s.ICachePrefetcher = machine.FNLMMA()
	if s.Prefetcher.New() == s.Prefetcher.New() {
		t.Error("two PrefetcherSpec.New calls shared one iSTLB prefetcher instance")
	}
	if s.ICachePrefetcher.New() == s.ICachePrefetcher.New() {
		t.Error("two ICacheSpec.New calls shared one I-cache prefetcher instance")
	}
}

// TestBuildErrors: building a machine whose prefetchers Validate rejects is
// an error from sim.New, not a panic inside a prefetcher's constructor, and
// every accepted prefetcher spec builds.
func TestBuildErrors(t *testing.T) {
	for _, tc := range componentCases {
		t.Run(tc.name, func(t *testing.T) {
			s := machine.Default()
			tc.mutate(&s)
			_, err := sim.New(sim.Config{Spec: s}, []sim.ThreadSpec{{Reader: workloads.QMM()[0].NewReader()}})
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("sim.New rejected a valid spec: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("sim.New err = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

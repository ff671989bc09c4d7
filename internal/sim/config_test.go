package sim

import (
	"strings"
	"testing"

	"morrigan/internal/machine"
	"morrigan/internal/pagetable"
)

// TestConfigValidateErrors: New validates its Config's machine spec before
// it builds anything, so a parameter the TLBs, caches, walker, core or page
// table cannot be built with is Validate's error from New, not a panic in a
// constructor. One row per component group stands for machine's
// TestValidateErrors table, which checks every rejection and its message;
// the accepted rows pin the Table 1 machine and case-insensitive page-table
// names. machine's TestBuildErrors covers the prefetchers the same way.
func TestConfigValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		valid  bool
	}{
		{"table 1 machine", func(c *Config) {}, true},
		{"upper-case page table kind", func(c *Config) { c.PageTable = "HASHED" }, true},
		{"mixed-case page table kind", func(c *Config) { c.PageTable = "Radix-4" }, true},

		{"itlb zero entries", func(c *Config) { c.ITLBEntries = 0 }, false},
		{"l2 sets not a power of two", func(c *Config) { c.Cache.L2Sets = 1000 }, false},
		{"psc pd zero ways", func(c *Config) { c.Walker.PSC.PDWays = 0 }, false},
		{"core zero width", func(c *Config) { c.Core.Width = 0 }, false},
		{"pb empty", func(c *Config) { c.PBEntries = 0 }, false},
		{"smt block zero", func(c *Config) { c.SMTBlock = 0 }, false},
		{"unknown page table", func(c *Config) { c.PageTable = "radix-7" }, false},
		{"huge pages on hashed table", func(c *Config) {
			c.HugeDataPages = true
			c.PageTable = machine.PageTableHashed
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := DefaultConfig()
			tc.mutate(&c)
			_, err := New(c, []ThreadSpec{{Reader: testWorkload()}})
			if tc.valid {
				if err != nil {
					t.Fatalf("New rejected a valid config: %v", err)
				}
				return
			}
			want := c.Validate()
			if want == nil {
				t.Fatal("Validate accepted the config; the row must name a rejected parameter")
			}
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("New err = %v, want Validate's %q", err, want)
			}
		})
	}
}

// TestNewRejectsInvalidCacheGeometry: a cache geometry the hierarchy cannot
// build is an error from New, not a panic inside cache.NewCache.
func TestNewRejectsInvalidCacheGeometry(t *testing.T) {
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Cache.L2Sets = 1000 },
		func(c *Config) { c.Cache.LLCWays = 0 },
	} {
		c := DefaultConfig()
		mutate(&c)
		if _, err := New(c, []ThreadSpec{{Reader: testWorkload()}}); err == nil || !strings.Contains(err.Error(), "geometry") {
			t.Errorf("New accepted cache %+v: err = %v", c.Cache, err)
		}
	}
}

// TestHugeRegionTable: the HugeDataPages path must reject a translator not
// backed by the radix *pagetable.Table with a clear error, not a type
// assertion panic.
func TestHugeRegionTable(t *testing.T) {
	if _, err := hugeRegionTable(pagetable.New(1)); err != nil {
		t.Errorf("radix table rejected: %v", err)
	}
	_, err := hugeRegionTable(pagetable.NewHashed(1, 64))
	if err == nil || !strings.Contains(err.Error(), "HugeDataPages requires the radix page-table implementation") {
		t.Errorf("hashed table err = %v, want the validated implementation error", err)
	}
}

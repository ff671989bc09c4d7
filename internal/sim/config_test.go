package sim

import (
	"strings"
	"testing"

	"morrigan/internal/pagetable"
	"morrigan/internal/tlbprefetch"
)

// TestConfigValidateErrors covers every Validate rejection path; the valid
// default passing is pinned alongside so a new check cannot silently reject
// the Table 1 machine.
func TestConfigValidateErrors(t *testing.T) {
	if c := DefaultConfig(); c.Validate() != nil {
		t.Fatalf("DefaultConfig does not validate: %v", c.Validate())
	}
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"itlb zero entries", func(c *Config) { c.ITLBEntries = 0 }, "ITLB geometry invalid"},
		{"itlb zero ways", func(c *Config) { c.ITLBWays = 0 }, "ITLB geometry invalid"},
		{"dtlb entries not multiple of ways", func(c *Config) { c.DTLBEntries = 63 }, "DTLB geometry invalid"},
		{"stlb negative ways", func(c *Config) { c.STLBWays = -6 }, "STLB geometry invalid"},
		{"stlb entries not multiple of ways", func(c *Config) { c.STLBEntries = 7 }, "STLB geometry invalid"},
		{"l2 sets not a power of two", func(c *Config) { c.Cache.L2Sets = 1000 }, "L2 geometry must be positive with power-of-two sets"},
		{"llc zero ways", func(c *Config) { c.Cache.LLCWays = 0 }, "LLC geometry must be positive"},
		{"l1i zero sets", func(c *Config) { c.Cache.L1ISets = 0 }, "L1I geometry"},
		{"pb empty", func(c *Config) { c.PBEntries = 0 }, "PBEntries"},
		{"smt block zero", func(c *Config) { c.SMTBlock = 0 }, "SMTBlock"},
		{"perfect istlb with prefetcher", func(c *Config) {
			c.PerfectISTLB = true
			c.Prefetcher = &tlbprefetch.SP{}
		}, "PerfectISTLB excludes"},
		{"page table kind out of range", func(c *Config) { c.PageTable = PageTableHashed + 1 }, "unknown page table kind"},
		{"page table kind negative", func(c *Config) { c.PageTable = -1 }, "unknown page table kind"},
		{"huge pages on hashed table", func(c *Config) {
			c.HugeDataPages = true
			c.PageTable = PageTableHashed
		}, "HugeDataPages requires a radix page table"},
	}
	for _, tc := range cases {
		c := DefaultConfig()
		tc.mutate(&c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Validate() = %v, want containing %q", tc.name, err, tc.wantErr)
		}
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

// TestParsePageTableKind pins the name ↔ kind mapping both ways, including
// the empty string meaning the default radix-4 (so a zero-valued machine-spec
// field round-trips) and case insensitivity.
func TestParsePageTableKind(t *testing.T) {
	for name, want := range map[string]PageTableKind{
		"":        PageTableRadix4,
		"radix-4": PageTableRadix4,
		"Radix-4": PageTableRadix4,
		"radix-5": PageTableRadix5,
		"hashed":  PageTableHashed,
		"HASHED":  PageTableHashed,
	} {
		got, err := ParsePageTableKind(name)
		if err != nil || got != want {
			t.Errorf("ParsePageTableKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParsePageTableKind("radix-7"); err == nil || !strings.Contains(err.Error(), `"radix-7"`) {
		t.Errorf("ParsePageTableKind(radix-7) err = %v, want unknown-kind error", err)
	}
	for _, k := range []PageTableKind{PageTableRadix4, PageTableRadix5, PageTableHashed} {
		back, err := ParsePageTableKind(k.String())
		if err != nil || back != k {
			t.Errorf("round trip %v → %q → %v, %v", k, k.String(), back, err)
		}
	}
	if got := (PageTableHashed + 1).String(); got != "invalid" {
		t.Errorf("out-of-range String() = %q", got)
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

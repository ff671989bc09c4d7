package icache

import (
	"testing"

	"morrigan/internal/arch"
)

func TestNextLineStaysInPage(t *testing.T) {
	var nl NextLine
	got := nl.OnFetch(10, true)
	if len(got) != 1 || got[0] != 11 {
		t.Fatalf("OnFetch = %v", got)
	}
	// Last line of a page: no prefetch across the boundary.
	last := uint64(linesPerPage - 1)
	if got := nl.OnFetch(last, false); got != nil {
		t.Fatalf("page-crossing prefetch from next-line: %v", got)
	}
	if nl.Name() != "next-line" {
		t.Fatal("name wrong")
	}
	nl.Flush()
}

func TestLinesPerPage(t *testing.T) {
	if linesPerPage != 64 {
		t.Fatalf("linesPerPage = %d, want 64", linesPerPage)
	}
	if !samePage(0, 63) || samePage(63, 64) {
		t.Fatal("samePage wrong")
	}
}

func TestFNLCrossesPages(t *testing.T) {
	f := NewFNLMMA(2048, 8, 4, 3)
	last := uint64(linesPerPage - 1)
	got := f.OnFetch(last, false)
	crossed := false
	for _, l := range got {
		if !samePage(l, last) {
			crossed = true
		}
	}
	if !crossed {
		t.Fatal("FNL must cross page boundaries")
	}
	if len(got) != f.Degree {
		t.Fatalf("non-miss fetch should produce exactly Degree=%d lines, got %d", f.Degree, len(got))
	}
}

func TestMMALearnsMissChain(t *testing.T) {
	f := NewFNLMMA(64, 8, 1, 2)
	// Miss chain: 100 -> 500 -> 900, repeated.
	for i := 0; i < 3; i++ {
		f.OnFetch(100, true)
		f.OnFetch(500, true)
		f.OnFetch(900, true)
	}
	got := f.OnFetch(100, true)
	has := func(want uint64) bool {
		for _, l := range got {
			if l == want {
				return true
			}
		}
		return false
	}
	if !has(500) {
		t.Fatalf("depth-1 successor 500 not predicted: %v", got)
	}
	if !has(900) {
		t.Fatalf("depth-2 successor 900 not predicted (Ahead=2): %v", got)
	}
}

func TestMMASuccessorSlotLRU(t *testing.T) {
	f := NewFNLMMA(64, 8, 1, 1)
	// 100's successors: 200, then 300, then 400 replaces the LRU (200).
	for _, chain := range [][2]uint64{{100, 200}, {100, 300}, {100, 400}} {
		f.OnFetch(chain[0], true)
		f.OnFetch(chain[1], true)
	}
	got := f.OnFetch(100, true)
	for _, l := range got {
		if l == 200 {
			t.Fatal("LRU successor 200 should have been replaced")
		}
	}
}

func TestMMAEntryEviction(t *testing.T) {
	f := NewFNLMMA(8, 8, 1, 1)
	// Install far more miss lines than the table holds; must not grow.
	for i := uint64(0); i < 100; i++ {
		f.OnFetch(i*1000, true)
	}
	valid := 0
	for _, e := range f.ents {
		if e.valid {
			valid++
		}
	}
	if valid > 8 {
		t.Fatalf("%d valid entries in an 8-entry table", valid)
	}
}

func TestFNLMMAFlush(t *testing.T) {
	f := NewFNLMMA(64, 8, 1, 1)
	f.OnFetch(100, true)
	f.OnFetch(200, true)
	f.Flush()
	got := f.OnFetch(100, true)
	for _, l := range got {
		if l == 200 {
			t.Fatal("learned state survived flush")
		}
	}
}

func TestFNLMMAGeometryPanics(t *testing.T) {
	for _, bad := range [][2]int{{0, 1}, {8, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("geometry %v accepted", bad)
				}
			}()
			NewFNLMMA(bad[0], bad[1], 1, 1)
		}()
	}
	// Degenerate degree/ahead are clamped, not rejected.
	f := NewFNLMMA(8, 8, 0, 0)
	if f.Degree != 1 || f.Ahead != 1 {
		t.Fatal("degree/ahead not clamped")
	}
}

func TestFNLMMADeterministicAcrossRuns(t *testing.T) {
	run := func() []uint64 {
		f := NewFNLMMA(64, 8, 2, 2)
		var last []uint64
		for i := 0; i < 50; i++ {
			last = f.OnFetch(uint64(i%7)*100, i%3 == 0)
		}
		return last
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic output length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic output")
		}
	}
}

func TestVirtualLineArithmetic(t *testing.T) {
	// Guard the line/page relationship used by the sim front-end.
	v := arch.VAddr(0x40FFC0)
	if v.Line() != uint64(v)/arch.LineSize {
		t.Fatal("line arithmetic mismatch")
	}
}

// TestOnFetchAllocationFree calls OnFetch through the Prefetcher interface,
// as the simulator does, for every built-in kind after a warm-up stream, and
// requires the fetch path to allocate nothing.
func TestOnFetchAllocationFree(t *testing.T) {
	for _, p := range []Prefetcher{&NextLine{}, NewFNLMMA(2048, 8, 4, 3), NewEPI(2048, 8, 6, 4), NewDJolt(2048, 8, 3, 4, 16)} {
		// Runs of four sequential lines 37 lines apart over 2,048 lines,
		// every third fetch a miss; the warm-up covers the whole cycle.
		// The candidates are consumed, as the simulator consumes them.
		var i, sum uint64
		fetch := func() {
			i++
			for _, line := range p.OnFetch((i/4*37+i%4)%2048, i%3 == 0) {
				sum += line
			}
		}
		for range 10_000 {
			fetch()
		}
		// AllocsPerRun truncates to whole allocations per run, so each run
		// makes 64 calls: one allocation in 64 calls still shows.
		allocs := testing.AllocsPerRun(100, func() {
			for range 64 {
				fetch()
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.0f allocs per 64 OnFetch calls, want 0", p.Name(), allocs)
		}
		if sum == 0 {
			t.Errorf("%s: no prefetch candidates", p.Name())
		}
	}
}

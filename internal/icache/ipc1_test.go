package icache

import "testing"

func has(lines []uint64, want uint64) bool {
	for _, l := range lines {
		if l == want {
			return true
		}
	}
	return false
}

func TestEPIEntanglesMissChain(t *testing.T) {
	e := NewEPI(64, 8, 4, 4)
	// Head 100 followed by misses 500, 900 within the window.
	e.OnFetch(100, true)
	e.OnFetch(500, true)
	e.OnFetch(900, true)
	// Re-fetching the head (even a hit) prefetches the entangled lines.
	got := e.OnFetch(100, false)
	if !has(got, 500) || !has(got, 900) {
		t.Fatalf("entangled destinations missing: %v", got)
	}
}

func TestEPIWindowBoundsEntangling(t *testing.T) {
	e := NewEPI(64, 8, 8, 2)
	e.OnFetch(100, true)
	e.OnFetch(200, true)
	e.OnFetch(300, true)
	// The window closed after two follow-on misses: 400 starts a new head.
	e.OnFetch(400, true)
	got := e.OnFetch(100, false)
	if has(got, 400) {
		t.Fatalf("miss beyond window entangled: %v", got)
	}
}

func TestEPIDestinationLRU(t *testing.T) {
	e := NewEPI(64, 8, 2, 8)
	// Entangle three destinations with head 100; the first is LRU-evicted.
	for _, chain := range [][]uint64{{100, 11}, {100, 22}, {100, 33}} {
		e.OnFetch(chain[0], true)
		e.OnFetch(chain[1], true)
	}
	got := e.OnFetch(100, false)
	if has(got, 11) {
		t.Fatalf("LRU destination survived: %v", got)
	}
	if !has(got, 33) {
		t.Fatalf("newest destination missing: %v", got)
	}
}

func TestEPIFlushAndGeometry(t *testing.T) {
	e := NewEPI(64, 8, 2, 2)
	e.OnFetch(100, true)
	e.OnFetch(200, true)
	e.Flush()
	if got := e.OnFetch(100, false); len(got) != 0 {
		t.Fatalf("state survived flush: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("bad geometry accepted")
		}
	}()
	NewEPI(10, 4, 1, 1)
}

func TestDJoltSequentialAndJump(t *testing.T) {
	d := NewDJolt(64, 8, 2, 3, 16)
	// Teach a long jump: region of line 100 jumps to 5000.
	d.OnFetch(100, true)
	d.OnFetch(5000, true)
	// Re-fetching the source region prefetches sequential lines plus the
	// jump target footprint.
	got := d.OnFetch(101, false) // same 4-line region as 100
	if !has(got, 102) || !has(got, 103) {
		t.Fatalf("sequential lines missing: %v", got)
	}
	for f := uint64(0); f <= 3; f++ {
		if !has(got, 5000+f) {
			t.Fatalf("jump footprint line %d missing: %v", 5000+f, got)
		}
	}
}

func TestDJoltIgnoresShortJumps(t *testing.T) {
	d := NewDJolt(64, 8, 1, 1, 16)
	d.OnFetch(100, true)
	d.OnFetch(104, true) // below JumpMin
	got := d.OnFetch(100, false)
	if has(got, 104) {
		t.Fatalf("short jump recorded: %v", got)
	}
}

func TestDJoltCrossesPages(t *testing.T) {
	d := NewDJolt(2048, 8, 3, 4, 16)
	last := uint64(linesPerPage - 1)
	got := d.OnFetch(last, false)
	crossed := false
	for _, l := range got {
		if !samePage(l, last) {
			crossed = true
		}
	}
	if !crossed {
		t.Fatal("D-Jolt must cross page boundaries")
	}
}

func TestDJoltFlush(t *testing.T) {
	d := NewDJolt(64, 8, 1, 1, 16)
	d.OnFetch(100, true)
	d.OnFetch(5000, true)
	d.Flush()
	if got := d.OnFetch(100, false); has(got, 5000) {
		t.Fatalf("jump table survived flush: %v", got)
	}
}

func TestIPC1Defaults(t *testing.T) {
	if NewEPI(2048, 8, 6, 4).Name() != "EPI" || NewDJolt(2048, 8, 3, 4, 16).Name() != "D-Jolt" {
		t.Fatal("names wrong")
	}
	// Clamped degenerate parameters.
	e := NewEPI(8, 8, 0, 0)
	if e.Destinations != 1 || e.Window != 1 {
		t.Fatal("EPI clamping wrong")
	}
	d := NewDJolt(8, 8, 0, 0, 0)
	if d.Degree != 1 || d.Footprint != 1 || d.JumpMin != 2 {
		t.Fatal("D-Jolt clamping wrong")
	}
}

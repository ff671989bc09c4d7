package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestIntervalSampleDeltas(t *testing.T) {
	var s Series
	s.Add(Sample{Instructions: 1000, Cycles: 2000, ISTLBMisses: 10, PBHits: 4})
	s.Add(Sample{Instructions: 2000, Cycles: 5000, ISTLBMisses: 30, PBHits: 10})
	ss := s.Samples()
	if len(ss) != 2 {
		t.Fatalf("samples = %d, want 2", len(ss))
	}
	s1 := ss[1]
	if s1.DInstructions != 1000 || s1.DCycles != 3000 || s1.DISTLBMisses != 20 || s1.DPBHits != 6 {
		t.Fatalf("bad deltas: %+v", s1)
	}
	if s1.Seq != 1 || s1.Instructions != 2000 {
		t.Fatalf("bad position: %+v", s1)
	}
	if got, want := s1.IPC, 1000.0/3000.0; got != want {
		t.Fatalf("IPC = %v, want %v", got, want)
	}
	if got, want := s1.ISTLBMPKI, 20.0; got != want {
		t.Fatalf("ISTLBMPKI = %v, want %v", got, want)
	}
	if got, want := s1.PBHitRate, 6.0/20.0; got != want {
		t.Fatalf("PBHitRate = %v, want %v", got, want)
	}
}

func TestEmptyIntervalSkipped(t *testing.T) {
	var s Series
	s.Add(Sample{Instructions: 500})
	s.Add(Sample{Instructions: 500}) // no progress: skipped
	s.Add(Sample{Instructions: 500}) // a run's end report repeating the last context check
	if n := len(s.Samples()); n != 1 {
		t.Fatalf("samples = %d, want 1", n)
	}
}

// TestPrefetchLifecycleCounters: the series differences the three
// lifecycle counters into their own fields, and a prefetch is used exactly
// when it is a PB hit.
func TestPrefetchLifecycleCounters(t *testing.T) {
	var s Series
	s.Add(Sample{Instructions: 100, PBHits: 2, PBLateHits: 1, PrefInstalled: 3, PBEvictions: 1})
	s.Add(Sample{Instructions: 200, PBHits: 7, PBLateHits: 1, PrefInstalled: 9, PBEvictions: 4})
	d := s.Samples()[1]
	if d.DPrefInstalled != 6 || d.DPrefUsed != 5 || d.DPrefLate != 0 || d.DPrefEvicted != 3 {
		t.Fatalf("lifecycle deltas: %+v", d)
	}
	if d.DPrefUsed != d.DPBHits {
		t.Fatalf("d_prefetch_used %d != d_pb_hits %d", d.DPrefUsed, d.DPBHits)
	}
}

// TestResetClearsEverything: after Reset the series holds no samples and
// differences the next report from zero, as counters restart at a stats
// reset.
func TestResetClearsEverything(t *testing.T) {
	var s Series
	s.Add(Sample{Instructions: 10_000, Cycles: 30_000, ISTLBMisses: 50})
	s.Reset()
	if len(s.Samples()) != 0 {
		t.Fatal("samples survived reset")
	}
	s.Add(Sample{Instructions: 4_000, Cycles: 5_000, ISTLBMisses: 7})
	ss := s.Samples()
	if len(ss) != 1 || ss[0].Seq != 0 || ss[0].DInstructions != 4_000 || ss[0].DCycles != 5_000 || ss[0].DISTLBMisses != 7 {
		t.Fatalf("first sample after reset: %+v", ss)
	}
}

func TestWriteAndParseJSONL(t *testing.T) {
	var s Series
	s.Add(Sample{Instructions: 100, Cycles: 150, ISTLBMisses: 2, PBHits: 1})
	s.Add(Sample{Instructions: 130, Cycles: 200, ISTLBMisses: 3, PBHits: 2})

	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf, 100); err != nil {
		t.Fatal(err)
	}
	lines, err := ParseJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, l := range lines {
		counts[l["kind"].(string)]++
	}
	if len(counts) != 3 || counts[KindHeader] != 1 || counts[KindSummary] != 1 {
		t.Fatalf("line kinds: %v", counts)
	}
	if counts[KindSample] != 2 {
		t.Fatalf("samples = %d, want 2", counts[KindSample])
	}
	if h := lines[0]; h["schema"] != float64(SchemaVersion) || h["interval"] != float64(100) {
		t.Fatalf("header %v", h)
	}
	if sum := lines[len(lines)-1]; sum["samples"] != float64(2) {
		t.Fatalf("summary %v", sum)
	}
}

func TestParseJSONLRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"not json":   "hello\n",
		"no header":  `{"kind":"sample","seq":0}` + "\n" + `{"kind":"summary"}` + "\n",
		"bad schema": `{"kind":"header","schema":99}` + "\n" + `{"kind":"summary"}` + "\n",
		"schema 1":   `{"kind":"header","schema":1}` + "\n" + `{"kind":"summary"}` + "\n",
		"truncated":  `{"kind":"header","schema":2}` + "\n" + `{"kind":"sample","seq":0}` + "\n",
		"no kind":    `{"kind":"header","schema":2}` + "\n" + `{"x":1}` + "\n",
	}
	for name, in := range cases {
		if _, err := ParseJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"morrigan/internal/arch"
)

func TestIntervalSampleDeltas(t *testing.T) {
	p := NewProbe(Config{Interval: 1000})
	p.RecordSample(Sample{Instructions: 1000, Cycles: 2000, ISTLBMisses: 10, PBHits: 4})
	p.RecordSample(Sample{Instructions: 2000, Cycles: 5000, ISTLBMisses: 30, PBHits: 10})
	ss := p.Samples()
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
	p := NewProbe(Config{})
	p.RecordSample(Sample{Instructions: 500})
	p.RecordSample(Sample{Instructions: 500}) // no progress: skipped
	p.Finish(Sample{Instructions: 500})       // idempotent at the end too
	if n := len(p.Samples()); n != 1 {
		t.Fatalf("samples = %d, want 1", n)
	}
}

func TestPrefetchLifecycleCounters(t *testing.T) {
	p := NewProbe(Config{Interval: 100})
	p.PrefetchInstalled(0, 10, 50, 90)
	p.PrefetchInstalled(0, 11, 60, 95)
	p.PrefetchInstalled(1, 10, 60, 95)
	p.PrefetchUsed(0, 10, 80, false)
	p.PrefetchUsed(0, 11, 70, true)
	p.PrefetchEvicted(1, 10, 95)
	p.RecordSample(Sample{Instructions: 100})
	s := p.Samples()[0]
	if s.DPrefInstalled != 3 || s.DPrefUsed != 2 || s.DPrefLate != 1 || s.DPrefEvicted != 1 {
		t.Fatalf("lifecycle deltas: %+v", s)
	}
	// Use distances: 80-50=30 and 70-60=10 observed.
	h := p.Histograms()[2]
	if h.Name() != "prefetch_to_use_distance" || h.Total() != 2 || h.Max() != 30 {
		t.Fatalf("distance histogram: total=%d max=%d", h.Total(), h.Max())
	}
	if len(p.pending) != 0 {
		t.Fatalf("pending map not drained: %d", len(p.pending))
	}
}

func TestEventRingOverwrite(t *testing.T) {
	p := NewProbe(Config{EventBuffer: 4})
	for i := 0; i < 10; i++ {
		p.PrefetchIssued(0, 100, 0)
	}
	events, overwritten := p.Events()
	if len(events) != 4 || overwritten != 6 {
		t.Fatalf("events=%d overwritten=%d", len(events), overwritten)
	}
	// Ordering: oldest first after wraparound.
	p3 := NewProbe(Config{EventBuffer: 3})
	for c := 1; c <= 5; c++ {
		p3.WalkDropped(0, 0, arch.Cycle(c))
	}
	ev, _ := p3.Events()
	if ev[0].Cycle != 3 || ev[2].Cycle != 5 {
		t.Fatalf("ring order: %+v", ev)
	}
}

func TestEventTracingDisabled(t *testing.T) {
	// Any negative ring capacity disables the event trace.
	for _, capacity := range []int{-1, -DefaultEventBuffer} {
		p := NewProbe(Config{EventBuffer: capacity})
		p.PrefetchIssued(0, 1, 2)
		if ev, _ := p.Events(); ev != nil {
			t.Fatalf("EventBuffer %d: events recorded while disabled: %v", capacity, ev)
		}
	}
}

func TestLogHistogramBuckets(t *testing.T) {
	h := NewLogHistogram("x")
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 1000} {
		h.Observe(v)
	}
	b := h.Buckets()
	// 0→bucket0; 1→b1; 2,3→b2; 4,7→b3; 8→b4; 1000→b10.
	want := []uint64{1, 1, 2, 2, 1, 0, 0, 0, 0, 0, 1}
	if len(b) != len(want) {
		t.Fatalf("buckets = %v", b)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, b[i], want[i], b)
		}
	}
	if h.Total() != 8 || h.Max() != 1000 {
		t.Fatalf("total=%d max=%d", h.Total(), h.Max())
	}
	if got, want := h.Mean(), float64(0+1+2+3+4+7+8+1000)/8; got != want {
		t.Fatalf("mean = %v, want %v", got, want)
	}
	if q := h.Quantile(0.5); q != 3 { // 4th of 8 obs is the value 3, bucket 2
		t.Fatalf("p50 = %d", q)
	}
	if q := h.Quantile(1); q != BucketUpper(10) {
		t.Fatalf("p100 = %d", q)
	}
}

func TestResetClearsEverything(t *testing.T) {
	p := NewProbe(Config{Interval: 10, EventBuffer: 8})
	p.PrefetchInstalled(0, 1, 2, 3)
	p.WalkObserved(0, 1, true, 70, 100)
	p.RecordSample(Sample{Instructions: 10})
	p.Reset()
	if len(p.Samples()) != 0 {
		t.Fatal("samples survived reset")
	}
	if ev, over := p.Events(); len(ev) != 0 || over != 0 {
		t.Fatal("events survived reset")
	}
	for _, h := range p.Histograms() {
		if h.Total() != 0 {
			t.Fatalf("%s survived reset", h.Name())
		}
	}
	if len(p.pending) != 0 {
		t.Fatal("pending survived reset")
	}
}

func TestWriteAndParseJSONL(t *testing.T) {
	p := NewProbe(Config{Interval: 100, EventBuffer: 16})
	p.WalkObserved(0, 5, true, 70, 50)
	p.PrefetchInstalled(0, 6, 60, 100)
	p.PrefetchUsed(0, 6, 120, false)
	p.RecordSample(Sample{Instructions: 100, Cycles: 150, ISTLBMisses: 2, PBHits: 1})
	p.Finish(Sample{Instructions: 130, Cycles: 200, ISTLBMisses: 3, PBHits: 2})

	var buf bytes.Buffer
	if err := p.WriteJSONL(&buf); err != nil {
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
	if counts[KindHeader] != 1 || counts[KindSummary] != 1 {
		t.Fatalf("line kinds: %v", counts)
	}
	if counts[KindSample] != 2 {
		t.Fatalf("samples = %d, want 2", counts[KindSample])
	}
	if counts[KindEvent] != 3 {
		t.Fatalf("events = %d, want 3", counts[KindEvent])
	}
	if counts[KindHist] != 3 {
		t.Fatalf("hists = %d, want 3", counts[KindHist])
	}
}

func TestParseJSONLRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"not json":   "hello\n",
		"no header":  `{"kind":"sample","seq":0}` + "\n" + `{"kind":"summary"}` + "\n",
		"bad schema": `{"kind":"header","schema":99}` + "\n" + `{"kind":"summary"}` + "\n",
		"truncated":  `{"kind":"header","schema":1}` + "\n" + `{"kind":"sample","seq":0}` + "\n",
		"no kind":    `{"kind":"header","schema":1}` + "\n" + `{"x":1}` + "\n",
	}
	for name, in := range cases {
		if _, err := ParseJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPendingMapBounded(t *testing.T) {
	p := NewProbe(DefaultConfig())
	for i := 0; i < maxPending+100; i++ {
		p.PrefetchInstalled(0, arch.VPN(i+1), 0, 0)
	}
	if len(p.pending) != maxPending {
		t.Fatalf("pending = %d, want %d", len(p.pending), maxPending)
	}
	if p.untracked != 100 {
		t.Fatalf("untracked = %d, want 100", p.untracked)
	}
}

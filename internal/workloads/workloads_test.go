package workloads

import (
	"bytes"
	"strings"
	"testing"

	"morrigan/internal/arch"
	"morrigan/internal/stats"
	"morrigan/internal/trace"
)

func TestSuiteSizes(t *testing.T) {
	if got := len(QMM()); got != QMMCount {
		t.Fatalf("QMM suite = %d workloads, want %d", got, QMMCount)
	}
	if got := len(SPEC()); got != 10 {
		t.Fatalf("SPEC suite = %d workloads, want 10", got)
	}
	if got := len(Java()); got != 7 {
		t.Fatalf("Java suite = %d workloads, want 7", got)
	}
	if got := len(All()); got != QMMCount+17 {
		t.Fatalf("All = %d", got)
	}
}

func TestAllParamsValid(t *testing.T) {
	for _, s := range All() {
		if err := s.Params.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if s.Name == "" {
			t.Error("unnamed workload")
		}
	}
}

func TestNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range All() {
		if seen[s.Name] {
			t.Errorf("duplicate workload name %q", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestByName(t *testing.T) {
	if s, ok := ByName("qmm-srv-07"); !ok || s.Name != "qmm-srv-07" {
		t.Fatalf("ByName(qmm-srv-07) = %v %v", s.Name, ok)
	}
	if _, ok := ByName("cassandra"); !ok {
		t.Fatal("ByName(cassandra) missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName(nope) found something")
	}
}

func TestReadersDeterministicAndFresh(t *testing.T) {
	w := QMM()[0]
	a, _ := trace.Slice(w.NewReader(), 5000)
	b, _ := trace.Slice(w.NewReader(), 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs between fresh readers", i)
		}
	}
}

func TestQMMWorkloadsDiffer(t *testing.T) {
	qmm := QMM()
	a, _ := trace.Slice(qmm[0].NewReader(), 2000)
	b, _ := trace.Slice(qmm[1].NewReader(), 2000)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two QMM workloads produced identical traces")
	}
}

func TestSMTPairs(t *testing.T) {
	pairs := SMTPairs(50, 99)
	if len(pairs) != 50 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	for i, p := range pairs {
		if p[0].Name == p[1].Name {
			t.Errorf("pair %d colocates a workload with itself", i)
		}
	}
	// Deterministic for a fixed seed.
	again := SMTPairs(50, 99)
	for i := range pairs {
		if pairs[i][0].Name != again[i][0].Name || pairs[i][1].Name != again[i][1].Name {
			t.Fatal("SMTPairs not deterministic")
		}
	}
	// Different seed, different draw.
	other := SMTPairs(50, 100)
	diff := false
	for i := range pairs {
		if pairs[i][0].Name != other[i][0].Name {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical pair lists")
	}
}

func TestMixes(t *testing.T) {
	for _, way := range []int{4, 8, 16} {
		mixes := Mixes(5, way, 7)
		if len(mixes) != 5 {
			t.Fatalf("%d-way: mixes = %d, want 5", way, len(mixes))
		}
		for i, mix := range mixes {
			if len(mix) != way {
				t.Fatalf("%d-way mix %d has %d workloads", way, i, len(mix))
			}
			seen := make(map[string]bool, way)
			for _, w := range mix {
				if seen[w.Name] {
					t.Errorf("%d-way mix %d colocates %s with itself", way, i, w.Name)
				}
				seen[w.Name] = true
				if _, ok := ByName(w.Name); !ok {
					t.Errorf("%d-way mix %d drew unknown workload %s", way, i, w.Name)
				}
			}
		}
		// Deterministic for a fixed seed.
		again := Mixes(5, way, 7)
		for i := range mixes {
			for j := range mixes[i] {
				if mixes[i][j].Name != again[i][j].Name {
					t.Fatalf("%d-way Mixes not deterministic", way)
				}
			}
		}
	}
	// Different seed, different draw.
	a, b := Mixes(5, 4, 7), Mixes(5, 4, 8)
	diff := false
	for i := range a {
		for j := range a[i] {
			if a[i][j].Name != b[i][j].Name {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical mix lists")
	}
}

func TestQMMFootprintsSpanRange(t *testing.T) {
	qmm := QMM()
	small := qmm[0].Params.CodePages
	large := qmm[QMMCount-1].Params.CodePages
	if small >= large {
		t.Fatalf("footprints not increasing: %d .. %d", small, large)
	}
	if small < 800 || large > 3500 {
		t.Fatalf("footprint range [%d, %d] outside server band", small, large)
	}
}

// TestMissStreamShape verifies the paper's Section 3.3 characterisation on a
// sample workload's raw page-transition stream: skewed page popularity and
// bounded successor fan-out.
func TestMissStreamShape(t *testing.T) {
	w := QMM()[20]
	r := w.NewReader()
	succ := stats.NewSuccessorStats()
	freq := stats.NewPageFrequency()
	buf := make([]trace.Record, 4_000)
	var prev arch.VPN
	for i := 0; i < 2_000_000; i += len(buf) {
		if _, err := r.NextBatch(buf); err != nil {
			t.Fatal(err)
		}
		for _, rec := range buf {
			vpn := rec.PC.Page()
			if vpn != prev {
				succ.Observe(uint64(vpn))
				freq.Observe(uint64(vpn))
				prev = vpn
			}
		}
	}
	// Successor fan-out is bounded: most pages have few successors.
	one, two, four, eight, more := succ.SuccessorHistogram()
	if one+two+four+eight < 50 {
		t.Errorf("successor histogram too flat: %v %v %v %v %v", one, two, four, eight, more)
	}
	// Popularity is skewed: far fewer than half the pages carry 90% of
	// the transitions.
	if n := freq.PagesForCoverage(90); n > freq.Pages()*3/4 {
		t.Errorf("PagesForCoverage(90) = %d of %d pages: not skewed", n, freq.Pages())
	}
	// Top pages have predictable successors (Finding 3 direction).
	first, second, third, rest := succ.TopPageSuccessorProbabilities(50)
	if first < 30 {
		t.Errorf("top successor probability = %v, want dominant", first)
	}
	if first+second+third+rest < 99.9 {
		t.Errorf("probabilities do not sum: %v %v %v %v", first, second, third, rest)
	}
}

func TestSPECSmallFootprint(t *testing.T) {
	for _, s := range SPEC() {
		if s.Params.CodePages >= 200 {
			t.Errorf("%s: CodePages = %d, SPEC-like should be small", s.Name, s.Params.CodePages)
		}
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	orig := QMM()[12]
	var buf bytes.Buffer
	if err := SaveSpec(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || got.Params != orig.Params {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", got, orig)
	}
}

func TestLoadSpecRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":        "not json",
		"missing name":   `{"params":{}}`,
		"invalid params": `{"name":"x","params":{"CodePages":1}}`,
		"unknown field":  `{"name":"x","nope":1,"params":{}}`,
	}
	for label, in := range cases {
		if _, err := LoadSpec(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}

func TestLoadSpecValid(t *testing.T) {
	in := `{
	  "name": "my-service",
	  "params": {
	    "Seed": 1, "CodePages": 1500, "DataPages": 8192,
	    "HotFrac": 0.3, "WarmFrac": 0.3, "PHot": 0.8, "PWarm": 0.18,
	    "RoutineLenMin": 2, "RoutineLenMax": 10,
	    "RunLenMin": 6, "RunLenMax": 40, "EntryPoints": 4,
	    "SeqFrac": 0.15, "SmallDeltaFrac": 0.2, "BranchSkipFrac": 0.1,
	    "SuccWeights": [0.33, 0.2, 0.22, 0.18, 0.07],
	    "RandomCallFrac": 0.005,
	    "LoadFrac": 0.25, "StoreFrac": 0.1,
	    "DataZipfS": 1.6, "DataStreamFrac": 0.15,
	    "PhaseLen": 700000, "PhaseShuffleFrac": 0.06
	  }
	}`
	spec, err := LoadSpec(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "my-service" || spec.Params.CodePages != 1500 {
		t.Fatalf("spec = %+v", spec)
	}
	// The spec must produce a working generator.
	rec := make([]trace.Record, 1)
	if n, err := spec.NewReader().NextBatch(rec); n != 1 || err != nil || rec[0].PC == 0 {
		t.Fatalf("generator: rec=%+v n=%d err=%v", rec[0], n, err)
	}
}

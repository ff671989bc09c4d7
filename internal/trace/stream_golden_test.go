package trace_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

// updateGolden regenerates testdata/stream_golden.json from the current
// generator.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/stream_golden.json")

// streamCase is one pinned generator stream: its parameters and how many
// records of it the digest covers.
type streamCase struct {
	name    string
	params  trace.ServerParams
	records int
}

// streamEntry is one case's line in the golden file.
type streamEntry struct {
	Case    string `json:"case"`
	Records int    `json:"records"`
	SHA256  string `json:"sha256"`
}

// streamCases enumerates the first 200K records of every built-in workload,
// 2.5M records (the benchmark's 500K+2M window, crossing at least two phase
// changes) of the six Figure 15 benchmark workloads, and custom specs at the
// generator's edges: short phases, a single data page, a Zipf exponent of at
// most 1 (replaced by 1.2) and one just above 1.
func streamCases() []streamCase {
	var cases []streamCase
	for _, w := range workloads.All() {
		cases = append(cases, streamCase{name: w.Name, params: w.Params, records: 200_000})
	}
	qmm := workloads.QMM()
	for _, i := range []int{0, 9, 18, 26, 35, 44} {
		cases = append(cases, streamCase{name: qmm[i].Name + "/2.5M", params: qmm[i].Params, records: 2_500_000})
	}
	custom := func(name string, edit func(p *trace.ServerParams)) {
		p := qmm[0].Params
		edit(&p)
		cases = append(cases, streamCase{name: "custom/" + name, params: p, records: 200_000})
	}
	custom("phase-5000", func(p *trace.ServerParams) { p.PhaseLen = 5_000 })
	custom("data-pages-1", func(p *trace.ServerParams) { p.DataPages = 1 })
	custom("zipf-s-1", func(p *trace.ServerParams) { p.DataZipfS = 1 })
	custom("zipf-s-0", func(p *trace.ServerParams) { p.DataZipfS = 0 })
	custom("zipf-s-1.01", func(p *trace.ServerParams) { p.DataZipfS = 1.01 })
	return cases
}

// streamDigest hashes the first n records of a fresh generator, each as its
// PC, load and store addresses in little-endian order.
func streamDigest(p trace.ServerParams, n int) string {
	g := trace.NewServerGenerator(p)
	h := sha256.New()
	buf := make([]trace.Record, 4096)
	raw := make([]byte, 0, 24*len(buf))
	for n > 0 {
		b := buf[:min(n, len(buf))]
		if k, err := g.NextBatch(b); err != nil || k != len(b) {
			panic(fmt.Sprintf("NextBatch(%d) = %d, %v", len(b), k, err))
		}
		raw = raw[:0]
		for _, r := range b {
			raw = binary.LittleEndian.AppendUint64(raw, uint64(r.PC))
			raw = binary.LittleEndian.AppendUint64(raw, uint64(r.Load))
			raw = binary.LittleEndian.AppendUint64(raw, uint64(r.Store))
		}
		h.Write(raw)
		n -= len(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStreamGolden pins the generator's record streams, as data, to the
// digests they had when the file was generated, so an optimisation of the
// generator must reproduce every record bit for bit. Regenerate with
// -update-golden only for an intended change to the synthetic workloads.
func TestStreamGolden(t *testing.T) {
	path := filepath.Join("testdata", "stream_golden.json")
	want := map[string]streamEntry{}
	if !*updateGolden {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
		}
		var entries []streamEntry
		if err := json.Unmarshal(raw, &entries); err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			want[e.Case] = e
		}
	}
	cases := streamCases()
	got := make([]streamEntry, len(cases))
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got[i] = streamEntry{Case: c.name, Records: c.records, SHA256: streamDigest(c.params, c.records)}
			if w, ok := want[c.name]; !*updateGolden && got[i] != w {
				t.Errorf("stream drifted from the golden file (present=%v):\n got  %+v\n want %+v", ok, got[i], w)
			}
		})
	}
	if !*updateGolden {
		if len(want) != len(cases) {
			t.Errorf("golden file holds %d cases, the test enumerates %d", len(want), len(cases))
		}
		return
	}
	for _, e := range got {
		if e.Case == "" {
			t.Fatal("not writing the golden file: -update-golden needs every case to run (no -run filter on subtests)")
		}
	}
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d cases to %s", len(got), path)
}

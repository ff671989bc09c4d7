package spans

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Now() != 0 || r.Len() != 0 {
		t.Fatal("nil recorder leaked state")
	}
	sp := r.Start("t", "execute")
	if sp != nil {
		t.Fatal("nil recorder Start returned non-nil handle")
	}
	// The whole chain must be a no-op, not a panic.
	sp.Attr("k", "v").AttrInt("n", 1).End()
	r.Record(Span{TraceID: "t", Name: "x"})
	if got := r.Spans(); got != nil {
		t.Fatalf("nil recorder Spans = %v, want nil", got)
	}
}

func TestRecorderStartEnd(t *testing.T) {
	r := NewRecorder("w1")
	sp := r.Start("trace-a", "execute").Attr("source", "run").AttrInt("slices", 8)
	time.Sleep(time.Millisecond)
	sp.End()
	ss := r.Spans()
	if len(ss) != 1 {
		t.Fatalf("got %d spans, want 1", len(ss))
	}
	s := ss[0]
	if s.TraceID != "trace-a" || s.Name != "execute" || s.Worker != "w1" {
		t.Fatalf("bad span identity: %+v", s)
	}
	if s.StartNS < 0 || s.DurNS <= 0 {
		t.Fatalf("non-monotonic span times: start=%d dur=%d", s.StartNS, s.DurNS)
	}
	if s.Attrs["source"] != "run" || s.Attrs["slices"] != "8" {
		t.Fatalf("attrs not recorded: %v", s.Attrs)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder("w")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sp := r.Start("t", "phase")
				sp.Attr("k", "v")
				sp.End()
			}
		}()
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Fatalf("got %d spans, want 800", r.Len())
	}
}

func TestSpansDeterministicOrder(t *testing.T) {
	r := NewRecorder("w")
	r.Record(Span{TraceID: "b", Name: "n", StartNS: 10})
	r.Record(Span{TraceID: "a", Name: "n", StartNS: 10})
	r.Record(Span{TraceID: "c", Name: "n", StartNS: 5})
	got := r.Spans()
	want := []string{"c", "a", "b"}
	for i, s := range got {
		if s.TraceID != want[i] {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := []Span{
		{TraceID: "t1", Name: "execute", Worker: "w1", StartNS: 1, DurNS: 2, Attrs: map[string]string{"a": "b"}},
		{TraceID: "t2", Name: "lease", Worker: "coordinator", StartNS: 3, DurNS: 4},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in %+v\nout %+v", in, out)
	}
}

// Golden Chrome trace-event export: a fixed span set must serialize to this
// exact document. Guards the Perfetto-facing contract — event phase codes,
// microsecond timestamps, pid/tid mapping, metadata records.
func TestChromeTraceGolden(t *testing.T) {
	ss := []Span{
		{TraceID: "aabbccddeeff00112233", Name: "execute", Worker: "w1", StartNS: 1_500_000, DurNS: 2_000_000,
			Attrs: map[string]string{"source": "run"}},
		{TraceID: "aabbccddeeff00112233", Name: "sample.fastforward", Worker: "w1", StartNS: 1_600_000, DurNS: 500_000},
		{TraceID: "aabbccddeeff00112233", Name: "lease", Worker: "coordinator", StartNS: 1_000_000, DurNS: 3_000_000},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, ss); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"coordinator"}},` +
		`{"name":"process_name","ph":"M","ts":0,"pid":2,"tid":0,"args":{"name":"w1"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":2,"tid":1,"args":{"name":"job aabbccddeeff"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"job aabbccddeeff"}},` +
		`{"name":"execute","cat":"execute","ph":"X","ts":1500,"dur":2000,"pid":2,"tid":1,"args":{"source":"run","trace_id":"aabbccddeeff00112233"}},` +
		`{"name":"sample.fastforward","cat":"sample","ph":"X","ts":1600,"dur":500,"pid":2,"tid":1,"args":{"trace_id":"aabbccddeeff00112233"}},` +
		`{"name":"lease","cat":"lease","ph":"X","ts":1000,"dur":3000,"pid":1,"tid":1,"args":{"trace_id":"aabbccddeeff00112233"}}` +
		`],"displayTimeUnit":"ms"}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("golden mismatch:\n got %s\nwant %s", got, want)
	}
	// And it must be valid JSON of the expected shape.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("got %d events, want 7", len(doc.TraceEvents))
	}
}

func TestWriteFileByExtension(t *testing.T) {
	dir := t.TempDir()
	ss := []Span{{TraceID: "t", Name: "execute", Worker: "w", StartNS: 1, DurNS: 2}}

	jp := filepath.Join(dir, "trace.jsonl")
	if err := WriteFile(jp, ss); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), `{"trace_id":"t"`) {
		t.Fatalf(".jsonl output is not JSONL: %q", b)
	}

	cp := filepath.Join(dir, "trace.json")
	if err := WriteFile(cp, ss); err != nil {
		t.Fatal(err)
	}
	b, err = os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"traceEvents"`) {
		t.Fatalf(".json output is not a Chrome trace: %q", b)
	}
}

package runner

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"morrigan/internal/telemetry"
)

// recordingObserver captures the hook sequence under the race detector.
type recordingObserver struct {
	mu       sync.Mutex
	total    int
	started  map[int]string
	probes   map[int]*telemetry.Probe
	finished map[int]Result
}

func newRecordingObserver() *recordingObserver {
	return &recordingObserver{
		started:  map[int]string{},
		probes:   map[int]*telemetry.Probe{},
		finished: map[int]Result{},
	}
}

func (o *recordingObserver) CampaignStarted(total int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.total = total
}

func (o *recordingObserver) JobStarted(index int, job Job, probe *telemetry.Probe) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.started[index] = job.Name()
	o.probes[index] = probe
}

func (o *recordingObserver) JobFinished(index int, res Result) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.finished[index] = res
}

// TestObserverHooks checks the Observer sees every job exactly once, with a
// live probe even when telemetry collection is off, and that an observer-only
// campaign still fills the throughput accounting.
func TestObserverHooks(t *testing.T) {
	jobs := testJobs(4)
	obs := newRecordingObserver()
	results, err := Run(context.Background(), jobs, Options{Workers: 2, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}

	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.total != len(jobs) {
		t.Errorf("CampaignStarted(%d), want %d", obs.total, len(jobs))
	}
	for i, j := range jobs {
		if obs.started[i] != j.Name() {
			t.Errorf("job %d: started as %q, want %q", i, obs.started[i], j.Name())
		}
		if obs.probes[i] == nil {
			t.Errorf("job %d: JobStarted got a nil probe", i)
		}
		fin, ok := obs.finished[i]
		if !ok {
			t.Errorf("job %d: JobFinished never fired", i)
			continue
		}
		if fin.Err != nil {
			t.Errorf("job %d: finished with error %v", i, fin.Err)
		}
		if want := j.Warmup + j.Measure; fin.SimInstructions != want {
			t.Errorf("job %d: SimInstructions %d, want %d", i, fin.SimInstructions, want)
		}
		if fin.InstrPerSec <= 0 {
			t.Errorf("job %d: InstrPerSec %g, want > 0", i, fin.InstrPerSec)
		}
		if fin.PeakHeapBytes == 0 {
			t.Errorf("job %d: PeakHeapBytes 0", i)
		}
		if res := results[i]; res.SimInstructions != fin.SimInstructions {
			t.Errorf("job %d: result/observer instruction mismatch: %d vs %d",
				i, res.SimInstructions, fin.SimInstructions)
		}
	}
}

// TestObserverDoesNotChangeStats is the runner-level purity check: attaching
// an observer must leave every job's statistics bit-identical.
func TestObserverDoesNotChangeStats(t *testing.T) {
	jobs := testJobs(4)
	plain, err := Run(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := Run(context.Background(), jobs, Options{Workers: 2, Observer: newRecordingObserver()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if !reflect.DeepEqual(plain[i].Stats, observed[i].Stats) {
			t.Errorf("job %d: stats differ with an observer attached", i)
		}
	}
}

// TestRecordCarriesThroughput checks the satellite fields survive into the
// JSON and CSV result schemas.
func TestRecordCarriesThroughput(t *testing.T) {
	res := Result{
		Job:             Job{Experiment: "e", Config: "c", Workload: "w", Warmup: 1, Measure: 2},
		SimInstructions: 12345,
		InstrPerSec:     678.9,
		PeakHeapBytes:   4096,
	}
	rec := NewRecord(res)
	if rec.SimInstructions != 12345 || rec.InstrPerSec != 678.9 || rec.PeakHeapBytes != 4096 {
		t.Errorf("record dropped throughput fields: %+v", rec)
	}

	c := Campaign{Schema: SchemaVersion, Records: []Record{rec}}
	var csvBuf strings.Builder
	if err := c.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines: %d", len(lines))
	}
	header := strings.Split(lines[0], ",")
	row := strings.Split(lines[1], ",")
	for want, val := range map[string]string{
		"sim_instructions": "12345",
		"instr_per_sec":    "679",
		"peak_heap_bytes":  "4096",
	} {
		col := -1
		for i, h := range header {
			if h == want {
				col = i
				break
			}
		}
		if col < 0 {
			t.Errorf("csv header missing %q: %v", want, header)
			continue
		}
		if row[col] != val {
			t.Errorf("csv %s = %q, want %q", want, row[col], val)
		}
	}
}

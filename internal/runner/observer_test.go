package runner

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"morrigan/internal/sim"
)

// recordingObserver captures the hook sequence under the race detector.
type recordingObserver struct {
	mu       sync.Mutex
	total    int
	calls    map[int][]string // per job, "started", "progress" or "finished" in call order
	started  map[int]string
	executed map[int][]uint64 // per job, the executed total of every JobProgress
	finished map[int]Result
}

func newRecordingObserver() *recordingObserver {
	return &recordingObserver{
		calls:    map[int][]string{},
		started:  map[int]string{},
		executed: map[int][]uint64{},
		finished: map[int]Result{},
	}
}

func (o *recordingObserver) CampaignStarted(total int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.total = total
}

func (o *recordingObserver) JobStarted(index int, job Job) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.calls[index] = append(o.calls[index], "started")
	o.started[index] = job.Name()
}

func (o *recordingObserver) JobProgress(index int, p sim.Progress) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.calls[index] = append(o.calls[index], "progress")
	o.executed[index] = append(o.executed[index], p.Executed)
}

func (o *recordingObserver) JobFinished(index int, res Result) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.calls[index] = append(o.calls[index], "finished")
	o.finished[index] = res
}

// observedJobs is a small campaign of full-run jobs plus one sampled job.
func observedJobs() []Job { return append(testJobs(4), sampledTestJob()) }

// TestObserverHooks checks the Observer sees every job, full or sampled,
// start once, report non-decreasing executed totals that end at the result's
// SimInstructions, and finish once; and that an observer-only campaign still
// fills the throughput accounting.
func TestObserverHooks(t *testing.T) {
	jobs := observedJobs()
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
		calls := obs.calls[i]
		if n := len(calls); n < 3 || calls[0] != "started" || calls[n-1] != "finished" ||
			slices.Contains(calls[1:n-1], "started") || slices.Contains(calls[1:n-1], "finished") {
			t.Errorf("job %d: hook sequence %v, want started, progress..., finished", i, calls)
		}
		fin, ok := obs.finished[i]
		if !ok {
			t.Errorf("job %d: JobFinished never fired", i)
			continue
		}
		if fin.Err != nil {
			t.Errorf("job %d: finished with error %v", i, fin.Err)
		}
		executed := obs.executed[i]
		if !slices.IsSorted(executed) {
			t.Errorf("job %d: executed totals decreased: %v", i, executed)
		}
		if n := len(executed); n == 0 || executed[n-1] != fin.SimInstructions {
			t.Errorf("job %d: last executed total of %v, want the result's %d", i, executed, fin.SimInstructions)
		}
		if j.Sampling == nil {
			if want := j.Warmup + j.Measure; fin.SimInstructions != want {
				t.Errorf("job %d: SimInstructions %d, want %d", i, fin.SimInstructions, want)
			}
		} else if fin.Sampling == nil || fin.SimInstructions != fin.Sampling.TimedInstructions {
			t.Errorf("job %d: sampled result %+v, want SimInstructions equal to its timed instructions", i, fin.Sampling)
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
// an observer must leave every job's statistics, sampled ones included,
// bit-identical.
func TestObserverDoesNotChangeStats(t *testing.T) {
	jobs := observedJobs()
	plain, err := Run(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := Run(context.Background(), jobs, Options{Workers: 2, Observer: newRecordingObserver()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if !reflect.DeepEqual(plain[i].Stats, observed[i].Stats) || !reflect.DeepEqual(plain[i].Sampling, observed[i].Sampling) {
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

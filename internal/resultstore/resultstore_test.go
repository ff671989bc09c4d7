package resultstore

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"morrigan/internal/machine"
	"morrigan/internal/runner"
	"morrigan/internal/sampling"
	"morrigan/internal/sim"
	"morrigan/internal/workloads"
)

// testResult fabricates a completed keyed result without simulating.
func testResult(t testing.TB, i int) (string, runner.Result) {
	t.Helper()
	qmm := workloads.QMM()
	j := runner.Job{
		Experiment: "test",
		Config:     "cfg",
		Workload:   qmm[i%len(qmm)].Name,
		Machine:    machine.Default(),
		Workloads:  []workloads.Spec{qmm[i%len(qmm)]},
		Warmup:     1_000,
		Measure:    uint64(10_000 + i),
	}
	key, ok := j.Key()
	if !ok {
		t.Fatal("test job has no key")
	}
	return key, runner.Result{Job: j, Stats: sim.Stats{Instructions: uint64(i + 1), ISTLBMisses: uint64(i + 2)}}
}

func TestStorePutLookupReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		key, res := testResult(t, i)
		keys[i] = key
		if err := s.Put(key, res); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}

	// A fresh open must verify and index everything from disk alone.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != n || re.Skipped() != 0 {
		t.Fatalf("reopened Len = %d Skipped = %d, want %d/0", re.Len(), re.Skipped(), n)
	}
	for i, key := range keys {
		st, ok := re.Lookup(key)
		if !ok {
			t.Fatalf("key %d missing after reopen", i)
		}
		_, want := testResult(t, i)
		if !reflect.DeepEqual(st.Stats, want.Stats) {
			t.Errorf("key %d: stats differ after reopen", i)
		}
		rec, ok := re.Get(key)
		if !ok || rec.Key != key || rec.Experiment != "test" {
			t.Errorf("key %d: Get returned %+v", i, rec)
		}
	}
}

func TestStoreRejectsFailedAndUnkeyed(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, res := testResult(t, 0)
	res.Err = context.Canceled
	if err := s.Put(key, res); err == nil {
		t.Fatal("Put accepted a failed result")
	}
	if s.Len() != 0 {
		t.Fatal("failed result was stored")
	}
	// A key that does not derive from the result's components must be
	// rejected — it would be unverifiable on the next open.
	_, other := testResult(t, 1)
	if err := s.Put(key, other); err == nil {
		t.Fatal("Put accepted a key that does not derive from the result")
	}
	if s.Len() != 0 {
		t.Fatal("mismatched-key result was stored")
	}
}

func TestStoreFirstWriteWins(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, res := testResult(t, 0)
	if err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}
	// Equal duplicate: a no-op.
	if err := s.Put(key, res); err != nil {
		t.Fatalf("equal duplicate put: %v", err)
	}
	// Differing duplicate: an error, and the stored stats must not change.
	diff := res
	diff.Stats.Instructions += 99
	if err := s.Put(key, diff); err == nil {
		t.Fatal("differing duplicate put succeeded")
	}
	st, _ := s.Lookup(key)
	if !reflect.DeepEqual(st.Stats, res.Stats) {
		t.Fatal("stored stats changed under a rejected duplicate")
	}
}

func TestStoreConcurrentPuts(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, res := testResult(t, 0)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = s.Put(key, res)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("put %d: %v", g, err)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

// TestStoreSkipsDamagedRecords: corrupted files are skipped on open (counted
// in Skipped) and removed by Compact, and a hand-edited record whose stats
// were tampered with fails its checksum rather than serving wrong results.
func TestStoreSkipsDamagedRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var victim string
	for i := 0; i < 3; i++ {
		key, res := testResult(t, i)
		if err := s.Put(key, res); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			victim = filepath.Join(dir, key[:2], key+".json")
		}
	}
	// Tamper: flip a byte inside the record payload.
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(raw), `"experiment":"test"`, `"experiment":"best"`, 1)
	if tampered == string(raw) {
		t.Fatal("tamper target not found")
	}
	if err := os.WriteFile(victim, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	// Add a stray temp file from a hypothetical interrupted put.
	stray := filepath.Join(filepath.Dir(victim), ".put-stray")
	if err := os.WriteFile(stray, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 || re.Skipped() != 1 {
		t.Fatalf("Len = %d Skipped = %d, want 2/1", re.Len(), re.Skipped())
	}
	removed, err := re.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 { // the tampered record and the stray temp file
		t.Fatalf("Compact removed %d files, want 2", removed)
	}
	if re.Len() != 2 || re.Skipped() != 0 {
		t.Fatalf("after Compact: Len = %d Skipped = %d, want 2/0", re.Len(), re.Skipped())
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Error("Compact left the stray temp file")
	}
}

// TestStoreReclaimable: the dry-run view of Compact reports exactly the
// files Compact would remove — and removes nothing itself.
func TestStoreReclaimable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var victim string
	for i := 0; i < 3; i++ {
		key, res := testResult(t, i)
		if err := s.Put(key, res); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			victim = filepath.Join(dir, key[:2], key+".json")
		}
	}
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(raw), `"experiment":"test"`, `"experiment":"best"`, 1)
	if err := os.WriteFile(victim, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(filepath.Dir(victim), ".put-stray")
	if err := os.WriteFile(stray, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := re.Reclaimable()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 { // the tampered record and the stray temp file
		t.Fatalf("Reclaimable reported %d files (%v), want 2", len(paths), paths)
	}
	for _, p := range paths {
		if _, err := os.Stat(filepath.Join(dir, p)); err != nil {
			t.Errorf("Reclaimable removed or misreported %s: %v", p, err)
		}
	}
	if re.Len() != 2 {
		t.Fatalf("Len = %d after dry run, want 2 untouched", re.Len())
	}
	removed, err := re.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if removed != len(paths) {
		t.Errorf("Compact removed %d files, want the %d Reclaimable reported", removed, len(paths))
	}
}

// TestStoreServesCampaign is the runner integration: a campaign backed by a
// store simulates once; a second campaign over the same jobs (fresh process
// simulated by reopening the store) reuses everything with Reused == "store"
// and bit-identical stats.
func TestStoreServesCampaign(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	qmm := workloads.QMM()
	jobs := make([]runner.Job, 3)
	for i := range jobs {
		jobs[i] = runner.Job{
			Experiment: "itest",
			Workload:   qmm[i].Name,
			Machine:    machine.Default(),
			Workloads:  []workloads.Spec{qmm[i]},
			Warmup:     2_000,
			Measure:    10_000,
		}
	}
	first, err := runner.Run(context.Background(), jobs, runner.Options{Workers: 2, Store: s})
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i].Reused != "" {
			t.Fatalf("job %d reused on a cold store", i)
		}
	}
	if s.Len() != len(jobs) {
		t.Fatalf("store holds %d results, want %d", s.Len(), len(jobs))
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	second, err := runner.Run(context.Background(), jobs, runner.Options{Workers: 2, Store: re})
	if err != nil {
		t.Fatal(err)
	}
	for i := range second {
		if second[i].Reused != runner.ReusedStore {
			t.Errorf("job %d: Reused = %q, want %q", i, second[i].Reused, runner.ReusedStore)
		}
		if !reflect.DeepEqual(first[i].Stats, second[i].Stats) {
			t.Errorf("job %d: store-served stats differ from the original run", i)
		}
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

// TestJournalAndStoreWriteOneRecord writes one sampled result through the
// checkpoint journal and the result store: the journal line must be the
// store's record bytes with "kind" as the first field, and both layers must
// read back the same payload.
func TestJournalAndStoreWriteOneRecord(t *testing.T) {
	_, res := testResult(t, 0)
	pol := sampling.DefaultPolicy()
	res.Job.Sampling = &pol
	res.Sampling = &sampling.Outcome{Policy: pol, Intervals: 10, Slices: 3, TimedInstructions: 1234}
	key, _ := res.Job.Key()

	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal")
	jn, err := runner.OpenJournal(jpath, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.Append(res); err != nil {
		t.Fatal(err)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("journal holds %d lines, want a header and one record", len(lines))
	}
	raw, err = os.ReadFile(filepath.Join(dir, "store", key[:2], key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(`{"kind":"result",`), env.Record[1:]...)
	if !bytes.Equal(lines[1], want) {
		t.Errorf("journal and store records differ:\n journal: %s\n store:   %s", lines[1], env.Record)
	}

	jn, err = runner.OpenJournal(jpath, true)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	fromJournal, ok := jn.Lookup(key)
	if !ok {
		t.Fatal("journal did not reload its record")
	}
	fromStore, _ := s.Lookup(key)
	if !reflect.DeepEqual(fromJournal, fromStore) || fromStore.Stats != res.Stats || *fromStore.Sampling != *res.Sampling {
		t.Errorf("payloads differ: journal %+v, store %+v, put %+v", fromJournal, fromStore, res)
	}
}

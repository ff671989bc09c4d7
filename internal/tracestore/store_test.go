package tracestore

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

// testSpec returns a small-footprint workload with a distinct seed so
// per-test corpora do not collide on content.
func testSpec(seed int64) workloads.Spec {
	s := workloads.QMM()[0]
	s.Params.Seed = seed
	return s
}

// containerFiles lists the .mtc files in dir.
func containerFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".mtc") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestStoreMaterializeAndReuse checks build-on-miss, in-process reuse, and
// reuse from the manifest by a later store on the same directory.
func TestStoreMaterializeAndReuse(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(101)
	s, err := Open(Options{Dir: dir, ChunkRecords: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	c1, err := s.Materialize(spec, 3000)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if c1.Records() != 3000 {
		t.Fatalf("Records = %d, want 3000", c1.Records())
	}
	if c1.Workload() != spec.Name {
		t.Fatalf("Workload = %q, want %q", c1.Workload(), spec.Name)
	}
	c2, err := s.Materialize(spec, 2000)
	if err != nil {
		t.Fatalf("second Materialize: %v", err)
	}
	if c1 != c2 {
		t.Fatalf("second Materialize returned a different corpus")
	}
	files := containerFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("store holds %d containers, want 1: %v", len(files), files)
	}
	before, err := os.Stat(filepath.Join(dir, files[0]))
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A fresh store on the same directory must reuse the container via the
	// manifest, not rebuild it.
	s2, err := Open(Options{Dir: dir, ChunkRecords: 512})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	c3, err := s2.Materialize(spec, 3000)
	if err != nil {
		t.Fatalf("Materialize after reopen: %v", err)
	}
	if c3.Records() != 3000 {
		t.Fatalf("reopened Records = %d, want 3000", c3.Records())
	}
	after, err := os.Stat(filepath.Join(dir, files[0]))
	if err != nil {
		t.Fatalf("Stat after reopen: %v", err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Fatalf("container rebuilt on reopen (mtime %v -> %v)", before.ModTime(), after.ModTime())
	}
}

// TestStoreRebuildOnLongerRequest checks a request exceeding the stored
// record count triggers a rebuild at the new length.
func TestStoreRebuildOnLongerRequest(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(202)
	s, err := Open(Options{Dir: dir, ChunkRecords: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if _, err := s.Materialize(spec, 1000); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	c, err := s.Materialize(spec, 4000)
	if err != nil {
		t.Fatalf("longer Materialize: %v", err)
	}
	if c.Records() != 4000 {
		t.Fatalf("Records after rebuild = %d, want 4000", c.Records())
	}
	e, ok := s.Manifest().Entries[spec.Hash()]
	if !ok || e.Records != 4000 {
		t.Fatalf("manifest entry = %+v, want 4000 records", e)
	}
}

// TestStoreCloseClosesSuperseded checks that a corpus replaced by a longer
// build stays readable for its existing readers, and that Store.Close
// closes its file along with the current one.
func TestStoreCloseClosesSuperseded(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), ChunkRecords: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	short, err := s.Materialize(testSpec(808), 2000)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	long, err := s.Materialize(testSpec(808), 5000)
	if err != nil {
		t.Fatalf("longer Materialize: %v", err)
	}
	if long == short {
		t.Fatal("longer Materialize returned the shorter corpus")
	}
	if err := short.Verify(); err != nil {
		t.Fatalf("superseded corpus unreadable before Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for name, c := range map[string]*Corpus{"superseded": short, "current": long} {
		if _, err := c.src.ReadAt(make([]byte, 1), 0); !errors.Is(err, os.ErrClosed) {
			t.Errorf("%s corpus ReadAt after Close = %v, want os.ErrClosed", name, err)
		}
	}
}

// TestStoreParameterInvalidation checks that changing a generator parameter
// produces a distinct corpus instead of reusing the stale one.
func TestStoreParameterInvalidation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, ChunkRecords: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	a := testSpec(303)
	b := a
	b.Params.SeqFrac += 0.01
	if a.Hash() == b.Hash() {
		t.Fatalf("parameter change did not change the hash")
	}
	ca, err := s.Materialize(a, 1000)
	if err != nil {
		t.Fatalf("Materialize(a): %v", err)
	}
	cb, err := s.Materialize(b, 1000)
	if err != nil {
		t.Fatalf("Materialize(b): %v", err)
	}
	if ca == cb {
		t.Fatalf("different parameters shared a corpus")
	}
	if got := containerFiles(t, dir); len(got) != 2 {
		t.Fatalf("store holds %d containers, want 2: %v", len(got), got)
	}
	// The name is display-only: a renamed spec with identical parameters
	// shares the container.
	renamed := a
	renamed.Name = "renamed"
	cr, err := s.Materialize(renamed, 1000)
	if err != nil {
		t.Fatalf("Materialize(renamed): %v", err)
	}
	if cr != ca {
		t.Fatalf("identical parameters under a new name rebuilt the corpus")
	}
}

// TestStoreConcurrentMaterialize checks concurrent calls for one workload
// share a single build.
func TestStoreConcurrentMaterialize(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(404)
	s, err := Open(Options{Dir: dir, ChunkRecords: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	const goroutines = 8
	got := make([]*Corpus, goroutines)
	errs := make([]error, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g], errs[g] = s.Materialize(spec, 3000)
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if got[g] != got[0] {
			t.Fatalf("goroutine %d got a different corpus", g)
		}
	}
	if files := containerFiles(t, dir); len(files) != 1 {
		t.Fatalf("concurrent Materialize built %d containers, want 1: %v", len(files), files)
	}
}

// TestStoreDamagedContainerRebuilds checks a manifest entry pointing at a
// corrupt container is invalidated and rebuilt instead of failing forever.
func TestStoreDamagedContainerRebuilds(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(505)
	s, err := Open(Options{Dir: dir, ChunkRecords: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := s.Materialize(spec, 1000); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	s.Close()
	files := containerFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("want 1 container, got %v", files)
	}
	// Truncate the container.
	path := filepath.Join(dir, files[0])
	if err := os.Truncate(path, 10); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	s2, err := Open(Options{Dir: dir, ChunkRecords: 512})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	c, err := s2.Materialize(spec, 1000)
	if err != nil {
		t.Fatalf("Materialize over damaged container: %v", err)
	}
	if c.Records() != 1000 {
		t.Fatalf("rebuilt Records = %d, want 1000", c.Records())
	}
	if err := c.Verify(); err != nil {
		t.Fatalf("rebuilt container Verify: %v", err)
	}
}

// TestStoreOldFormatRebuilds checks that a manifest entry naming a container
// of an older format version is rebuilt on first use, as stores written
// before the current version are, at the entry's record count even when the
// first request is shorter, and that the old file does not open on its own.
func TestStoreOldFormatRebuilds(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(606)
	const records = 3000
	s, err := Open(Options{Dir: dir, ChunkRecords: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := s.Materialize(spec, records); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	s.Close()
	files := containerFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("want 1 container, got %v", files)
	}
	path := filepath.Join(dir, files[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	data[4] = 1 // header version byte
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := OpenFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenFile of a version-1 container = %v, want ErrCorrupt", err)
	}

	s2, err := Open(Options{Dir: dir, ChunkRecords: 512})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	c, err := s2.Materialize(spec, records/3)
	if err != nil {
		t.Fatalf("Materialize over a version-1 container: %v", err)
	}
	if c.Records() != records {
		t.Fatalf("rebuilt corpus holds %d records, want the old entry's %d", c.Records(), records)
	}
	if e := s2.Manifest().Entries[spec.Hash()]; e.Records != records {
		t.Fatalf("manifest entry holds %d records after the rebuild, want %d", e.Records, records)
	}
	rebuilt, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile after Materialize: %v", err)
	}
	if rebuilt[4] != formatVersion {
		t.Fatalf("container has version %d after Materialize, want %d", rebuilt[4], formatVersion)
	}
	if err := c.Verify(); err != nil {
		t.Fatalf("rebuilt container Verify: %v", err)
	}
	want, err := trace.Slice(spec.NewReader(), records)
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	r := c.NewReader()
	defer r.Close()
	got, err := trace.Slice(r, records+1)
	if err != nil {
		t.Fatalf("reading rebuilt corpus: %v", err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("rebuilt corpus streams %d records that differ from the generator's %d", len(got), len(want))
	}
}

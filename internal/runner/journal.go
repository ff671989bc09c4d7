package runner

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// JournalSchemaVersion identifies the checkpoint-journal file format.
const JournalSchemaVersion = 1

// syncWriter is the journal's durable byte sink: an *os.File in production,
// an injected failing implementation in the write/sync error-path tests.
type syncWriter interface {
	io.Writer
	Sync() error
}

// Journal is the crash-safe campaign checkpoint: an append-only JSONL file
// of completed JobKey → Stats records. Every append is durable before Append
// returns — the record's bytes are written and fsynced — so at any kill
// point the file is a valid journal plus at most one torn trailing line,
// which resume tolerates by truncating it. Keys are re-derived from each
// record's stored components on load, so a record whose key no longer
// matches (a spec-hash or key-derivation version bump, or hand-edited
// components) is discarded and its job simply re-runs.
//
// Concurrent appends group-commit: each caller marshals and dedup-checks its
// own record under the index lock, stages the bytes into the open batch, and
// the first caller to reach the commit lock writes and fsyncs the whole
// batch with a single write+sync. A campaign's worker pool therefore pays
// ~one fsync per batch of concurrently finishing jobs instead of one fsync
// per job, without weakening durability: Append still does not return until
// the batch holding its record has been synced.
//
// A Journal only ever stores succeeded, data-identified jobs: failed jobs,
// instrumented jobs and NewThreads jobs are skipped (see Job.Key). It is
// safe for concurrent use by the campaign worker pool.
type Journal struct {
	// mu guards seen, batch and err. It is never held across file I/O.
	mu    sync.Mutex
	seen  map[string]Stored
	batch *journalBatch
	err   error // sticky first write/sync failure, for Writable

	// commitMu serializes batch commits; the holder is the only goroutine
	// writing to w.
	commitMu sync.Mutex

	w    syncWriter
	f    *os.File // same object as w in production; kept for Close/Truncate
	path string
}

// journalBatch is one group-commit unit: the staged bytes of one or more
// records plus the keys they cover, resolved all-or-nothing by the first
// staging goroutine to reach the commit lock.
type journalBatch struct {
	buf  []byte
	keys []string
	done chan struct{}
	err  error
}

// journalHeader is the file's first line.
type journalHeader struct {
	Kind   string `json:"kind"`
	Schema int    `json:"schema"`
}

// journalRecord is one completed job: a StoredRecord behind the line's kind.
type journalRecord struct {
	Kind string `json:"kind"`
	StoredRecord
}

// OpenJournal opens the checkpoint journal at path. With resume false the
// file is truncated and a fresh header written — the campaign starts from
// nothing. With resume true, existing records are loaded (after key
// verification) so the campaign skips already-completed jobs; a torn final
// line from a killed run is cut off before appending resumes.
func OpenJournal(path string, resume bool) (*Journal, error) {
	j := &Journal{path: path, seen: make(map[string]Stored)}
	if !resume {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, fmt.Errorf("runner: journal: %w", err)
		}
		j.f, j.w = f, f
		if err := j.writeHeader(); err != nil {
			f.Close()
			return nil, err
		}
		return j, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: journal: %w", err)
	}
	j.f, j.w = f, f
	valid, err := j.load()
	if err != nil {
		f.Close()
		return nil, err
	}
	// Cut the torn tail (or any trailing corruption) so appends extend a
	// well-formed journal, then continue from there.
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("runner: journal: truncating tail: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("runner: journal: %w", err)
	}
	if valid == 0 {
		if err := j.writeHeader(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// writeHeader emits and fsyncs the header line.
func (j *Journal) writeHeader() error {
	b, err := json.Marshal(journalHeader{Kind: "header", Schema: JournalSchemaVersion})
	if err != nil {
		return fmt.Errorf("runner: journal: %w", err)
	}
	if _, err := j.w.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("runner: journal: %w", err)
	}
	if err := j.w.Sync(); err != nil {
		return fmt.Errorf("runner: journal: %w", err)
	}
	return nil
}

// load scans the journal from the start, filling seen from verified records,
// and returns the byte offset of the end of the last well-formed line.
// Scanning stops at the first incomplete or unparsable line — everything
// after a corruption point is abandoned, which for the expected failure mode
// (a kill mid-append) is exactly the torn final line.
func (j *Journal) load() (validOffset int64, err error) {
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("runner: journal: %w", err)
	}
	r := bufio.NewReader(j.f)
	var offset int64
	first := true
	for {
		line, rerr := r.ReadString('\n')
		if rerr != nil {
			// EOF with a partial line: the torn tail — stop before it.
			return offset, nil
		}
		if first {
			var h journalHeader
			if json.Unmarshal([]byte(line), &h) != nil || h.Kind != "header" {
				return offset, nil
			}
			if h.Schema != JournalSchemaVersion {
				return 0, fmt.Errorf("runner: journal %s: schema %d, want %d — delete it or run without -resume",
					j.path, h.Schema, JournalSchemaVersion)
			}
			first = false
			offset += int64(len(line))
			continue
		}
		var rec journalRecord
		if json.Unmarshal([]byte(line), &rec) != nil || rec.Kind != "result" {
			return offset, nil
		}
		// A record whose key no longer derives from its components is
		// discarded, so its job re-runs.
		if rec.Verified() {
			j.seen[rec.Key] = rec.Stored()
		}
		offset += int64(len(line))
	}
}

// Append journals one completed job: no-op for failed jobs, jobs without a
// data-only identity, and keys already journaled. The record is durable —
// written and fsynced, possibly as part of a batch with other concurrently
// appended records — before Append returns, so a later crash cannot lose it.
func (j *Journal) Append(res Result) error {
	key, ok := res.Job.Key()
	if !ok || res.Err != nil {
		return nil
	}
	rec := journalRecord{Kind: "result", StoredRecord: NewStoredRecord(key, res)}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("runner: journal: %w", err)
	}

	// Stage: dedup-check and claim the key, then add the line to the open
	// batch, all under the index lock — never across I/O.
	j.mu.Lock()
	if _, dup := j.seen[key]; dup {
		j.mu.Unlock()
		return nil
	}
	j.seen[key] = Stored{Stats: res.Stats, Sampling: res.Sampling}
	batch := j.batch
	if batch == nil {
		batch = &journalBatch{done: make(chan struct{})}
		j.batch = batch
	}
	batch.buf = append(batch.buf, b...)
	batch.buf = append(batch.buf, '\n')
	batch.keys = append(batch.keys, key)
	j.mu.Unlock()

	// Commit: the first stager through commitMu writes and syncs the whole
	// batch (including records staged by others while it waited); later
	// stagers of the same batch find it already resolved and just return
	// its verdict.
	j.commitMu.Lock()
	select {
	case <-batch.done:
		j.commitMu.Unlock()
		return batch.err
	default:
	}
	j.mu.Lock()
	if j.batch == batch {
		j.batch = nil // detach: records staged from here on open a new batch
	}
	j.mu.Unlock()
	_, werr := j.w.Write(batch.buf)
	serr := j.w.Sync()
	err = werr
	if err == nil {
		err = serr
	}
	if err != nil {
		err = fmt.Errorf("runner: journal: %w", err)
		// The batch's records are not durably journaled: un-claim their keys
		// so a retry (or a resumed run) does not believe them checkpointed,
		// and record the failure for Writable.
		j.mu.Lock()
		for _, k := range batch.keys {
			delete(j.seen, k)
		}
		if j.err == nil {
			j.err = err
		}
		j.mu.Unlock()
	}
	batch.err = err
	close(batch.done)
	j.commitMu.Unlock()
	return err
}

// Lookup returns the journaled payload for key, if present.
func (j *Journal) Lookup(key string) (Stored, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	st, ok := j.seen[key]
	return st, ok
}

// Len reports how many completed jobs the journal holds.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.seen)
}

// Writable reports whether the journal can still take checkpoints: nil when
// healthy, the first write/sync failure (or a stat failure on the underlying
// file) otherwise. It is the journal's readiness probe — a campaign whose
// journal has gone read-only is up but should not take on work it cannot
// checkpoint.
func (j *Journal) Writable() error {
	j.mu.Lock()
	err := j.err
	f := j.f
	j.mu.Unlock()
	if err != nil {
		return err
	}
	if f != nil {
		if _, serr := f.Stat(); serr != nil {
			return fmt.Errorf("runner: journal: %w", serr)
		}
	}
	return nil
}

// Close releases the underlying file.
func (j *Journal) Close() error {
	j.commitMu.Lock()
	defer j.commitMu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.f.Close()
}

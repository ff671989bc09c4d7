package tracestore

import (
	"io"

	"morrigan/internal/trace"
)

// DefaultReadAhead is the reader's decode-ahead depth: how many chunks are
// in flight (being fetched from disk, decoded, or waiting decoded) beyond
// the one being consumed. Depth 3 keeps several decodes running
// concurrently, so the consuming simulation thread almost never waits on a
// decode.
const DefaultReadAhead = 3

// Reader streams a corpus in record order. It implements trace.Reader,
// handing out runs of records straight from the decoded chunk.
//
// A Reader pipelines: up to DefaultReadAhead chunk acquisitions run on
// worker goroutines feeding an ordered queue, so decode (or cache lookup)
// overlaps with consumption. A Reader is not safe for concurrent use — each
// simulation thread owns its own — but any number of Readers may stream the
// same Corpus concurrently, sharing decoded chunks through the store cache.
//
// A Reader that will not be drained to io.EOF should be Closed to unpin its
// in-flight chunks from the shared cache; the campaign runner closes the
// readers of every finished job.
type Reader struct {
	c *Corpus

	cur    []trace.Record
	pos    int
	relCur func()

	pending []chan fetched // FIFO of in-flight chunk acquisitions
	issued  int            // next chunk index to schedule
	err     error          // sticky decode error
	closed  bool
}

type fetched struct {
	recs    []trace.Record
	release func()
	err     error
}

var (
	_ trace.Reader = (*Reader)(nil)
	_ io.Closer    = (*Reader)(nil)
)

// NewReader returns a fresh reader positioned at the first record.
func (c *Corpus) NewReader() *Reader {
	r := &Reader{c: c}
	r.fill()
	return r
}

// fill tops the pipeline up to the decode-ahead depth.
func (r *Reader) fill() {
	for r.issued < len(r.c.chunks) && len(r.pending) < DefaultReadAhead {
		i := r.issued
		r.issued++
		ch := make(chan fetched, 1)
		go func() {
			recs, release, err := r.c.acquire(i)
			ch <- fetched{recs: recs, release: release, err: err}
		}()
		r.pending = append(r.pending, ch)
	}
}

// advance releases the consumed chunk and takes the next one off the
// pipeline, returning io.EOF past the last chunk.
func (r *Reader) advance() error {
	if r.relCur != nil {
		r.relCur()
		r.relCur = nil
	}
	r.cur, r.pos = nil, 0
	if len(r.pending) == 0 {
		return io.EOF
	}
	f := <-r.pending[0]
	r.pending = r.pending[1:]
	if f.err != nil {
		r.err = f.err
		return f.err
	}
	r.cur, r.relCur = f.recs, f.release
	r.fill()
	return nil
}

// NextBatch implements trace.Reader: it copies up to len(dst) records and
// returns how many, never mixing records with an error. One call spans at
// most one chunk, so a full dst is the common case and the tail of a chunk
// the rare short read.
func (r *Reader) NextBatch(dst []trace.Record) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	if r.closed {
		return 0, io.EOF
	}
	for r.pos >= len(r.cur) {
		if err := r.advance(); err != nil {
			return 0, err
		}
	}
	n := copy(dst, r.cur[r.pos:])
	r.pos += n
	return n, nil
}

// Close releases the current chunk and drains the pipeline, unpinning every
// in-flight chunk from the shared cache. Further reads return io.EOF.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.relCur != nil {
		r.relCur()
		r.relCur = nil
	}
	r.cur = nil
	for _, ch := range r.pending {
		f := <-ch
		if f.release != nil {
			f.release()
		}
	}
	r.pending = nil
	return nil
}

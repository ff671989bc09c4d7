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
//
// A Reader of a corpus without a cache decodes into buffers of its own:
// it holds at most DefaultReadAhead+1 chunks at once, the one being
// consumed and those in flight, so it makes at most that many pairs of
// record and frame buffers and recycles them as chunks are released;
// once they exist, streaming allocates nothing chunk-sized.
type Reader struct {
	c *Corpus

	cur    []trace.Record
	pos    int
	relCur func()

	pending []chan fetched // FIFO of in-flight chunk acquisitions
	issued  int            // next chunk index to schedule
	err     error          // sticky decode error
	closed  bool

	// free holds the released buffer pairs of a reader without a cache.
	// A pair is made only when free is empty, that is when every pair is
	// held by another of the at most DefaultReadAhead+1 chunks the reader
	// holds, so free has room for every pair and a release never blocks.
	free chan decodeBufs
}

type fetched struct {
	recs    []trace.Record
	release func()
	err     error
}

// decodeBufs is one chunk's worth of decode buffers.
type decodeBufs struct {
	frame []byte
	recs  []trace.Record
}

var (
	_ trace.Reader = (*Reader)(nil)
	_ io.Closer    = (*Reader)(nil)
)

// NewReader returns a fresh reader positioned at the first record.
func (c *Corpus) NewReader() *Reader {
	r := &Reader{c: c}
	if c.cache == nil {
		r.free = make(chan decodeBufs, DefaultReadAhead+1)
	}
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
			recs, release, err := r.acquire(i)
			ch <- fetched{recs: recs, release: release, err: err}
		}()
		r.pending = append(r.pending, ch)
	}
}

// acquire returns chunk i's decoded records and a release function, going
// through the shared cache when the corpus has one and decoding into a
// released pair of the reader's own buffers when it has not.
func (r *Reader) acquire(i int) ([]trace.Record, func(), error) {
	if r.c.cache != nil {
		return r.c.cache.acquire(r.c, i)
	}
	var b decodeBufs
	select {
	case b = <-r.free:
	default: // every pair is held by another chunk: decode makes one
	}
	frame, recs, err := r.c.decode(i, b.frame, b.recs)
	if err != nil {
		r.free <- decodeBufs{frame, b.recs}
		return nil, nil, err
	}
	return recs, func() { r.free <- decodeBufs{frame, recs} }, nil
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

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
// A Reader of a store's corpus is registered with the shared cache from
// NewReader until Close or io.EOF, and the cache keeps the released chunks
// of a corpus larger than its budget only while a registered reader still
// has them ahead. A Reader that will not be drained to io.EOF should
// therefore be Closed, to unpin its in-flight chunks and let go of the
// chunks kept for it; the campaign runner closes the readers of every
// finished job.
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
	// issued is the next chunk index to schedule. For a reader of a cached
	// corpus it is written under the cache's mutex, which reads it to tell
	// which released chunks the reader still has ahead.
	issued int
	err    error // sticky decode error
	closed bool
	joined bool // registered with the corpus's cache

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
	} else {
		c.cache.join(r)
		r.joined = true
	}
	r.fill()
	return r
}

// fill tops the pipeline up to the decode-ahead depth. A chunk of a cached
// corpus is pinned here, on the consuming goroutine, as it is scheduled;
// only its decode, or the wait for another reader's, runs on the worker
// goroutine.
func (r *Reader) fill() {
	for r.issued < len(r.c.chunks) && len(r.pending) < DefaultReadAhead {
		ch := make(chan fetched, 1)
		if cache := r.c.cache; cache != nil {
			e, frame, miss := cache.schedule(r)
			go func() {
				recs, release, err := cache.await(r.c, e, frame, miss)
				ch <- fetched{recs: recs, release: release, err: err}
			}()
		} else {
			i := r.issued
			r.issued++
			go func() {
				recs, release, err := r.decodeOwn(i)
				ch <- fetched{recs: recs, release: release, err: err}
			}()
		}
		r.pending = append(r.pending, ch)
	}
}

// decodeOwn decodes chunk i of a corpus without a cache into a released
// pair of the reader's own buffers and returns a release function that
// hands the pair back.
func (r *Reader) decodeOwn(i int) ([]trace.Record, func(), error) {
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
		r.leave()
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
// in-flight chunk from the shared cache, and deregisters the reader, so
// the cache drops the chunks it kept only for it. Further reads return
// io.EOF.
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
	r.leave()
	return nil
}

// leave deregisters the reader from its corpus's cache, once.
func (r *Reader) leave() {
	if r.joined {
		r.joined = false
		r.c.cache.leave(r)
	}
}

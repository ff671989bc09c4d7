package tracestore

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"morrigan/internal/trace"
)

// Corpus is one open container: the parsed index plus the byte source the
// chunk frames are fetched from. A Corpus is safe for concurrent use — every
// method reads immutable geometry and fetches frames with positioned reads —
// so one Corpus is shared by every job streaming the workload.
type Corpus struct {
	id     uint64
	src    io.ReaderAt
	closer io.Closer

	workload     string
	chunkRecords int
	records      uint64
	chunks       []chunkInfo
	maxFrame     uint64 // the longest frame, the size frame buffers are made at

	// cache, when non-nil, interposes the shared decoded-chunk cache
	// between readers and decodeChunk, and registers every reader of the
	// corpus with it (set by Store; standalone opens decode privately).
	cache *Cache
}

// OpenFile opens a standalone corpus container (no store, no shared cache),
// primarily for inspection tools.
func OpenFile(path string) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	c, err := openCorpus(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	c.closer = f
	return c, nil
}

// OpenBytes opens a corpus container held in memory (tests and fuzzing).
func OpenBytes(data []byte) (*Corpus, error) {
	return openCorpus(bytes.NewReader(data), int64(len(data)))
}

func openCorpus(src io.ReaderAt, size int64) (*Corpus, error) {
	chunkRecords, total, chunks, err := parseContainer(src, size)
	if err != nil {
		return nil, err
	}
	c := &Corpus{src: src, chunkRecords: chunkRecords, records: total, chunks: chunks}
	for _, ci := range chunks {
		c.maxFrame = max(c.maxFrame, ci.size)
	}
	return c, nil
}

// Records returns the total record count.
func (c *Corpus) Records() uint64 { return c.records }

// Chunks returns the chunk count.
func (c *Corpus) Chunks() int { return len(c.chunks) }

// ChunkRecords returns the fixed per-chunk record count.
func (c *Corpus) ChunkRecords() int { return c.chunkRecords }

// Workload returns the workload name the store recorded for this corpus
// (empty for standalone opens).
func (c *Corpus) Workload() string { return c.workload }

// Chunk describes chunk i.
func (c *Corpus) Chunk(i int) ChunkInfo {
	ci := c.chunks[i]
	return ChunkInfo{Offset: ci.offset, Records: ci.records, Bytes: ci.size, CRC32C: ci.crc}
}

// Close releases the underlying file, if the corpus owns one. Readers must
// be drained or closed first.
func (c *Corpus) Close() error {
	if c.closer != nil {
		return c.closer.Close()
	}
	return nil
}

// decode fetches chunk i's frame into frame's backing array, checks it
// against the index's CRC-32C and decodes it into dst's backing array,
// bypassing any cache. The checksum is needed because a damaged frame can
// still decode to the indexed record count and length with wrong records.
// A buffer too small for the chunk is replaced; a fresh frame buffer fits
// every chunk of the corpus, so frames of varying length do not keep
// regrowing it. decode returns the frame buffer it used, for the caller to
// reuse.
func (c *Corpus) decode(i int, frame []byte, dst []trace.Record) ([]byte, []trace.Record, error) {
	ci := c.chunks[i]
	if uint64(cap(frame)) < ci.size {
		frame = make([]byte, c.maxFrame)
	}
	frame = frame[:ci.size]
	if _, err := c.src.ReadAt(frame, ci.offset); err != nil {
		return frame, nil, corrupt("chunk %d: reading frame: %v", i, err)
	}
	if got := crc32.Checksum(frame, castagnoli); got != ci.crc {
		return frame, nil, corrupt("chunk %d: frame checksum %#08x, index says %#08x", i, got, ci.crc)
	}
	if uint64(cap(dst)) < ci.records {
		dst = make([]trace.Record, 0, decodeCap(ci.records))
	}
	recs, err := decodeChunk(frame, ci.records, dst[:0])
	if err != nil {
		return frame, nil, fmt.Errorf("chunk %d: %w", i, err)
	}
	return frame, recs, nil
}

// decodeCap bounds the decode buffer's preallocation: the index's record
// count is untrusted until the frame actually produces that many records, so
// a corrupt index may only demand a modest upfront allocation — append
// growth covers legitimately huge chunks.
func decodeCap(records uint64) uint64 {
	const max = 1 << 18
	if records > max {
		return max
	}
	return records
}

// Verify decodes every chunk, which checks its frame checksum, record count
// and frame length against the index. The chunks share one pair of
// buffers.
func (c *Corpus) Verify() error {
	var frame []byte
	var recs []trace.Record
	for i := range c.chunks {
		var err error
		if frame, recs, err = c.decode(i, frame, recs); err != nil {
			return err
		}
	}
	return nil
}

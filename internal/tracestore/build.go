package tracestore

import (
	"io"

	"morrigan/internal/trace"
)

// BuildOptions configures a container build.
type BuildOptions struct {
	// ChunkRecords is the fixed records-per-chunk (0 = DefaultChunkRecords).
	ChunkRecords int
}

func (o BuildOptions) chunkRecords() int {
	if o.ChunkRecords <= 0 {
		return DefaultChunkRecords
	}
	if o.ChunkRecords > maxChunkRecords {
		return maxChunkRecords
	}
	return o.ChunkRecords
}

// BuildInfo summarises a finished build.
type BuildInfo struct {
	// Records and Chunks are the container's final counts (Records can fall
	// short of the request if the source reader hit io.EOF first).
	Records uint64
	Chunks  int
	// Bytes is the length of the chunk frames: the encoded record stream
	// without header, index and tail.
	Bytes int64
}

// Build drains up to `records` records from src into a corpus container on
// w. The source is stepped on its own goroutine (generators are inherently
// serial) while the caller's goroutine encodes and writes the previous
// chunk, so encoding overlaps generation. Encoding a record costs well
// under half of generating it, so the generator alone bounds build
// throughput.
func Build(w io.Writer, src trace.Reader, records uint64, opt BuildOptions) (BuildInfo, error) {
	chunkRecords := opt.chunkRecords()
	cw, err := newContainerWriter(w, chunkRecords)
	if err != nil {
		return BuildInfo{}, err
	}

	// Producer: step the source into fixed-size chunks. Three chunk buffers
	// circulate between it and the encoder, made as first needed: one
	// generating, one queued in the one-slot channel and one encoding. The
	// encoder hands each back through free once its frame is written, and
	// reuses one frame buffer, so a build allocates nothing chunk-sized
	// after its first three chunks.
	const buffers = 3
	chunks := make(chan []trace.Record, 1)
	free := make(chan []trace.Record, buffers)
	for range buffers {
		free <- nil
	}
	prodErr := make(chan error, 1)
	go func() {
		defer close(chunks)
		var emitted uint64
		for emitted < records {
			n := int(min(uint64(chunkRecords), records-emitted))
			buf := <-free
			if cap(buf) < n {
				buf = make([]trace.Record, n)
			}
			got, err := trace.ReadFull(src, buf[:n])
			if got > 0 {
				chunks <- buf[:got]
				emitted += uint64(got)
			}
			if err != nil {
				prodErr <- err
				return
			}
			if got < n {
				break // source ended early
			}
		}
		prodErr <- nil
	}()

	var info BuildInfo
	var frame []byte
	for recs := range chunks {
		if err == nil { // after a write error, only drain
			var crc uint32
			frame, crc = encodeChunkInto(frame, recs)
			if err = cw.writeFrame(frame, len(recs), crc); err == nil {
				info.Bytes += int64(len(frame))
			}
		}
		free <- recs
	}
	if perr := <-prodErr; err == nil {
		err = perr
	}
	if err != nil {
		return info, err
	}
	if err := cw.finish(); err != nil {
		return info, err
	}
	info.Records = cw.total
	info.Chunks = len(cw.chunks)
	return info, nil
}

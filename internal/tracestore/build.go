package tracestore

import (
	"io"
	"runtime"
	"sync"

	"morrigan/internal/trace"
)

// BuildOptions configures a container build.
type BuildOptions struct {
	// ChunkRecords is the fixed records-per-chunk (0 = DefaultChunkRecords).
	ChunkRecords int
	// Workers bounds the parallel chunk encoders (0 = GOMAXPROCS).
	Workers int
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

func (o BuildOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// BuildInfo summarises a finished build.
type BuildInfo struct {
	// Records and Chunks are the container's final counts (Records can fall
	// short of the request if the source reader hit io.EOF first).
	Records uint64
	Chunks  int
	// CompressedBytes and UncompressedBytes measure the record stream before
	// the index and framing.
	CompressedBytes, UncompressedBytes int64
}

// Build drains up to `records` records from src into a corpus container on
// w. The source is stepped sequentially (generators are inherently serial),
// but chunk encoding — the dominant cost — is fanned out over a worker pool
// and the compressed frames are written back in chunk order, so build
// throughput scales with cores until the generator itself is the bottleneck.
func Build(w io.Writer, src trace.Reader, records uint64, opt BuildOptions) (BuildInfo, error) {
	chunkRecords := opt.chunkRecords()
	workers := opt.workers()

	type encJob struct {
		seq  int
		recs []trace.Record
	}
	type encRes struct {
		seq     int
		frame   []byte
		records int
		ulen    int
		crc     uint32
		err     error
	}
	jobs := make(chan encJob, workers)
	results := make(chan encRes, workers)

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				frame, ulen, crc, err := encodeChunk(j.recs)
				results <- encRes{seq: j.seq, frame: frame, records: len(j.recs), ulen: ulen, crc: crc, err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Producer: step the source into fixed-size chunks. Bounded by the jobs
	// channel, at most ~3× workers chunks are in memory at once.
	prodErr := make(chan error, 1)
	go func() {
		defer close(jobs)
		seq := 0
		var emitted uint64
		for emitted < records {
			n := int(min(uint64(chunkRecords), records-emitted))
			recs, err := trace.Slice(src, n)
			if len(recs) > 0 {
				jobs <- encJob{seq: seq, recs: recs}
				seq++
				emitted += uint64(len(recs))
			}
			if err != nil {
				prodErr <- err
				return
			}
			if len(recs) < n {
				break // source ended early
			}
		}
		prodErr <- nil
	}()

	cw, err := newContainerWriter(w, chunkRecords)
	var info BuildInfo
	pending := make(map[int]encRes)
	nextSeq := 0
	for r := range results {
		if err != nil {
			continue // drain after a write/encode error
		}
		if r.err != nil {
			err = r.err
			continue
		}
		pending[r.seq] = r
		for {
			rr, ok := pending[nextSeq]
			if !ok {
				break
			}
			delete(pending, nextSeq)
			if werr := cw.writeFrame(rr.frame, rr.records, rr.ulen, rr.crc); werr != nil {
				err = werr
				break
			}
			info.CompressedBytes += int64(len(rr.frame))
			info.UncompressedBytes += int64(rr.ulen)
			nextSeq++
		}
	}
	if perr := <-prodErr; err == nil {
		err = perr
	}
	if err != nil {
		return info, err
	}
	if len(pending) != 0 {
		// Unreachable unless a worker died without reporting; keep the
		// container unfinished rather than emit a hole.
		return info, corrupt("build lost %d chunks", len(pending))
	}
	if err := cw.finish(); err != nil {
		return info, err
	}
	info.Records = cw.total
	info.Chunks = len(cw.chunks)
	return info, nil
}

package tracestore

import (
	"bytes"
	"io"
	"testing"

	"morrigan/internal/trace"
)

// FuzzChunkReader holds the package's decode-safety property: arbitrary
// bytes fed to the container parser and chunk decoder must produce an error
// or a valid stream — never a panic, unbounded allocation, or hang. A
// stream read to io.EOF must also pass Verify: the reader checks what
// Verify checks. Seeds are round-trip containers of several geometries plus
// their truncations, so the fuzzer starts inside the format.
func FuzzChunkReader(f *testing.F) {
	recs := genRecords(f, 1500)
	for _, geometry := range []struct{ n, chunk int }{
		{0, 64},    // empty container
		{50, 64},   // single short chunk
		{1500, 64}, // many chunks, short tail
		{512, 256}, // exact multiple
	} {
		var buf bytes.Buffer
		if _, err := Build(&buf, &trace.SliceReader{Records: recs[:geometry.n]}, uint64(geometry.n), BuildOptions{ChunkRecords: geometry.chunk}); err != nil {
			f.Fatal(err)
		}
		data := buf.Bytes()
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:headerSize])
	}
	f.Add([]byte("MTC1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := OpenBytes(data)
		if err != nil {
			return
		}
		// Bound the work per input: a well-formed giant index would
		// otherwise make the fuzzer decode for seconds.
		if c.Records() > 1<<20 {
			return
		}
		r := c.NewReader()
		defer r.Close()
		buf := make([]trace.Record, 97)
		n := uint64(0)
		for {
			k, err := r.NextBatch(buf)
			if err == io.EOF {
				if n != c.Records() {
					t.Fatalf("stream ended after %d records, index says %d", n, c.Records())
				}
				if err := c.Verify(); err != nil {
					t.Fatalf("stream read to EOF, but Verify: %v", err)
				}
				return
			}
			if err != nil {
				return // corrupt input detected mid-stream: fine
			}
			n += uint64(k)
			if n > c.Records() {
				t.Fatalf("stream produced more records than the index declares")
			}
		}
	})
}

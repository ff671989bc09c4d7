package tracestore

import (
	"bytes"
	"errors"
	"io"
	"slices"
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

// FuzzDecodeChunk feeds decodeChunk arbitrary frames directly. Through a
// container the frame CRC rejects nearly every mutated frame before it is
// decoded, so FuzzChunkReader alone seldom reaches the decoder's checks; a
// crafted container with valid CRCs reaches them all. A frame must decode
// to exactly the requested record count or fail with ErrCorrupt, never
// panic, and what it decodes to must survive an encode/decode round trip.
func FuzzDecodeChunk(f *testing.F) {
	recs := genRecords(f, 300)
	for _, n := range []int{1, 7, 300} {
		frame, _ := encodeChunk(recs[:n])
		f.Add(frame, uint16(n))
		f.Add(frame, uint16(n+1))
		f.Add(frame[:len(frame)-1], uint16(n))
	}
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{}, uint16(1))

	f.Fuzz(func(t *testing.T, frame []byte, want uint16) {
		got, err := decodeChunk(frame, uint64(want), nil)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decodeChunk error %v is not ErrCorrupt", err)
			}
			return
		}
		if len(got) != int(want) {
			t.Fatalf("decodeChunk returned %d records, want %d", len(got), want)
		}
		again, _ := encodeChunk(got)
		back, err := decodeChunk(again, uint64(want), nil)
		if err != nil || !slices.Equal(back, got) {
			t.Fatalf("re-encoded records decode to %d records, %v", len(back), err)
		}
	})
}

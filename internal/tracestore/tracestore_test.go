package tracestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"morrigan/internal/arch"
	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

// genRecords draws n deterministic records from a real workload generator so
// containers carry realistic delta/address distributions.
func genRecords(t testing.TB, n int) []trace.Record {
	t.Helper()
	recs, err := trace.Slice(workloads.QMM()[0].NewReader(), n)
	if err != nil {
		t.Fatalf("generating %d records: %v", n, err)
	}
	if len(recs) != n {
		t.Fatalf("generated %d records, want %d", len(recs), n)
	}
	return recs
}

// buildContainer materialises recs into an in-memory container.
func buildContainer(t testing.TB, recs []trace.Record, chunkRecords int) []byte {
	t.Helper()
	var buf bytes.Buffer
	info, err := Build(&buf, &trace.SliceReader{Records: recs}, uint64(len(recs)), BuildOptions{ChunkRecords: chunkRecords})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if info.Records != uint64(len(recs)) {
		t.Fatalf("Build reported %d records, want %d", info.Records, len(recs))
	}
	return buf.Bytes()
}

// TestBuildRoundTrip checks that a container whose record count does not
// divide the chunk size (short last chunk) replays bit-identically in
// one-record batches and in batches that straddle chunk boundaries.
func TestBuildRoundTrip(t *testing.T) {
	const chunk = 1024
	recs := genRecords(t, 3*chunk+500)
	data := buildContainer(t, recs, chunk)

	c, err := OpenBytes(data)
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	if c.Records() != uint64(len(recs)) {
		t.Fatalf("Records() = %d, want %d", c.Records(), len(recs))
	}
	if c.Chunks() != 4 || c.ChunkRecords() != chunk {
		t.Fatalf("geometry = %d chunks of %d, want 4 of %d", c.Chunks(), c.ChunkRecords(), chunk)
	}
	if last := c.Chunk(3); last.Records != 500 {
		t.Fatalf("last chunk holds %d records, want 500", last.Records)
	}
	if err := c.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}

	r := c.NewReader()
	defer r.Close()
	rec := make([]trace.Record, 1)
	for i := range recs {
		if n, err := r.NextBatch(rec); n != 1 || err != nil {
			t.Fatalf("NextBatch(1) at record %d = %d, %v", i, n, err)
		}
		if rec[0] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, rec[0], recs[i])
		}
	}
	if n, err := r.NextBatch(rec); n != 0 || err != io.EOF {
		t.Fatalf("NextBatch past end = %d, %v, want 0, io.EOF", n, err)
	}

	br := c.NewReader()
	defer br.Close()
	got := make([]trace.Record, 0, len(recs))
	buf := make([]trace.Record, 700) // does not divide the chunk size either
	for {
		n, err := br.NextBatch(buf)
		if n > 0 && err != nil {
			t.Fatalf("NextBatch mixed %d records with error %v", n, err)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("NextBatch: %v", err)
		}
		got = append(got, buf[:n]...)
	}
	if len(got) != len(recs) {
		t.Fatalf("batch path read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("batch record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

// TestFileRoundTripQuick checks the record codec on arbitrary streams: any
// PCs (so deltas of every size and sign, wrapping included), loads and
// stores round-trip exactly through Build and OpenBytes. Chunks of 1 to 16
// records make most streams cross the per-chunk delta reset.
func TestFileRoundTripQuick(t *testing.T) {
	f := func(pcs []uint64, addrs []uint32, chunk uint8) bool {
		recs := make([]trace.Record, len(pcs))
		for i, pc := range pcs {
			recs[i].PC = arch.VAddr(pc)
			if i < len(addrs) && addrs[i]%3 == 0 {
				recs[i].Load = arch.VAddr(addrs[i]) + 1
			}
			if i < len(addrs) && addrs[i]%5 == 0 {
				recs[i].Store = arch.VAddr(addrs[i]) + 2
			}
		}
		var buf bytes.Buffer
		opt := BuildOptions{ChunkRecords: int(chunk%16) + 1}
		if _, err := Build(&buf, &trace.SliceReader{Records: recs}, uint64(len(recs)), opt); err != nil {
			return false
		}
		c, err := OpenBytes(buf.Bytes())
		if err != nil {
			return false
		}
		r := c.NewReader()
		defer r.Close()
		got, err := trace.Slice(r, len(recs)+1)
		return err == nil && slices.Equal(got, recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestZigZag checks the PC-delta mapping round-trips at its edges.
func TestZigZag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 1 << 40, -(1 << 40), 1<<62 - 1, -(1 << 62), math.MaxInt64, math.MinInt64} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag round trip of %d = %d", v, got)
		}
	}
}

// TestUvarintMatchesBinary checks the decoder's varint against
// binary.Uvarint, value, length and rejection alike: on every form from one
// to ten bytes, overlong, overflowing and truncated ones included, ending
// at every distance from the frame's end, and on random bytes.
func TestUvarintMatchesBinary(t *testing.T) {
	check := func(frame []byte, p int) {
		t.Helper()
		wantV, wantK := binary.Uvarint(frame[p:])
		v, q := uvarint(frame, p)
		if ok := q > p; ok != (wantK > 0) || ok && (v != wantV || q-p != wantK) {
			t.Errorf("uvarint(% x, %d) = %d, %d; binary.Uvarint gives %d, %d bytes", frame, p, v, q, wantV, wantK)
		}
	}
	forms := [][]byte{
		{0x80, 0x00},                   // overlong zero
		{0x80},                         // truncated
		{0xff, 0xff, 0xff, 0xff, 0xff}, // truncated after five bytes
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},       // overflows 64 bits
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // eleven bytes
	}
	for _, v := range []uint64{0, 1, 0x7f, 0x80, 1<<14 - 1, 1 << 14, 1 << 21, 1 << 28, 1<<35 - 1, 1 << 35, 1<<42 - 1, 1 << 42, 1 << 49, 1 << 56, 1 << 63, math.MaxUint64} {
		forms = append(forms, binary.AppendUvarint(nil, v))
	}
	for _, f := range forms {
		for pad := 0; pad <= binary.MaxVarintLen64+1; pad++ {
			// A leading byte makes the varint start past the frame's start.
			frame := append(append([]byte{0}, f...), make([]byte, pad)...)
			check(frame, 1)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		frame := make([]byte, 1+rng.Intn(16))
		for k := range frame {
			frame[k] = byte(rng.Intn(256)) | byte(rng.Intn(2))<<7
		}
		check(frame, rng.Intn(len(frame)))
	}
}

// TestBuildEarlyEOF checks that a source shorter than the requested record
// count yields a correspondingly shorter (still valid) container.
func TestBuildEarlyEOF(t *testing.T) {
	recs := genRecords(t, 300)
	var buf bytes.Buffer
	info, err := Build(&buf, &trace.SliceReader{Records: recs}, 10_000, BuildOptions{ChunkRecords: 128})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if info.Records != 300 || info.Chunks != 3 {
		t.Fatalf("info = %d records in %d chunks, want 300 in 3", info.Records, info.Chunks)
	}
	c, err := OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	if err := c.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestBuildEmpty checks the zero-record container round-trips.
func TestBuildEmpty(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Build(&buf, &trace.SliceReader{}, 0, BuildOptions{ChunkRecords: 64}); err != nil {
		t.Fatalf("Build: %v", err)
	}
	c, err := OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	r := c.NewReader()
	defer r.Close()
	if n, err := r.NextBatch(make([]trace.Record, 8)); n != 0 || err != io.EOF {
		t.Fatalf("NextBatch on empty corpus = %d, %v, want 0, io.EOF", n, err)
	}
}

// TestBuildAllocations builds a container of 32 default-size chunks from
// a generator into io.Discard. Build circulates three chunk buffers and
// reuses one frame buffer, so beyond those the bytes it allocates per
// chunk stay under 1/64 of a decoded chunk, where a fresh chunk and frame
// per chunk cost about 1.8 MB.
func TestBuildAllocations(t *testing.T) {
	const chunks = 32
	src := testSpec(709).NewReader() // the generator's tables are not Build's
	// Three chunk buffers and a frame buffer of five bytes a record,
	// rounded up to the heap's 8 KiB pages.
	fixed := uint64(3*chunkBytes(DefaultChunkRecords)) + 5*DefaultChunkRecords + 4*8<<10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	info, err := Build(io.Discard, src, chunks*DefaultChunkRecords, BuildOptions{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if info.Chunks != chunks {
		t.Fatalf("Build wrote %d chunks, want %d", info.Chunks, chunks)
	}
	got := after.TotalAlloc - before.TotalAlloc
	perChunk := (got - min(got, fixed)) / chunks
	t.Logf("Build allocated %d bytes, %d per chunk beyond the %d-byte buffers", got, perChunk, fixed)
	if limit := uint64(chunkBytes(DefaultChunkRecords)) / 64; perChunk >= limit {
		t.Errorf("Build allocated %d bytes per chunk beyond its buffers, want under %d (1/64 of a decoded chunk)", perChunk, limit)
	}
}

// TestReaderClose checks that a closed reader stops producing records and
// that closing twice is harmless.
func TestReaderClose(t *testing.T) {
	recs := genRecords(t, 2000)
	c, err := OpenBytes(buildContainer(t, recs, 256))
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	r := c.NewReader()
	buf := make([]trace.Record, 10)
	if n, err := r.NextBatch(buf); n != len(buf) || err != nil {
		t.Fatalf("NextBatch = %d, %v", n, err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n, err := r.NextBatch(buf); n != 0 || err != io.EOF {
		t.Fatalf("NextBatch after Close = %d, %v, want 0, io.EOF", n, err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestLimitPreservesBatching checks trace.Limit passes the corpus reader's
// batches through and cuts the stream at exactly n records.
func TestLimitPreservesBatching(t *testing.T) {
	recs := genRecords(t, 1000)
	c, err := OpenBytes(buildContainer(t, recs, 256))
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	r := c.NewReader()
	defer r.Close()
	limited := trace.Limit(r, 600)
	got := 0
	buf := make([]trace.Record, 128)
	for {
		n, err := limited.NextBatch(buf)
		got += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("NextBatch: %v", err)
		}
	}
	if got != 600 {
		t.Fatalf("limited batch read %d records, want 600", got)
	}
}

// TestCorruptContainer checks targeted corruptions fail with ErrCorrupt at
// open, verify, or read time — never a panic.
func TestCorruptContainer(t *testing.T) {
	recs := genRecords(t, 700)
	data := buildContainer(t, recs, 256)

	mustFailOpen := func(name string, mutate func([]byte)) {
		t.Helper()
		cp := append([]byte(nil), data...)
		mutate(cp)
		if _, err := OpenBytes(cp); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: OpenBytes error = %v, want ErrCorrupt", name, err)
		}
	}
	mustFailOpen("header magic", func(b []byte) { b[0] ^= 0xff })
	mustFailOpen("version", func(b []byte) { b[4] = 99 })
	mustFailOpen("codec", func(b []byte) { b[5] = 7 })
	mustFailOpen("chunk size zero", func(b []byte) { b[6], b[7], b[8], b[9] = 0, 0, 0, 0 })
	mustFailOpen("tail magic", func(b []byte) { b[len(b)-1] ^= 0xff })
	mustFailOpen("index crc", func(b []byte) { b[len(b)-8] ^= 0xff })
	mustFailOpen("total records", func(b []byte) { b[len(b)-16] ^= 0xff })

	// Every truncation must fail cleanly: either the tail is gone or the
	// index offset no longer matches the bytes.
	for cut := 1; cut <= len(data); cut += 97 {
		if _, err := OpenBytes(data[:len(data)-cut]); err == nil {
			t.Fatalf("truncation by %d bytes opened successfully", cut)
		}
	}

	// A damaged frame passes open (only the index is validated there) but
	// fails verification and reading.
	cp := append([]byte(nil), data...)
	for i := headerSize; i < headerSize+32; i++ {
		cp[i] = 0
	}
	c, err := OpenBytes(cp)
	if err != nil {
		t.Fatalf("OpenBytes with damaged frame: %v", err)
	}
	if err := c.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify error = %v, want ErrCorrupt", err)
	}
	r := c.NewReader()
	defer r.Close()
	rec := make([]trace.Record, 1)
	for i := 0; ; i++ {
		if _, err := r.NextBatch(rec); err != nil {
			if err == io.EOF {
				t.Fatalf("damaged frame read to EOF without error")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("read error = %v, want ErrCorrupt", err)
			}
			break
		}
		if i > len(recs) {
			t.Fatalf("read more records than the container holds")
		}
	}
}

// TestReaderChecksFrameCRC finds a single-bit flip in chunk 0's frame that
// still decodes to the indexed length, record count included, but with
// different records: damage only the frame checksum can catch. Reading the
// damaged container must then fail with ErrCorrupt, not return the wrong
// records.
func TestReaderChecksFrameCRC(t *testing.T) {
	recs := genRecords(t, 700)
	data := buildContainer(t, recs, 256)
	c, err := OpenBytes(data)
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	ci := c.chunks[0]
	lo, hi := ci.offset, ci.offset+int64(ci.size)
	var damaged []byte
search:
	for off := lo; off < hi; off++ {
		for bit := 0; bit < 8; bit++ {
			cp := append([]byte(nil), data...)
			cp[off] ^= 1 << bit
			got, err := decodeChunk(cp[lo:hi], ci.records, nil)
			if err == nil && !slices.Equal(got, recs[:ci.records]) {
				damaged = cp
				break search
			}
		}
	}
	if damaged == nil {
		t.Fatal("no single-bit flip of chunk 0 decodes to its indexed length with different records")
	}

	dc, err := OpenBytes(damaged)
	if err != nil {
		t.Fatalf("OpenBytes with damaged frame: %v", err)
	}
	r := dc.NewReader()
	defer r.Close()
	buf := make([]trace.Record, 97)
	for read := 0; ; {
		n, err := r.NextBatch(buf)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("NextBatch after %d records = %v, want ErrCorrupt", read, err)
			}
			break
		}
		read += n
	}
}

// TestDecodeChunkMalformed feeds decodeChunk hand-made frames that break
// one rule each. Every row names the check that must reject it: with that
// check gone, the row decodes, panics or is caught by a different check.
func TestDecodeChunkMalformed(t *testing.T) {
	overlong := bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64) // 11th byte ends it
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	// One record: kind load|store, PC delta +2 (zigzag 4), load 0x10,
	// store 0x20.
	valid := []byte{recHasLoad | recHasStore, 0x04, 0x10, 0x20}
	got, err := decodeChunk(valid, 1, nil)
	if want := []trace.Record{{PC: 2, Load: 0x10, Store: 0x20}}; err != nil || !slices.Equal(got, want) {
		t.Fatalf("decodeChunk(valid) = %v, %v, want %v", got, err, want)
	}

	for _, tc := range []struct {
		name  string
		frame []byte
		want  uint64
		check string // fragment of the error the rejecting check returns
	}{
		{"empty frame", nil, 1, "truncated"},
		{"frame ends before the second record", valid, 2, "truncated"},
		{"kind out of range", []byte{recKindMax + 1, 0x04}, 1, "record kind"},
		{"frame ends in the pc delta", []byte{0}, 1, "pc delta"},
		{"overlong pc delta", cat([]byte{0}, overlong, []byte{0}), 1, "pc delta"},
		{"frame ends in the load address", []byte{recHasLoad, 0x04}, 1, "load address"},
		{"overlong load address", cat([]byte{recHasLoad, 0x04}, overlong, []byte{0}), 1, "load address"},
		{"frame ends in the store address", []byte{recHasStore, 0x04}, 1, "store address"},
		{"overlong store address", cat([]byte{recHasStore, 0x04}, overlong, []byte{0}), 1, "store address"},
		{"one trailing byte", cat(valid, []byte{0}), 1, "trailing bytes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeChunk(tc.frame, tc.want, nil)
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.check) {
				t.Fatalf("decodeChunk = %v, want ErrCorrupt from the %q check", err, tc.check)
			}
		})
	}
}

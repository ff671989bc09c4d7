package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"morrigan/internal/arch"
)

// encodeTrace serialises recs with NewWriter and returns the raw bytes.
func encodeTrace(t *testing.T, recs []Record, compress bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, compress)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFileReaderBadMagic(t *testing.T) {
	cases := [][]byte{
		[]byte("NOPE\x00"),
		[]byte("MGT2\x00"), // wrong version digit
		[]byte("MGT"),      // shorter than the magic itself
	}
	for _, c := range cases {
		_, err := NewFileReader(bytes.NewReader(c))
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("header %q: err = %v, want ErrCorrupt", c, err)
		}
	}
}

func TestFileReaderBadFlags(t *testing.T) {
	_, err := NewFileReader(bytes.NewReader([]byte(fileMagic + "\x01")))
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("nonzero header flags: err = %v, want ErrCorrupt", err)
	}
}

func TestFileReaderTruncated(t *testing.T) {
	recs := []Record{
		{PC: 0x1000},
		{PC: 0x1004, Load: 0x2000},
		{PC: 0x1008, Store: 0x123456789}, // multi-byte store varint
	}
	raw := encodeTrace(t, recs, false)

	// A truncated header must fail construction; any longer prefix must
	// yield ErrCorrupt (or a clean EOF exactly on a record boundary) from
	// NextBatch, never a wrong record or a hang.
	for cut := 0; cut < len(raw); cut++ {
		r, err := NewFileReader(bytes.NewReader(raw[:cut]))
		if cut < len(fileMagic)+1 {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut=%d: header err = %v, want ErrCorrupt", cut, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut=%d: NewFileReader: %v", cut, err)
		}
		buf := make([]Record, 2)
		for i := 0; ; {
			n, err := r.NextBatch(buf)
			if err == nil {
				for _, rec := range buf[:n] {
					if i >= len(recs) || rec != recs[i] {
						t.Fatalf("cut=%d: record %d = %+v", cut, i, rec)
					}
					i++
				}
				continue
			}
			if n != 0 || err != io.EOF && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut=%d: NextBatch = %d, %v, want 0 with EOF or ErrCorrupt", cut, n, err)
			}
			break
		}
	}
}

func TestFileReaderAfterEOF(t *testing.T) {
	raw := encodeTrace(t, []Record{{PC: 0x40_0000}}, false)
	r, err := NewFileReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Record, 4)
	if n, err := r.NextBatch(buf); n != 1 || err != nil || buf[0].PC != 0x40_0000 {
		t.Fatalf("NextBatch = %d, %+v, %v", n, buf[0], err)
	}
	// The reader must keep reporting io.EOF on every call past the end,
	// without mutating the output records.
	for i := 0; i < 3; i++ {
		saved := buf[0]
		if n, err := r.NextBatch(buf); n != 0 || err != io.EOF {
			t.Fatalf("NextBatch after EOF (call %d) = %d, %v, want 0, io.EOF", i, n, err)
		}
		if buf[0] != saved {
			t.Fatalf("NextBatch after EOF mutated a record: %+v", buf[0])
		}
	}
}

func TestFileReaderBadRecordKind(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(fileMagic)
	buf.WriteByte(0)
	buf.WriteByte(recKindMax + 1)
	r, err := NewFileReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := r.NextBatch(make([]Record, 1)); n != 0 || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad record kind: NextBatch = %d, %v, want 0, ErrCorrupt", n, err)
	}
}

// TestFileReaderHoldsBackCorruptRecord corrupts record k of a flat file: the
// first NextBatch must deliver exactly the k good records before it with a
// nil error, and the next call must report ErrCorrupt with no records.
func TestFileReaderHoldsBackCorruptRecord(t *testing.T) {
	recs, err := Slice(NewServerGenerator(testParams()), 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 17, 39} {
		raw := encodeTrace(t, recs, false)
		// Record k's kind byte follows the header and records 0..k-1.
		raw[len(encodeTrace(t, recs[:k], false))] = recKindMax + 1
		r, err := NewFileReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]Record, len(recs))
		n, err := r.NextBatch(buf)
		if n != k || err != nil {
			t.Fatalf("k=%d: first NextBatch = %d, %v, want %d, nil", k, n, err, k)
		}
		for i := range buf[:n] {
			if buf[i] != recs[i] {
				t.Fatalf("k=%d: record %d = %+v, want %+v", k, i, buf[i], recs[i])
			}
		}
		if n, err := r.NextBatch(buf); n != 0 || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("k=%d: second NextBatch = %d, %v, want 0, ErrCorrupt", k, n, err)
		}
	}
}

func TestFileReaderTruncatedGzip(t *testing.T) {
	recs := []Record{{PC: 0x1000, Load: arch.VAddr(1) << 40}}
	raw := encodeTrace(t, recs, true)
	// Cut inside the gzip body (past its 2-byte magic): either construction
	// or the first read must fail, but never succeed silently.
	r, err := NewFileReader(bytes.NewReader(raw[:len(raw)/2]))
	if err != nil {
		return
	}
	buf := make([]Record, 1)
	for {
		if _, err := r.NextBatch(buf); err != nil {
			if err == io.EOF {
				t.Fatal("truncated gzip stream read to clean EOF")
			}
			return
		}
	}
}

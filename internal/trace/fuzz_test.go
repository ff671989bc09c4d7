package trace

import (
	"bytes"
	"testing"
)

// FuzzFileReader holds the trace file decoder's safety property: arbitrary
// bytes must produce an error or a valid record stream, never a panic or a
// hang. Seeds are round-trip traces (plain and gzip) plus header fragments.
func FuzzFileReader(f *testing.F) {
	recs, err := Slice(NewServerGenerator(testParams()), 400)
	if err != nil {
		f.Fatal(err)
	}
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, compress)
		if err != nil {
			f.Fatal(err)
		}
		for i := range recs {
			if err := w.Write(&recs[i]); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		data := buf.Bytes()
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte("MGT1\x00"))
	f.Add([]byte{0x1f, 0x8b})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewFileReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		buf := make([]Record, 3)
		for {
			// The stream is finite (every record consumes at least two input
			// bytes), so this loop is bounded by len(data).
			n, err := r.NextBatch(buf)
			if err != nil {
				return // io.EOF, or a corrupt record detected: fine
			}
			if n == 0 {
				t.Fatal("NextBatch returned no records and no error")
			}
		}
	})
}

// Package trace defines the instruction trace representation consumed by the
// simulator, the one-method Reader every trace source implements, and
// deterministic synthetic workload generators. Traces on disk are corpus
// containers (package tracestore), the repository's only trace file format.
//
// The paper evaluates on proprietary Qualcomm server traces (CVP-1/IPC-1).
// Those are unobtainable, so this package synthesises instruction streams
// whose instruction-TLB miss behaviour matches the properties the paper
// measures in Section 3.3: Zipf-skewed page popularity, a variable number of
// successor pages per instruction page, limited small-delta spatial locality,
// and phase changes. See DESIGN.md for the substitution rationale.
package trace

import (
	"io"

	"morrigan/internal/arch"
)

// Record is one executed instruction. A zero Load/Store address means the
// instruction has no memory operand of that kind (the generators never place
// code or data at virtual address zero).
type Record struct {
	// PC is the instruction's fetch address.
	PC arch.VAddr
	// Load is the address read by the instruction, or zero.
	Load arch.VAddr
	// Store is the address written by the instruction, or zero.
	Store arch.VAddr
}

// HasLoad reports whether the instruction reads memory.
func (r *Record) HasLoad() bool { return r.Load != 0 }

// HasStore reports whether the instruction writes memory.
func (r *Record) HasStore() bool { return r.Store != 0 }

// Reader produces a stream of instruction records in batches. NextBatch
// copies up to len(dst) records into a non-empty dst and returns how many;
// it never mixes records with an error — a call returns n > 0 with a nil
// error, or 0 with io.EOF (stream exhausted) or a real error. Callers must
// tolerate short (n < len(dst)) non-final batches. Synthetic generators are
// infinite: they fill all of dst and never return io.EOF.
type Reader interface {
	NextBatch(dst []Record) (int, error)
}

// Limit wraps r so that it yields at most n records.
func Limit(r Reader, n uint64) Reader { return &limitReader{r: r, left: n} }

type limitReader struct {
	r    Reader
	left uint64
}

func (l *limitReader) NextBatch(dst []Record) (int, error) {
	if l.left == 0 {
		return 0, io.EOF
	}
	if uint64(len(dst)) > l.left {
		dst = dst[:l.left]
	}
	n, err := l.r.NextBatch(dst)
	l.left -= uint64(n)
	return n, err
}

// Slice materialises up to n records from r, primarily for tests and
// offline analysis. It stops early at io.EOF; on any other error it returns
// the records read before it.
func Slice(r Reader, n int) ([]Record, error) {
	out := make([]Record, n)
	got, err := ReadFull(r, out)
	return out[:got], err
}

// ReadFull reads records from r into dst until dst is full or r ends, and
// returns how many it read. It stops early at io.EOF, which it does not
// report; on any other error it returns the count read before it.
func ReadFull(r Reader, dst []Record) (int, error) {
	got := 0
	for got < len(dst) {
		k, err := r.NextBatch(dst[got:])
		if k == 0 {
			if err == io.EOF {
				err = nil
			}
			return got, err
		}
		got += k
	}
	return got, nil
}

// SliceReader replays a fixed record slice, for tests.
type SliceReader struct {
	Records []Record
	pos     int
}

// NextBatch implements Reader.
func (s *SliceReader) NextBatch(dst []Record) (int, error) {
	if s.pos >= len(s.Records) {
		return 0, io.EOF
	}
	n := copy(dst, s.Records[s.pos:])
	s.pos += n
	return n, nil
}

// Reset rewinds the reader to the beginning of the slice.
func (s *SliceReader) Reset() { s.pos = 0 }

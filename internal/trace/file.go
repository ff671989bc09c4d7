package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"

	"morrigan/internal/arch"
)

// File format
//
// A trace file is a small fixed header followed by a stream of
// variable-length records. PCs are delta-encoded (zig-zag varint relative to
// the previous PC) because instruction addresses are overwhelmingly
// sequential; load/store addresses are absolute varints. The whole stream is
// optionally gzip-compressed (detected on read via the gzip magic).
//
//	header:  magic "MGT1" | uint8 flags (bit0: reserved)
//	record:  uint8 kind   | pcDelta zigzag-varint
//	         [load varint]  if kind bit0
//	         [store varint] if kind bit1

const fileMagic = "MGT1"

const (
	recHasLoad  = 1 << 0
	recHasStore = 1 << 1
	recKindMax  = recHasLoad | recHasStore
)

// Writer serialises records to the on-disk trace format.
type Writer struct {
	w      *bufio.Writer
	gz     *gzip.Writer
	lastPC arch.VAddr
	buf    [3 * binary.MaxVarintLen64]byte
	wrote  bool
}

// NewWriter returns a Writer emitting to w. If compress is true the stream
// is gzip-compressed. Close must be called to flush.
func NewWriter(w io.Writer, compress bool) (*Writer, error) {
	tw := &Writer{}
	if compress {
		tw.gz = gzip.NewWriter(w)
		tw.w = bufio.NewWriter(tw.gz)
	} else {
		tw.w = bufio.NewWriter(w)
	}
	if _, err := tw.w.WriteString(fileMagic); err != nil {
		return nil, err
	}
	if err := tw.w.WriteByte(0); err != nil {
		return nil, err
	}
	return tw, nil
}

func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Write appends one record.
func (t *Writer) Write(rec *Record) error {
	var kind byte
	if rec.HasLoad() {
		kind |= recHasLoad
	}
	if rec.HasStore() {
		kind |= recHasStore
	}
	n := 0
	t.buf[n] = kind
	n++
	n += binary.PutUvarint(t.buf[n:], zigzag(int64(rec.PC)-int64(t.lastPC)))
	if rec.HasLoad() {
		n += binary.PutUvarint(t.buf[n:], uint64(rec.Load))
	}
	if rec.HasStore() {
		n += binary.PutUvarint(t.buf[n:], uint64(rec.Store))
	}
	t.lastPC = rec.PC
	t.wrote = true
	_, err := t.w.Write(t.buf[:n])
	return err
}

// Close flushes buffered data and terminates the gzip stream if present.
func (t *Writer) Close() error {
	if err := t.w.Flush(); err != nil {
		return err
	}
	if t.gz != nil {
		return t.gz.Close()
	}
	return nil
}

// FileReader decodes the on-disk trace format; it implements Reader.
type FileReader struct {
	r      *bufio.Reader
	lastPC arch.VAddr
	err    error // sticky: io.EOF or the first decode error
}

// NewFileReader wraps r, transparently decompressing gzip streams, and
// validates the header.
func NewFileReader(r io.Reader) (*FileReader, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		br = bufio.NewReader(gz)
	}
	head := make([]byte, len(fileMagic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", ErrCorrupt)
	}
	if string(head[:len(fileMagic)]) != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %q: %w", head[:len(fileMagic)], ErrCorrupt)
	}
	if flags := head[len(fileMagic)]; flags != 0 {
		return nil, fmt.Errorf("trace: unsupported header flags %#x: %w", flags, ErrCorrupt)
	}
	return &FileReader{r: br}, nil
}

// NextBatch implements Reader. The first decode error (or io.EOF) is held
// back until the records decoded before it have been delivered: the call
// that meets it returns those records, and every later call returns the
// error.
func (f *FileReader) NextBatch(dst []Record) (int, error) {
	if f.err != nil {
		return 0, f.err
	}
	for i := range dst {
		if f.err = f.decode(&dst[i]); f.err != nil {
			if i > 0 {
				return i, nil
			}
			return 0, f.err
		}
	}
	return len(dst), nil
}

// decode reads one record into rec.
func (f *FileReader) decode(rec *Record) error {
	kind, err := f.r.ReadByte()
	if err != nil {
		return err
	}
	if kind > recKindMax {
		return fmt.Errorf("trace: record kind %#x: %w", kind, ErrCorrupt)
	}
	du, err := binary.ReadUvarint(f.r)
	if err != nil {
		return ErrCorrupt
	}
	f.lastPC = arch.VAddr(int64(f.lastPC) + unzigzag(du))
	rec.PC = f.lastPC
	rec.Load, rec.Store = 0, 0
	if kind&recHasLoad != 0 {
		v, err := binary.ReadUvarint(f.r)
		if err != nil {
			return ErrCorrupt
		}
		rec.Load = arch.VAddr(v)
	}
	if kind&recHasStore != 0 {
		v, err := binary.ReadUvarint(f.r)
		if err != nil {
			return ErrCorrupt
		}
		rec.Store = arch.VAddr(v)
	}
	return nil
}

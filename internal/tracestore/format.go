// Package tracestore materialises synthetic workloads into chunked,
// footer-indexed corpus containers built once and then served to every
// simulation job that wants the workload — turning trace supply from a
// per-job regeneration cost into a shared, cached decode.
//
// A campaign of W workloads × N configurations needs each instruction stream
// N times; the live generator (trace.NewServerGenerator) resynthesises it per
// job. A corpus container stores the stream on disk in independently
// decodable chunks, so jobs stream it back through a pipelined reader
// (reader.go) while a ref-counted, byte-budgeted LRU of decoded chunks
// (cache.go) lets concurrent jobs on the same workload decode each chunk
// once. Containers are built with encoding overlapping generation
// (build.go) and tracked in a manifest keyed by the workload's stable
// parameter hash (store.go), so a parameter change invalidates the corpus
// automatically.
//
// # Container format
//
// One container holds one workload's record stream:
//
//	header:  magic "MTC1" | uint8 version (2) | uint8 codec (0 = raw)
//	         | uint32 LE chunkRecords
//	chunks:  back-to-back frames of encoded records; each frame holds
//	         exactly chunkRecords records (the final frame may hold fewer),
//	         each record a uint8 kind (bit0 load, bit1 store), a zig-zag
//	         varint PC delta and absolute varint load/store addresses, with
//	         the PC delta base reset to zero at every chunk boundary, so
//	         chunks decode independently and in parallel
//	index:   magic "MTCI" | uvarint chunkCount | per chunk:
//	         uvarint recordCount | uvarint frameLen
//	         | uint32 LE CRC-32C of the frame
//	tail:    uint64 LE indexOffset | uint64 LE totalRecords
//	         | uint32 LE CRC-32C of the index bytes | magic "MTCX"
//
// Frames are stored uncompressed: decoding walks the frame's bytes directly,
// several times faster than inflating them first, at about 2.4× the bytes on
// disk. Version 1 containers (flate-compressed frames) fail to open with
// ErrCorrupt, so a store rebuilds them on first use.
//
// Chunk offsets are not stored: they accumulate from the header end in index
// order and must land exactly on the index offset, which (with the two CRCs)
// makes truncation and splices detectable. The index CRC is checked on open
// and a frame's CRC every time its chunk is read. All decode paths return
// ErrCorrupt-wrapped errors on malformed input, never panic; FuzzChunkReader
// (container parser and reader) and FuzzDecodeChunk (frames fed to the
// decoder directly) hold that property.
package tracestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"morrigan/internal/arch"
	"morrigan/internal/trace"
)

const (
	headerMagic = "MTC1"
	indexMagic  = "MTCI"
	tailMagic   = "MTCX"

	formatVersion = 2
	codecRaw      = 0

	headerSize = 10 // magic(4) + version(1) + codec(1) + chunkRecords(4)
	tailSize   = 24 // indexOffset(8) + totalRecords(8) + indexCRC(4) + magic(4)

	recHasLoad  = 1 << 0
	recHasStore = 1 << 1
	recKindMax  = recHasLoad | recHasStore

	// maxRecordBytes bounds one encoded record: kind byte plus three varints.
	maxRecordBytes = 1 + 3*binary.MaxVarintLen64
	// minRecordBytes is the smallest encoding: kind byte plus a 1-byte delta.
	minRecordBytes = 2

	// recordMemBytes is the in-memory size of one decoded trace.Record
	// (three 64-bit addresses), the unit of the cache's byte budget.
	recordMemBytes = 24

	// DefaultChunkRecords is the default fixed chunk size. 64 Ki records is
	// ~1.5 MB decoded — large enough to amortise frame overhead, small
	// enough that a byte-budgeted cache holds many chunks.
	DefaultChunkRecords = 1 << 16
	// maxChunkRecords caps the header's chunk size so a corrupt header
	// cannot demand absurd allocations.
	maxChunkRecords = 1 << 24
)

// ErrCorrupt reports a malformed corpus container.
var ErrCorrupt = errors.New("tracestore: corrupt corpus container")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func corrupt(format string, args ...any) error {
	return fmt.Errorf("tracestore: "+format+": %w", append(args, ErrCorrupt)...)
}

// zigzag and unzigzag map a signed PC delta to an unsigned varint and back,
// so short backward jumps encode as short as forward ones.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// chunkInfo is one chunk's index entry; offset is reconstructed from the
// running sum at open time.
type chunkInfo struct {
	offset  int64
	records uint64
	size    uint64
	crc     uint32
}

// ChunkInfo describes one chunk of an open corpus (for cmd/traceinfo).
type ChunkInfo struct {
	// Offset is the frame's byte offset within the container.
	Offset int64
	// Records is the number of records in the chunk.
	Records uint64
	// Bytes is the frame's length.
	Bytes uint64
	// CRC32C is the Castagnoli checksum of the frame.
	CRC32C uint32
}

// encodeChunk serialises records with the per-chunk delta encoding into a
// fresh frame and returns the frame and its CRC-32C.
func encodeChunk(recs []trace.Record) (frame []byte, crc uint32) {
	return encodeChunkInto(nil, recs)
}

// encodeChunkInto is encodeChunk writing the frame into buf's backing
// array, which is replaced only when it is too small.
func encodeChunkInto(buf []byte, recs []trace.Record) (frame []byte, crc uint32) {
	// Most records take 3–5 bytes; append grows the rare denser chunk.
	frame = buf[:0]
	if cap(frame) < 5*len(recs) {
		frame = make([]byte, 0, 5*len(recs))
	}
	var lastPC arch.VAddr
	for i := range recs {
		r := &recs[i]
		var kind byte
		if r.HasLoad() {
			kind |= recHasLoad
		}
		if r.HasStore() {
			kind |= recHasStore
		}
		frame = append(frame, kind)
		frame = binary.AppendUvarint(frame, zigzag(int64(r.PC)-int64(lastPC)))
		if r.HasLoad() {
			frame = binary.AppendUvarint(frame, uint64(r.Load))
		}
		if r.HasStore() {
			frame = binary.AppendUvarint(frame, uint64(r.Store))
		}
		lastPC = r.PC
	}
	return frame, crc32.Checksum(frame, castagnoli)
}

// decodeChunk decodes one frame, appending exactly `want` records to dst.
// The frame must end exactly after the last record: a short frame, a
// malformed varint or trailing bytes are all ErrCorrupt.
func decodeChunk(frame []byte, want uint64, dst []trace.Record) ([]trace.Record, error) {
	var lastPC arch.VAddr
	p := 0
	for n := uint64(0); n < want; n++ {
		if p >= len(frame) {
			return dst, corrupt("chunk truncated at record %d of %d", n, want)
		}
		kind := frame[p]
		p++
		if kind > recKindMax {
			return dst, corrupt("chunk record kind %#x", kind)
		}
		var du uint64
		if p < len(frame) && frame[p] < 0x80 { // most PC deltas take one byte
			du = uint64(frame[p])
			p++
		} else {
			var q int
			if du, q = uvarint(frame, p); q <= p {
				return dst, corrupt("chunk pc delta at record %d", n)
			}
			p = q
		}
		lastPC = arch.VAddr(int64(lastPC) + unzigzag(du))
		rec := trace.Record{PC: lastPC}
		if kind&recHasLoad != 0 {
			v, q := uvarint(frame, p)
			if q <= p {
				return dst, corrupt("chunk load address at record %d", n)
			}
			p = q
			rec.Load = arch.VAddr(v)
		}
		if kind&recHasStore != 0 {
			v, q := uvarint(frame, p)
			if q <= p {
				return dst, corrupt("chunk store address at record %d", n)
			}
			p = q
			rec.Store = arch.VAddr(v)
		}
		dst = append(dst, rec)
	}
	if p != len(frame) {
		return dst, corrupt("chunk has %d trailing bytes after %d records", len(frame)-p, want)
	}
	return dst, nil
}

// uvarint decodes the varint at frame[p:] as binary.Uvarint does and
// returns it with the position after it, or with a position of at most p
// when the varint is truncated or overflows. Data addresses take five or
// six bytes, so the one- to six-byte forms are decoded from a
// bounds-checked window of binary.MaxVarintLen64 bytes; longer forms, and
// varints that start within that many bytes of the frame's end, go to
// binary.Uvarint.
func uvarint(frame []byte, p int) (uint64, int) {
	if len(frame)-p >= binary.MaxVarintLen64 {
		b := frame[p : p+binary.MaxVarintLen64]
		v := uint64(b[0] & 0x7f)
		if b[0] < 0x80 {
			return v, p + 1
		}
		if v |= uint64(b[1]&0x7f) << 7; b[1] < 0x80 {
			return v, p + 2
		}
		if v |= uint64(b[2]&0x7f) << 14; b[2] < 0x80 {
			return v, p + 3
		}
		if v |= uint64(b[3]&0x7f) << 21; b[3] < 0x80 {
			return v, p + 4
		}
		if v |= uint64(b[4]&0x7f) << 28; b[4] < 0x80 {
			return v, p + 5
		}
		if v |= uint64(b[5]&0x7f) << 35; b[5] < 0x80 {
			return v, p + 6
		}
	}
	v, k := binary.Uvarint(frame[p:])
	return v, p + k
}

// containerWriter appends frames to a container and finishes it with the
// index and tail. It is driven by Build.
type containerWriter struct {
	w            io.Writer
	chunkRecords int
	off          int64
	total        uint64
	chunks       []chunkInfo
}

func newContainerWriter(w io.Writer, chunkRecords int) (*containerWriter, error) {
	cw := &containerWriter{w: w, chunkRecords: chunkRecords}
	var head [headerSize]byte
	copy(head[:], headerMagic)
	head[4] = formatVersion
	head[5] = codecRaw
	binary.LittleEndian.PutUint32(head[6:], uint32(chunkRecords))
	if _, err := w.Write(head[:]); err != nil {
		return nil, err
	}
	cw.off = headerSize
	return cw, nil
}

// writeFrame appends one chunk frame and records its index entry.
func (cw *containerWriter) writeFrame(frame []byte, records int, crc uint32) error {
	if _, err := cw.w.Write(frame); err != nil {
		return err
	}
	cw.chunks = append(cw.chunks, chunkInfo{
		offset:  cw.off,
		records: uint64(records),
		size:    uint64(len(frame)),
		crc:     crc,
	})
	cw.off += int64(len(frame))
	cw.total += uint64(records)
	return nil
}

// finish writes the footer index and tail.
func (cw *containerWriter) finish() error {
	var idx bytes.Buffer
	idx.WriteString(indexMagic)
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		idx.Write(buf[:binary.PutUvarint(buf[:], v)])
	}
	putUvarint(uint64(len(cw.chunks)))
	for _, c := range cw.chunks {
		putUvarint(c.records)
		putUvarint(c.size)
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], c.crc)
		idx.Write(crc[:])
	}
	indexOff := cw.off
	if _, err := cw.w.Write(idx.Bytes()); err != nil {
		return err
	}
	var tail [tailSize]byte
	binary.LittleEndian.PutUint64(tail[0:], uint64(indexOff))
	binary.LittleEndian.PutUint64(tail[8:], cw.total)
	binary.LittleEndian.PutUint32(tail[16:], crc32.Checksum(idx.Bytes(), castagnoli))
	copy(tail[20:], tailMagic)
	_, err := cw.w.Write(tail[:])
	return err
}

// parseContainer validates the header, tail and index of a container of the
// given size and returns its geometry. Every length and offset is
// cross-checked so corrupt input fails with ErrCorrupt instead of demanding
// absurd allocations or panicking downstream.
func parseContainer(src io.ReaderAt, size int64) (chunkRecords int, total uint64, chunks []chunkInfo, err error) {
	if size < headerSize+tailSize {
		return 0, 0, nil, corrupt("container too small (%d bytes)", size)
	}
	var head [headerSize]byte
	if _, err := src.ReadAt(head[:], 0); err != nil {
		return 0, 0, nil, corrupt("reading header: %v", err)
	}
	if string(head[:4]) != headerMagic {
		return 0, 0, nil, corrupt("bad magic %q", head[:4])
	}
	if head[4] != formatVersion {
		return 0, 0, nil, corrupt("format version %d, this build reads version %d; regenerate the container", head[4], formatVersion)
	}
	if head[5] != codecRaw {
		return 0, 0, nil, corrupt("unsupported codec %d", head[5])
	}
	cr := binary.LittleEndian.Uint32(head[6:])
	if cr == 0 || cr > maxChunkRecords {
		return 0, 0, nil, corrupt("chunk size %d out of range", cr)
	}
	chunkRecords = int(cr)

	var tail [tailSize]byte
	if _, err := src.ReadAt(tail[:], size-tailSize); err != nil {
		return 0, 0, nil, corrupt("reading tail: %v", err)
	}
	if string(tail[20:24]) != tailMagic {
		return 0, 0, nil, corrupt("bad tail magic %q", tail[20:24])
	}
	indexOff := int64(binary.LittleEndian.Uint64(tail[0:]))
	total = binary.LittleEndian.Uint64(tail[8:])
	indexCRC := binary.LittleEndian.Uint32(tail[16:])
	if indexOff < headerSize || indexOff > size-tailSize {
		return 0, 0, nil, corrupt("index offset %d out of range", indexOff)
	}
	idx := make([]byte, size-tailSize-indexOff)
	if _, err := src.ReadAt(idx, indexOff); err != nil {
		return 0, 0, nil, corrupt("reading index: %v", err)
	}
	if crc32.Checksum(idx, castagnoli) != indexCRC {
		return 0, 0, nil, corrupt("index checksum mismatch")
	}
	if len(idx) < len(indexMagic) || string(idx[:len(indexMagic)]) != indexMagic {
		return 0, 0, nil, corrupt("bad index magic")
	}
	idx = idx[len(indexMagic):]
	nChunks, n := binary.Uvarint(idx)
	if n <= 0 {
		return 0, 0, nil, corrupt("index chunk count")
	}
	idx = idx[n:]
	// Each entry is at least two 1-byte varints plus the 4-byte CRC.
	if nChunks > uint64(len(idx))/6+1 {
		return 0, 0, nil, corrupt("index claims %d chunks in %d bytes", nChunks, len(idx))
	}
	chunks = make([]chunkInfo, 0, nChunks)
	off := int64(headerSize)
	var sum uint64
	for i := uint64(0); i < nChunks; i++ {
		var c chunkInfo
		var fields [2]uint64
		for f := range fields {
			v, n := binary.Uvarint(idx)
			if n <= 0 {
				return 0, 0, nil, corrupt("index entry %d truncated", i)
			}
			fields[f] = v
			idx = idx[n:]
		}
		c.records, c.size = fields[0], fields[1]
		if len(idx) < 4 {
			return 0, 0, nil, corrupt("index entry %d truncated", i)
		}
		c.crc = binary.LittleEndian.Uint32(idx)
		idx = idx[4:]
		if c.records == 0 || c.records > uint64(chunkRecords) {
			return 0, 0, nil, corrupt("chunk %d holds %d records, chunk size is %d", i, c.records, chunkRecords)
		}
		if i+1 < nChunks && c.records != uint64(chunkRecords) {
			return 0, 0, nil, corrupt("interior chunk %d holds %d records, want %d", i, c.records, chunkRecords)
		}
		if c.size > uint64(indexOff-off) {
			return 0, 0, nil, corrupt("chunk %d frame length %d exceeds data region", i, c.size)
		}
		if c.size < c.records*minRecordBytes || c.size > c.records*maxRecordBytes {
			return 0, 0, nil, corrupt("chunk %d frame length %d implausible for %d records", i, c.size, c.records)
		}
		c.offset = off
		off += int64(c.size)
		sum += c.records
		chunks = append(chunks, c)
	}
	if len(idx) != 0 {
		return 0, 0, nil, corrupt("index has %d trailing bytes", len(idx))
	}
	if off != indexOff {
		return 0, 0, nil, corrupt("chunk frames end at %d, index starts at %d", off, indexOff)
	}
	if sum != total {
		return 0, 0, nil, corrupt("chunks hold %d records, tail says %d", sum, total)
	}
	return chunkRecords, total, chunks, nil
}

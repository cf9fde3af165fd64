package cube

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Format version 3: chunked checksums.
//
// The chunk table sits between the fixed 32-byte header and the sample
// payload:
//
//	offset  size  field
//	32      4     chunk size in bytes (uint32, a positive multiple of 8)
//	36      4     chunk count (uint32) == ceil(payload bytes / chunk size)
//	40      4*n   CRC-32C of each payload chunk, in order
//	40+4n   ...   samples
//
// The header's checksum word covers the whole payload; the per-chunk CRCs
// let a reader shard verification and decoding across workers, and let a
// corrupt chunk be re-read individually instead of refetching the whole
// multi-megabyte cube. Every chunk except the last is exactly ChunkSize
// bytes; chunk boundaries fall on sample boundaries because the chunk size
// must be a multiple of the 8-byte sample encoding.

// FormatVersionChunked is the chunked format version, the only one read
// and written.
const FormatVersionChunked = 3

// DefaultChunkSize is the chunk granularity the dataset writer uses: it
// matches the default 64 KiB stripe unit, so one degraded stripe server
// corrupts O(1) chunks of a cube rather than forcing a whole-file re-read.
const DefaultChunkSize = 64 << 10

// chunkTableFixed is the size of the chunk-table preamble (chunk size and
// chunk count words) preceding the per-chunk CRCs.
const chunkTableFixed = 8

// chunkCount returns how many chunks an n-byte payload splits into.
func chunkCount(n int64, chunkSize int) int {
	return int((n + int64(chunkSize) - 1) / int64(chunkSize))
}

// validChunkSize reports whether a chunk size is usable: positive and
// sample-aligned.
func validChunkSize(chunkSize int) bool {
	return chunkSize > 0 && chunkSize%8 == 0
}

// TableBytes returns the size of the header's chunk table.
func (h *Header) TableBytes() int64 {
	return chunkTableFixed + 4*int64(chunkCount(h.Bytes(), h.ChunkSize))
}

// PayloadOffset returns the file offset at which the sample payload starts.
func (h *Header) PayloadOffset() int64 { return HeaderSize + h.TableBytes() }

// Chunks returns the number of payload chunks (zero until the chunk table
// is decoded).
func (h *Header) Chunks() int { return len(h.ChunkCRCs) }

// ChunkSpan returns the byte range [lo, hi) of chunk i within the payload.
func (h *Header) ChunkSpan(i int) (lo, hi int64) {
	lo = int64(i) * int64(h.ChunkSize)
	hi = lo + int64(h.ChunkSize)
	if n := h.Bytes(); hi > n {
		hi = n
	}
	return lo, hi
}

// FileBytesChunked returns the total encoded size of a cube file with
// dimensions d: header, chunk table, payload.
func FileBytesChunked(d Dims, chunkSize int) int64 {
	return HeaderSize + chunkTableFixed + 4*int64(chunkCount(d.Bytes(), chunkSize)) + d.Bytes()
}

// EncodeChunked serialises cb with sequence number seq into buf: samples
// first, then the chunk table and header carrying
// their checksums. buf must be at least FileBytesChunked(cb.Dims, chunkSize)
// long. It panics on an invalid chunk size (not a positive multiple of 8) —
// a programmer error, like invalid dimensions in New.
func EncodeChunked(cb *Cube, seq uint64, chunkSize int, buf []byte) {
	if !validChunkSize(chunkSize) {
		panic(fmt.Sprintf("cube: invalid chunk size %d (want a positive multiple of 8)", chunkSize))
	}
	h := Header{Dims: cb.Dims, Seq: seq, Version: FormatVersionChunked, ChunkSize: chunkSize}
	off := h.PayloadOffset()
	payload := buf[off : off+cb.Bytes()]
	EncodeSamples(cb, payload)
	h.Checksum = Checksum(payload)
	EncodeHeader(h, buf)
	table := buf[HeaderSize:off]
	n := chunkCount(cb.Bytes(), chunkSize)
	binary.LittleEndian.PutUint32(table[0:4], uint32(chunkSize))
	binary.LittleEndian.PutUint32(table[4:8], uint32(n))
	for i := 0; i < n; i++ {
		lo, hi := h.ChunkSpan(i)
		binary.LittleEndian.PutUint32(table[chunkTableFixed+4*i:], Checksum(payload[lo:hi]))
	}
}

// DecodeChunkTable parses the chunk table of header h from buf, which
// starts at file offset HeaderSize, filling h.ChunkSize and h.ChunkCRCs.
// A structurally
// impossible table (bad chunk size, count disagreeing with the payload
// size) reports ErrCorrupt; a buffer too short for the table, ErrTruncated.
func DecodeChunkTable(h *Header, buf []byte) error {
	if len(buf) < chunkTableFixed {
		return fmt.Errorf("%w: chunk table preamble is %d bytes, want %d", ErrTruncated, len(buf), chunkTableFixed)
	}
	cs := int(binary.LittleEndian.Uint32(buf[0:4]))
	n := int(binary.LittleEndian.Uint32(buf[4:8]))
	if !validChunkSize(cs) {
		return fmt.Errorf("%w: chunk size %d is not a positive multiple of 8", ErrCorrupt, cs)
	}
	if want := chunkCount(h.Bytes(), cs); n != want {
		return fmt.Errorf("%w: chunk count %d, want %d for %d payload bytes at chunk size %d",
			ErrCorrupt, n, want, h.Bytes(), cs)
	}
	if len(buf) < chunkTableFixed+4*n {
		return fmt.Errorf("%w: chunk table is %d bytes, want %d", ErrTruncated, len(buf), chunkTableFixed+4*n)
	}
	h.ChunkSize = cs
	h.ChunkCRCs = make([]uint32, n)
	for i := range h.ChunkCRCs {
		h.ChunkCRCs[i] = binary.LittleEndian.Uint32(buf[chunkTableFixed+4*i:])
	}
	return nil
}

// ParseHeader decodes the fixed header and the chunk table from the front
// of a whole-file buffer.
func ParseHeader(buf []byte) (Header, error) {
	h, err := DecodeHeader(buf)
	if err != nil {
		return h, err
	}
	if err := DecodeChunkTable(&h, buf[HeaderSize:]); err != nil {
		return h, err
	}
	return h, nil
}

// VerifyChunks checks payload chunks [lo, hi) against the header's chunk
// table and appends the indices of mismatching chunks to bad, returning the
// extended slice. A payload shorter than the chunked span is ErrTruncated.
func VerifyChunks(h *Header, payload []byte, lo, hi int, bad []int) ([]int, error) {
	if int64(len(payload)) < h.Bytes() {
		return bad, fmt.Errorf("%w: payload is %d bytes, want %d", ErrTruncated, len(payload), h.Bytes())
	}
	for i := lo; i < hi; i++ {
		clo, chi := h.ChunkSpan(i)
		if Checksum(payload[clo:chi]) != h.ChunkCRCs[i] {
			bad = append(bad, i)
		}
	}
	return bad, nil
}

// DecodeChunk parses the samples covered by payload chunk i into cb.
func DecodeChunk(cb *Cube, h *Header, payload []byte, i int) {
	lo, hi := h.ChunkSpan(i)
	DecodeSampleRange(cb, payload, int(lo/8), int(hi/8))
}

// VerifyChunkData checks a standalone chunk — the bytes of payload chunk i
// on their own, as they arrive from a stream — against the header's chunk
// table. The data must be exactly the chunk's span (short data is
// ErrTruncated, long data ErrCorrupt: a framing error either way).
func VerifyChunkData(h *Header, i int, data []byte) error {
	if i < 0 || i >= h.Chunks() {
		return fmt.Errorf("%w: chunk index %d out of range [0,%d)", ErrCorrupt, i, h.Chunks())
	}
	lo, hi := h.ChunkSpan(i)
	if int64(len(data)) < hi-lo {
		return fmt.Errorf("%w: chunk %d is %d bytes, want %d", ErrTruncated, i, len(data), hi-lo)
	}
	if int64(len(data)) > hi-lo {
		return fmt.Errorf("%w: chunk %d is %d bytes, want %d", ErrCorrupt, i, len(data), hi-lo)
	}
	if got := Checksum(data); got != h.ChunkCRCs[i] {
		return fmt.Errorf("%w: chunk %d CRC %08x, table says %08x (CPI %d)", ErrCorrupt, i, got, h.ChunkCRCs[i], h.Seq)
	}
	return nil
}

// DecodeChunkData parses a standalone chunk — data holding exactly the
// bytes of payload chunk i — into the chunk's sample range of cb. Unlike
// DecodeChunk, the data is the chunk alone, not the whole payload, so a
// streaming consumer can decode straight out of a transport read buffer
// without ever assembling the full file image. The caller is expected to
// have verified the chunk (VerifyChunkData) first.
func DecodeChunkData(cb *Cube, h *Header, i int, data []byte) {
	lo, _ := h.ChunkSpan(i)
	base := int(lo / 8)
	n := len(data) / 8
	for s := 0; s < n; s++ {
		cb.Data[base+s] = complex(
			math.Float32frombits(binary.LittleEndian.Uint32(data[s*8:])),
			math.Float32frombits(binary.LittleEndian.Uint32(data[s*8+4:])))
	}
}

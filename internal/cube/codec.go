package cube

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// File format
//
// A cube file is the unit the radar writes and the STAP pipeline reads.
// It begins with a fixed 32-byte header, then a chunk table (chunks.go),
// then the complex64 sample array in little-endian (real, imag) float32
// pairs:
//
//	offset  size  field
//	0       4     magic "SCPI"
//	4       4     format version (uint32, always 3)
//	8       4     channels (uint32)
//	12      4     pulses   (uint32)
//	16      4     ranges   (uint32)
//	20      8     CPI sequence number (uint64)
//	28      4     CRC-32C of the whole sample payload
//	32      ...   chunk table, then samples
//
// Any other version fails with ErrVersion; a dataset in an older layout
// is regenerated with pfsgen.

// Magic identifies a cube file.
const Magic = "SCPI"

// HeaderSize is the size in bytes of the fixed cube file header.
const HeaderSize = 32

// FormatVersion is the one cube file format version this package reads
// and writes.
const FormatVersion = FormatVersionChunked

// Typed codec failures, matched with errors.Is so the pipeline's resilience
// layer can distinguish detected corruption (retryable) from structural
// decode failures.
var (
	// ErrTruncated reports a file shorter than its header claims.
	ErrTruncated = errors.New("cube: truncated file")
	// ErrCorrupt reports a payload or header that fails integrity checks.
	ErrCorrupt = errors.New("cube: corrupt file")
	// ErrVersion reports a header whose format version this package does
	// not read: the retired flat versions 1 and 2, or an unknown one.
	ErrVersion = errors.New("cube: unsupported format version")
)

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of an encoded sample payload.
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// Header describes the metadata stored at the front of a cube file.
type Header struct {
	Dims
	Seq uint64 // CPI sequence number
	// Checksum is the CRC-32C of the whole encoded payload.
	Checksum uint32
	// Version is the file's format version (EncodeHeader writes zero as
	// FormatVersion).
	Version int
	// ChunkSize is the payload chunk granularity in bytes. Always a
	// positive multiple of 8 once decoded.
	ChunkSize int
	// ChunkCRCs is the per-chunk CRC-32C table.
	ChunkCRCs []uint32
}

// EncodeHeader writes the 32-byte header for h into buf, which must be at
// least HeaderSize bytes long. A zero h.Version encodes as FormatVersion.
func EncodeHeader(h Header, buf []byte) {
	v := h.Version
	if v == 0 {
		v = FormatVersion
	}
	copy(buf[0:4], Magic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(v))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(h.Channels))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(h.Pulses))
	binary.LittleEndian.PutUint32(buf[16:20], uint32(h.Ranges))
	binary.LittleEndian.PutUint64(buf[20:28], h.Seq)
	binary.LittleEndian.PutUint32(buf[28:32], h.Checksum)
}

// DecodeHeader parses a 32-byte header. Any version but FormatVersion is
// ErrVersion.
func DecodeHeader(buf []byte) (Header, error) {
	var h Header
	if len(buf) < HeaderSize {
		return h, fmt.Errorf("%w: header is %d bytes, want %d", ErrTruncated, len(buf), HeaderSize)
	}
	if string(buf[0:4]) != Magic {
		return h, fmt.Errorf("%w: bad magic %q", ErrCorrupt, buf[0:4])
	}
	v := binary.LittleEndian.Uint32(buf[4:8])
	if v != FormatVersion {
		return h, fmt.Errorf("%w %d (want %d; regenerate the dataset with pfsgen)", ErrVersion, v, FormatVersion)
	}
	h.Version = int(v)
	h.Channels = int(binary.LittleEndian.Uint32(buf[8:12]))
	h.Pulses = int(binary.LittleEndian.Uint32(buf[12:16]))
	h.Ranges = int(binary.LittleEndian.Uint32(buf[16:20]))
	h.Seq = binary.LittleEndian.Uint64(buf[20:28])
	h.Checksum = binary.LittleEndian.Uint32(buf[28:32])
	if !h.Valid() {
		return h, fmt.Errorf("%w: invalid dimensions in header: %v", ErrCorrupt, h.Dims)
	}
	// Bound each dimension so the sample count cannot overflow (and so a
	// corrupt header cannot demand a preposterous payload allocation from
	// a reader that trusts it). Real radar geometries sit far below this.
	if h.Channels > maxDim || h.Pulses > maxDim || h.Ranges > maxDim {
		return h, fmt.Errorf("%w: implausible dimensions in header: %v", ErrCorrupt, h.Dims)
	}
	return h, nil
}

// maxDim bounds each header dimension; three maxed dimensions still keep
// Dims.Bytes comfortably inside int64.
const maxDim = 1 << 16

// EncodeSamples serialises the samples of cb into buf, which must be at
// least cb.Bytes() long.
func EncodeSamples(cb *Cube, buf []byte) {
	for i, v := range cb.Data {
		binary.LittleEndian.PutUint32(buf[i*8:], math.Float32bits(real(v)))
		binary.LittleEndian.PutUint32(buf[i*8+4:], math.Float32bits(imag(v)))
	}
}

// DecodeSamples parses len(cb.Data) samples from buf into cb.
func DecodeSamples(cb *Cube, buf []byte) error {
	need := int(cb.Bytes())
	if len(buf) < need {
		return fmt.Errorf("cube: payload too short: have %d want %d", len(buf), need)
	}
	DecodeSampleRange(cb, buf, 0, len(cb.Data))
	return nil
}

// DecodeSampleRange parses samples [lo, hi) from the full payload buf into
// cb — the shard a decode worker handles. Bounds are the caller's problem
// (the chunk table guarantees sample-aligned spans).
func DecodeSampleRange(cb *Cube, buf []byte, lo, hi int) {
	for i := lo; i < hi; i++ {
		re := math.Float32frombits(binary.LittleEndian.Uint32(buf[i*8:]))
		im := math.Float32frombits(binary.LittleEndian.Uint32(buf[i*8+4:]))
		cb.Data[i] = complex(re, im)
	}
}

// PatchSeq restamps the CPI sequence number of an already encoded cube
// file in place. The sequence number lives in the fixed header, outside
// every checksum (the payload CRC and the chunk table cover samples
// only), so replaying one encoded cube under many sequence numbers — the
// network load generator's trick — costs a header patch, not a re-encode.
func PatchSeq(file []byte, seq uint64) error {
	if len(file) < HeaderSize {
		return fmt.Errorf("%w: file is %d bytes, want at least %d", ErrTruncated, len(file), HeaderSize)
	}
	if string(file[0:4]) != Magic {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, file[0:4])
	}
	binary.LittleEndian.PutUint64(file[20:28], seq)
	return nil
}

// sizedBuf returns buf resliced to n bytes, reusing its capacity when it
// suffices and allocating otherwise.
func sizedBuf(buf []byte, n int64) []byte {
	if int64(cap(buf)) >= n {
		return buf[:n]
	}
	return make([]byte, n)
}

// WriteChunked serialises cb to w, reusing buf as scratch when it is
// large enough (nil allocates).
func WriteChunked(w io.Writer, cb *Cube, seq uint64, chunkSize int, buf []byte) error {
	buf = sizedBuf(buf, FileBytesChunked(cb.Dims, chunkSize))
	EncodeChunked(cb, seq, chunkSize, buf)
	_, err := w.Write(buf)
	return err
}

// readFull wraps io.ReadFull, typing short reads as ErrTruncated.
func readFull(r io.Reader, buf []byte, what string) error {
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			err = fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		return fmt.Errorf("cube: reading %s: %w", what, err)
	}
	return nil
}

// Read parses a full cube file from r, verifying its chunk checksums.
func Read(r io.Reader) (*Cube, Header, error) {
	return ReadBuf(r, nil, nil)
}

// ReadBuf is Read with caller-supplied reuse: a cube of matching dimensions
// is decoded into rather than freshly allocated, and buf serves as the
// file scratch when large enough. Apart from the header's chunk-CRC table
// a sized call allocates nothing.
func ReadBuf(r io.Reader, cb *Cube, buf []byte) (*Cube, Header, error) {
	// The table size depends on the chunk size, so read the header and
	// the table's fixed preamble first, then the rest of the file.
	pre := HeaderSize + chunkTableFixed
	buf = sizedBuf(buf, int64(pre))
	if err := readFull(r, buf[:HeaderSize], "header"); err != nil {
		return nil, Header{}, err
	}
	h, err := DecodeHeader(buf[:HeaderSize])
	if err != nil {
		return nil, Header{}, err
	}
	if err := readFull(r, buf[HeaderSize:pre], "chunk table"); err != nil {
		return nil, Header{}, err
	}
	cs := int(binary.LittleEndian.Uint32(buf[HeaderSize:]))
	if !validChunkSize(cs) {
		return nil, Header{}, fmt.Errorf("%w: chunk size %d is not a positive multiple of 8", ErrCorrupt, cs)
	}
	n := FileBytesChunked(h.Dims, cs)
	if int64(cap(buf)) < n {
		buf = append(make([]byte, 0, n), buf[:pre]...)
	}
	buf = buf[:n]
	if err := readFull(r, buf[pre:], "chunk table and payload"); err != nil {
		return nil, Header{}, err
	}
	if err := DecodeChunkTable(&h, buf[HeaderSize:]); err != nil {
		return nil, Header{}, err
	}
	payload := buf[h.PayloadOffset():]
	bad, err := VerifyChunks(&h, payload, 0, h.Chunks(), nil)
	if err != nil {
		return nil, Header{}, err
	}
	if len(bad) > 0 {
		return nil, Header{}, fmt.Errorf("%w: %d of %d chunks failed their CRC (first: chunk %d; CPI %d)",
			ErrCorrupt, len(bad), h.Chunks(), bad[0], h.Seq)
	}
	if cb == nil || cb.Dims != h.Dims {
		cb = New(h.Dims)
	}
	if err := DecodeSamples(cb, payload); err != nil {
		return nil, Header{}, err
	}
	return cb, h, nil
}

// Package serve turns the STAP reproduction into a long-running network
// detection service: remote producers stream CPI cubes over TCP, a server
// dispatches them across a pool of real pipeline replicas (pipexec.Stream),
// and each CPI's detection reports stream back on the same connection.
//
// The wire protocol streams the chunked cube file format: each CPI
// crosses as its header and chunk table, then one frame per chunk, then an
// end marker. The per-chunk CRC-32C protection the striped file store uses
// carries over the network unchanged: a CPI whose chunks arrive corrupt is
// repaired by re-requesting exactly those chunks from the producer — the
// network mirror of the file path's partial re-read — instead of dropping
// or re-sending the whole CPI.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"stapio/internal/cube"
)

// Protocol constants.
const (
	// ProtoMagic opens every hello payload, rejecting strays that happen
	// to connect to the service port.
	ProtoMagic = "SNET"
	// ProtoVersion is the wire protocol version this package speaks.
	ProtoVersion = 1

	// framePrelude is the fixed per-frame prefix: payload length (uint32),
	// frame type (uint8), and three reserved zero bytes.
	framePrelude = 8

	// DefaultMaxFrameBytes bounds a single frame; connections exceeding it
	// are dropped (a length that large is corruption or abuse, and the
	// reader must not allocate it). 16 MiB cubes plus framing fit with
	// room to spare.
	DefaultMaxFrameBytes = 64 << 20
)

// Frame types. A submit carries the encoded cube header itself — dims,
// sequence number, chunk table — so none of it is duplicated in the
// framing. Type 3 is unassigned.
const (
	fHello     = 1 // client → server: magic, proto version, cube dims
	fHelloAck  = 2 // server → client: proto version, admission capacity
	fAccept    = 4 // server → client: seq verified and dispatched
	fReject    = 5 // server → client: seq refused (typed code + message)
	fRepairReq = 6 // server → client: seq, repair round, corrupt chunk list
	fRepair    = 7 // client → server: seq, round, re-sent chunk bytes
	fResult    = 8 // server → client: server latency + encoded reports
	fGoodbye   = 9 // server → client: draining; stop submitting

	// Submit (client → server): a cube travels as one fSubmitHdr carrying
	// only the encoded header + chunk table, then one fChunk per chunk
	// (16-byte prefix + raw chunk bytes), then fSubmitEnd. The server
	// decodes each chunk straight from the connection read buffer into a
	// pooled cube slab — no file image is ever materialised server-side.
	// Missing or corrupt chunks are repaired through the
	// fRepairReq/fRepair exchange.
	fSubmitHdr = 10 // client → server: cube header + chunk table only
	fChunk     = 11 // client → server: seq, chunk index, raw chunk bytes
	fSubmitEnd = 12 // client → server: seq; all chunks sent
)

// Reject codes — the typed reasons a submitted CPI is refused.
const (
	// CodeOverloaded: admission control found no in-flight slot free. The
	// producer should back off; nothing was queued.
	CodeOverloaded = 1
	// CodeDraining: the server is shutting down gracefully and accepts no
	// new CPIs (in-flight ones still complete).
	CodeDraining = 2
	// CodeCorrupt: the payload failed its checksums and chunk re-requests
	// could not repair it within the server's repair budget.
	CodeCorrupt = 3
	// CodeBadFrame: the frame was structurally invalid (bad cube header,
	// length mismatch, malformed or stale repair).
	CodeBadFrame = 4
	// CodeBadDims: the cube geometry does not match the service's
	// configured pipeline parameters.
	CodeBadDims = 5
)

// rejectCodeName maps codes onto the strings logs and errors show.
func rejectCodeName(code uint32) string {
	switch code {
	case CodeOverloaded:
		return "overloaded"
	case CodeDraining:
		return "draining"
	case CodeCorrupt:
		return "corrupt"
	case CodeBadFrame:
		return "bad-frame"
	case CodeBadDims:
		return "bad-dims"
	default:
		return fmt.Sprintf("code-%d", code)
	}
}

// Typed sentinel errors the client surfaces for rejects, matched with
// errors.Is.
var (
	// ErrOverloaded reports an admission-control reject: the server had no
	// free in-flight slot for the CPI.
	ErrOverloaded = errors.New("serve: server overloaded")
	// ErrDraining reports a reject because the server is shutting down.
	ErrDraining = errors.New("serve: server draining")
	// ErrCorrupt reports a CPI the server could not repair via chunk
	// re-requests.
	ErrCorrupt = errors.New("serve: unrecoverable frame corruption")
	// ErrClosed reports an operation on a closed connection.
	ErrClosed = errors.New("serve: connection closed")
)

// rejectError converts a wire reject code into the client-facing error.
func rejectError(code uint32, msg string) error {
	switch code {
	case CodeOverloaded:
		return fmt.Errorf("%w: %s", ErrOverloaded, msg)
	case CodeDraining:
		return fmt.Errorf("%w: %s", ErrDraining, msg)
	case CodeCorrupt:
		return fmt.Errorf("%w: %s", ErrCorrupt, msg)
	default:
		return fmt.Errorf("serve: CPI rejected (%s): %s", rejectCodeName(code), msg)
	}
}

// putPrelude fills the 8-byte frame prelude.
func putPrelude(buf []byte, ftype byte, n int) {
	binary.LittleEndian.PutUint32(buf[0:4], uint32(n))
	buf[4] = ftype
	buf[5], buf[6], buf[7] = 0, 0, 0
}

// writeFrame writes one frame (prelude + payload) to w. On a net.Conn the
// two spans go out as one vectored write, so every frame costs a single
// syscall and no payload copy.
func writeFrame(w io.Writer, ftype byte, payload []byte) error {
	var pre [framePrelude]byte
	putPrelude(pre[:], ftype, len(payload))
	if len(payload) == 0 {
		_, err := w.Write(pre[:])
		return err
	}
	if c, ok := w.(net.Conn); ok {
		bufs := net.Buffers{pre[:], payload}
		_, err := bufs.WriteTo(c)
		return err
	}
	if _, err := w.Write(pre[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// writeFrames writes a batch of frames — each a prelude plus any number of
// payload spans — as one vectored write on a net.Conn. A full streaming
// submit (header frame, every chunk frame, end frame) goes out in a single
// writev with zero payload copies; preludes are built here, payload spans
// are referenced in place.
type frameSpans struct {
	ftype byte
	spans [][]byte
}

func writeFrames(w io.Writer, frames []frameSpans) error {
	bufs := make(net.Buffers, 0, len(frames)*3)
	pres := make([]byte, len(frames)*framePrelude)
	for i, f := range frames {
		n := 0
		for _, s := range f.spans {
			n += len(s)
		}
		pre := pres[i*framePrelude : (i+1)*framePrelude]
		putPrelude(pre, f.ftype, n)
		bufs = append(bufs, pre)
		for _, s := range f.spans {
			if len(s) > 0 {
				bufs = append(bufs, s)
			}
		}
	}
	if c, ok := w.(net.Conn); ok {
		_, err := bufs.WriteTo(c)
		return err
	}
	for _, b := range bufs {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// Chunk frame prefix: seq(8) chunk-index(4) reserved(4), followed by the
// chunk's raw payload bytes.
const chunkPrefixLen = 16

func putChunkPrefix(buf []byte, seq uint64, idx int) {
	binary.LittleEndian.PutUint64(buf[0:8], seq)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(idx))
	binary.LittleEndian.PutUint32(buf[12:16], 0)
}

func decodeChunkPrefix(buf []byte) (seq uint64, idx int, err error) {
	if len(buf) < chunkPrefixLen {
		return 0, 0, fmt.Errorf("serve: chunk frame of %d bytes is shorter than its %d-byte prefix", len(buf), chunkPrefixLen)
	}
	if r := binary.LittleEndian.Uint32(buf[12:16]); r != 0 {
		return 0, 0, fmt.Errorf("serve: chunk prefix reserved word is %#x, want 0", r)
	}
	return binary.LittleEndian.Uint64(buf[0:8]), int(binary.LittleEndian.Uint32(buf[8:12])), nil
}

// Submit-end payload: seq(8).
const submitEndLen = 8

func encodeSubmitEnd(seq uint64) []byte {
	buf := make([]byte, submitEndLen)
	binary.LittleEndian.PutUint64(buf, seq)
	return buf
}

func decodeSubmitEnd(buf []byte) (uint64, error) {
	if len(buf) != submitEndLen {
		return 0, fmt.Errorf("serve: submit-end payload is %d bytes, want %d", len(buf), submitEndLen)
	}
	return binary.LittleEndian.Uint64(buf), nil
}

// readPrelude reads the next frame's prelude into pre (framePrelude bytes
// of caller scratch, so a reader loop allocates nothing per frame),
// returning its type and payload length, bounded by maxFrame.
func readPrelude(r io.Reader, pre []byte, maxFrame int64) (ftype byte, n int, err error) {
	if _, err := io.ReadFull(r, pre[:framePrelude]); err != nil {
		return 0, 0, err
	}
	length := int64(binary.LittleEndian.Uint32(pre[0:4]))
	if length > maxFrame {
		return 0, 0, fmt.Errorf("serve: frame of %d bytes exceeds the %d-byte limit", length, maxFrame)
	}
	if pre[5]|pre[6]|pre[7] != 0 {
		return 0, 0, fmt.Errorf("serve: frame prelude reserved bytes %x are not zero", pre[5:8])
	}
	return pre[4], int(length), nil
}

// Hello payload: magic(4) version(4) channels(4) pulses(4) ranges(4).
const helloLen = 20

func encodeHello(d cube.Dims) []byte {
	buf := make([]byte, helloLen)
	copy(buf[0:4], ProtoMagic)
	binary.LittleEndian.PutUint32(buf[4:8], ProtoVersion)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(d.Channels))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(d.Pulses))
	binary.LittleEndian.PutUint32(buf[16:20], uint32(d.Ranges))
	return buf
}

func decodeHello(buf []byte) (cube.Dims, error) {
	var d cube.Dims
	if len(buf) != helloLen {
		return d, fmt.Errorf("serve: hello payload is %d bytes, want %d", len(buf), helloLen)
	}
	if string(buf[0:4]) != ProtoMagic {
		return d, fmt.Errorf("serve: bad hello magic %q", buf[0:4])
	}
	if v := binary.LittleEndian.Uint32(buf[4:8]); v != ProtoVersion {
		return d, fmt.Errorf("serve: unsupported protocol version %d (want %d)", v, ProtoVersion)
	}
	d.Channels = int(binary.LittleEndian.Uint32(buf[8:12]))
	d.Pulses = int(binary.LittleEndian.Uint32(buf[12:16]))
	d.Ranges = int(binary.LittleEndian.Uint32(buf[16:20]))
	if !d.Valid() {
		return d, fmt.Errorf("serve: hello carries invalid dims %v", d)
	}
	return d, nil
}

// HelloAck payload: version(4) max-in-flight(4).
const helloAckLen = 8

func encodeHelloAck(maxInFlight int) []byte {
	buf := make([]byte, helloAckLen)
	binary.LittleEndian.PutUint32(buf[0:4], ProtoVersion)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(maxInFlight))
	return buf
}

func decodeHelloAck(buf []byte) (maxInFlight int, err error) {
	if len(buf) != helloAckLen {
		return 0, fmt.Errorf("serve: hello-ack payload is %d bytes, want %d", len(buf), helloAckLen)
	}
	if v := binary.LittleEndian.Uint32(buf[0:4]); v != ProtoVersion {
		return 0, fmt.Errorf("serve: unsupported protocol version %d (want %d)", v, ProtoVersion)
	}
	return int(binary.LittleEndian.Uint32(buf[4:8])), nil
}

// Accept payload: seq(8).
func encodeAccept(seq uint64) []byte {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, seq)
	return buf
}

func decodeAccept(buf []byte) (uint64, error) {
	if len(buf) != 8 {
		return 0, fmt.Errorf("serve: accept payload is %d bytes, want 8", len(buf))
	}
	return binary.LittleEndian.Uint64(buf), nil
}

// Reject payload: seq(8) code(4) message.
func encodeReject(seq uint64, code uint32, msg string) []byte {
	buf := make([]byte, 12+len(msg))
	binary.LittleEndian.PutUint64(buf[0:8], seq)
	binary.LittleEndian.PutUint32(buf[8:12], code)
	copy(buf[12:], msg)
	return buf
}

func decodeReject(buf []byte) (seq uint64, code uint32, msg string, err error) {
	if len(buf) < 12 {
		return 0, 0, "", fmt.Errorf("serve: reject payload is %d bytes, want >= 12", len(buf))
	}
	return binary.LittleEndian.Uint64(buf[0:8]), binary.LittleEndian.Uint32(buf[8:12]), string(buf[12:]), nil
}

// RepairReq payload: seq(8) round(4) count(4) chunk-index(4)*count.
func encodeRepairReq(seq uint64, round int, chunks []int) []byte {
	buf := make([]byte, 16+4*len(chunks))
	binary.LittleEndian.PutUint64(buf[0:8], seq)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(round))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(chunks)))
	for i, c := range chunks {
		binary.LittleEndian.PutUint32(buf[16+4*i:], uint32(c))
	}
	return buf
}

func decodeRepairReq(buf []byte) (seq uint64, round int, chunks []int, err error) {
	if len(buf) < 16 {
		return 0, 0, nil, fmt.Errorf("serve: repair request is %d bytes, want >= 16", len(buf))
	}
	seq = binary.LittleEndian.Uint64(buf[0:8])
	round = int(binary.LittleEndian.Uint32(buf[8:12]))
	n := int(binary.LittleEndian.Uint32(buf[12:16]))
	if len(buf) != 16+4*n {
		return 0, 0, nil, fmt.Errorf("serve: repair request declares %d chunks in %d bytes", n, len(buf))
	}
	chunks = make([]int, n)
	for i := range chunks {
		chunks[i] = int(binary.LittleEndian.Uint32(buf[16+4*i:]))
	}
	return seq, round, chunks, nil
}

// Repair payload: seq(8) round(4) count(4), then per chunk:
// index(4) length(4) bytes.
type repairChunk struct {
	index int
	data  []byte
}

func encodeRepair(seq uint64, round int, chunks []repairChunk) []byte {
	n := 16
	for _, c := range chunks {
		n += 8 + len(c.data)
	}
	buf := make([]byte, n)
	binary.LittleEndian.PutUint64(buf[0:8], seq)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(round))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(chunks)))
	off := 16
	for _, c := range chunks {
		binary.LittleEndian.PutUint32(buf[off:], uint32(c.index))
		binary.LittleEndian.PutUint32(buf[off+4:], uint32(len(c.data)))
		copy(buf[off+8:], c.data)
		off += 8 + len(c.data)
	}
	return buf
}

// decodeRepair parses a repair frame; the returned chunk data slices alias
// buf, so the caller must consume them before reusing the buffer.
func decodeRepair(buf []byte) (seq uint64, round int, chunks []repairChunk, err error) {
	if len(buf) < 16 {
		return 0, 0, nil, fmt.Errorf("serve: repair payload is %d bytes, want >= 16", len(buf))
	}
	seq = binary.LittleEndian.Uint64(buf[0:8])
	round = int(binary.LittleEndian.Uint32(buf[8:12]))
	n := int(binary.LittleEndian.Uint32(buf[12:16]))
	// The count is attacker-controlled; every chunk needs at least its
	// 8-byte index/length prefix, so bound it by the frame length before
	// sizing the slice (mirrors decodeRepairReq's length check).
	if n < 0 || n > (len(buf)-16)/8 {
		return 0, 0, nil, fmt.Errorf("serve: repair payload declares %d chunks in %d bytes", n, len(buf))
	}
	chunks = make([]repairChunk, 0, n)
	off := 16
	for i := 0; i < n; i++ {
		if len(buf) < off+8 {
			return 0, 0, nil, fmt.Errorf("serve: repair payload truncated at chunk %d", i)
		}
		idx := int(binary.LittleEndian.Uint32(buf[off:]))
		ln := int(binary.LittleEndian.Uint32(buf[off+4:]))
		off += 8
		if ln < 0 || len(buf) < off+ln {
			return 0, 0, nil, fmt.Errorf("serve: repair chunk %d declares %d bytes past the frame end", i, ln)
		}
		chunks = append(chunks, repairChunk{index: idx, data: buf[off : off+ln]})
		off += ln
	}
	if off != len(buf) {
		return 0, 0, nil, fmt.Errorf("serve: repair payload has %d trailing bytes", len(buf)-off)
	}
	return seq, round, chunks, nil
}

// Result payload: server-side latency in nanoseconds (8), then the encoded
// report file (pipexec.EncodeReports), which itself carries the seq.
func encodeResultPrefix(serverNs int64) []byte {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, uint64(serverNs))
	return buf
}

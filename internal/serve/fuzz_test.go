package serve

import (
	"bytes"
	"runtime"
	"testing"

	"stapio/internal/cube"
)

// frameDecoder parses one wire frame payload and, on success, returns the
// bytes its encoder produces for what it decoded.
type frameDecoder func(data []byte) (reencode func() []byte, err error)

// frameDecoders is every decoder of the wire protocol, indexed by the
// fuzz input's selector byte.
var frameDecoders = []frameDecoder{
	func(b []byte) (func() []byte, error) {
		ftype, n, err := readPrelude(bytes.NewReader(b), make([]byte, framePrelude), DefaultMaxFrameBytes)
		return func() []byte {
			// readPrelude consumes the prelude only; the rest is payload.
			out := make([]byte, framePrelude, len(b))
			putPrelude(out, ftype, n)
			return append(out, b[framePrelude:]...)
		}, err
	},
	func(b []byte) (func() []byte, error) {
		d, err := decodeHello(b)
		return func() []byte { return encodeHello(d) }, err
	},
	func(b []byte) (func() []byte, error) {
		n, err := decodeHelloAck(b)
		return func() []byte { return encodeHelloAck(n) }, err
	},
	func(b []byte) (func() []byte, error) {
		seq, err := decodeAccept(b)
		return func() []byte { return encodeAccept(seq) }, err
	},
	func(b []byte) (func() []byte, error) {
		seq, code, msg, err := decodeReject(b)
		return func() []byte { return encodeReject(seq, code, msg) }, err
	},
	func(b []byte) (func() []byte, error) {
		seq, round, chunks, err := decodeRepairReq(b)
		return func() []byte { return encodeRepairReq(seq, round, chunks) }, err
	},
	func(b []byte) (func() []byte, error) {
		seq, round, chunks, err := decodeRepair(b)
		return func() []byte { return encodeRepair(seq, round, chunks) }, err
	},
	func(b []byte) (func() []byte, error) {
		seq, idx, err := decodeChunkPrefix(b)
		return func() []byte {
			out := make([]byte, chunkPrefixLen, len(b))
			putChunkPrefix(out, seq, idx)
			return append(out, b[chunkPrefixLen:]...)
		}, err
	},
	func(b []byte) (func() []byte, error) {
		seq, err := decodeSubmitEnd(b)
		return func() []byte { return encodeSubmitEnd(seq) }, err
	},
}

// FuzzFrameDecoders drives every wire-frame decoder with arbitrary bytes;
// the first argument picks the decoder. Every input must either fail
// cleanly or re-encode to exactly the bytes it was decoded from, and no
// decoder may allocate more than a small multiple of its input — a length
// or count field must never size an allocation the frame cannot back.
func FuzzFrameDecoders(f *testing.F) {
	prelude := make([]byte, framePrelude)
	putPrelude(prelude, fChunk, 24)
	chunk := make([]byte, chunkPrefixLen+8)
	putChunkPrefix(chunk, 9, 3)
	seeds := [][]byte{
		append(prelude, make([]byte, 24)...),
		encodeHello(cube.Dims{Channels: 4, Pulses: 16, Ranges: 64}),
		encodeHelloAck(32),
		encodeAccept(7),
		encodeReject(7, CodeOverloaded, "all 4 in-flight slots busy"),
		encodeRepairReq(7, 1, []int{0, 5, 15}),
		encodeRepair(7, 1, []repairChunk{{index: 5, data: []byte("chunk five")}, {index: 15}}),
		chunk,
		encodeSubmitEnd(7),
	}
	for kind, b := range seeds {
		f.Add(uint8(kind), b)
	}
	// Hostile counts: a repair request and a repair declaring far more
	// chunks than their frames hold.
	f.Add(uint8(5), []byte{7, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(6), []byte{7, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		dec := frameDecoders[int(kind)%len(frameDecoders)]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		reencode, err := dec(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+(64<<10)); got > limit {
			t.Fatalf("decoder %d allocated %d bytes for a %d-byte input (limit %d)", kind, got, len(data), limit)
		}
		if err != nil {
			return
		}
		if out := reencode(); !bytes.Equal(out, data) {
			t.Fatalf("decoder %d: accepted %x but re-encodes to %x", kind, data, out)
		}
	})
}

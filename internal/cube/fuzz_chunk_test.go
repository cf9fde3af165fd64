package cube

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzChunkData drives the standalone chunk codec — the entry points the
// streaming ingest path feeds straight from network read buffers — with
// arbitrary chunk indices and bytes. Invariants: verification never
// panics and accepts only exact-length, CRC-clean chunk bytes (truncated
// data reports ErrTruncated, anything else ErrCorrupt); bytes that verify
// as the original chunk decode to exactly the original samples of that
// chunk's span and touch nothing outside it; and an accepted chunk one
// byte short is a typed truncation.
func FuzzChunkData(f *testing.F) {
	cb := fuzzCube()
	const chunkSize = 64
	frame := make([]byte, FileBytesChunked(cb.Dims, chunkSize))
	EncodeChunked(cb, 9, chunkSize, frame)
	h, err := ParseHeader(frame)
	if err != nil {
		f.Fatal(err)
	}
	payload := frame[h.PayloadOffset():]
	chunk3 := payload[64*3 : 64*4]

	f.Add(3, chunk3)                               // clean chunk
	f.Add(3, chunk3[:10])                          // truncated mid-chunk
	f.Add(0, chunk3)                               // right bytes, wrong index
	f.Add(-1, []byte{})                            // hostile index
	f.Add(h.Chunks(), chunk3)                      // index past the table
	f.Add(h.Chunks()-1, payload[len(payload)-64:]) // last (short) chunk
	corrupt := append([]byte(nil), chunk3...)
	corrupt[7] ^= 0x40
	f.Add(3, corrupt) // CRC mismatch mid-stream

	f.Fuzz(func(t *testing.T, idx int, data []byte) {
		err := VerifyChunkData(&h, idx, data)
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("VerifyChunkData: unexpected error class %v", err)
			}
			return // rejected inputs only need to fail cleanly
		}
		// Accepted: the index is in range and the length is exact.
		if idx < 0 || idx >= h.Chunks() {
			t.Fatalf("accepted out-of-range chunk index %d", idx)
		}
		lo, hi := h.ChunkSpan(idx)
		if int64(len(data)) != hi-lo {
			t.Fatalf("accepted %d bytes for chunk %d spanning %d", len(data), idx, hi-lo)
		}

		// Decode into a fresh cube and check the chunk's sample range —
		// and only that range — was written.
		dst := New(h.Dims)
		DecodeChunkData(dst, &h, idx, data)
		if bytes.Equal(data, payload[lo:hi]) {
			for s := int(lo / 8); s < int(hi/8); s++ {
				if dst.Data[s] != cb.Data[s] {
					t.Fatalf("chunk %d sample %d decoded %v, want %v", idx, s, dst.Data[s], cb.Data[s])
				}
			}
		}
		for s := range dst.Data {
			if s >= int(lo/8) && s < int(hi/8) {
				continue
			}
			if dst.Data[s] != 0 {
				t.Fatalf("chunk %d decode wrote sample %d outside its span [%d, %d)", idx, s, lo/8, hi/8)
			}
		}

		// One byte short of an accepted chunk is a truncation, typed.
		if len(data) > 0 {
			if err := VerifyChunkData(&h, idx, data[:len(data)-1]); !errors.Is(err, ErrTruncated) {
				t.Fatalf("chunk %d one byte short: got %v, want ErrTruncated", idx, err)
			}
		}
	})
}

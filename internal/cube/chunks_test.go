package cube

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// randomCube fills a cube with pseudo-random samples.
func randomCube(d Dims, seed int64) *Cube {
	cb := New(d)
	rng := rand.New(rand.NewSource(seed))
	for i := range cb.Data {
		cb.Data[i] = complex(rng.Float32()-0.5, rng.Float32()-0.5)
	}
	return cb
}

// encodeChunkedFile serialises a pseudo-random cube as a v3 file.
func encodeChunkedFile(t *testing.T, d Dims, seq uint64, chunkSize int) (*Cube, []byte) {
	t.Helper()
	cb := randomCube(d, int64(seq)+7)
	var buf bytes.Buffer
	if err := WriteChunked(&buf, cb, seq, chunkSize, nil); err != nil {
		t.Fatal(err)
	}
	return cb, buf.Bytes()
}

func TestChunkedRoundTrip(t *testing.T) {
	d := Dims{Channels: 2, Pulses: 5, Ranges: 37} // 2960-byte payload
	for _, chunkSize := range []int{8, 64, 256, 4096} {
		want, raw := encodeChunkedFile(t, d, 11, chunkSize)
		if int64(len(raw)) != FileBytesChunked(d, chunkSize) {
			t.Fatalf("chunk %d: file is %d bytes, want %d", chunkSize, len(raw), FileBytesChunked(d, chunkSize))
		}
		got, h, err := Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("chunk %d: %v", chunkSize, err)
		}
		if h.Version != FormatVersionChunked || h.ChunkSize != chunkSize || h.Seq != 11 {
			t.Fatalf("chunk %d: header %+v", chunkSize, h)
		}
		if wantN := chunkCount(d.Bytes(), chunkSize); h.Chunks() != wantN {
			t.Fatalf("chunk %d: %d chunks, want %d", chunkSize, h.Chunks(), wantN)
		}
		if !Equal(want, got, 0) {
			t.Fatalf("chunk %d: samples differ after round trip", chunkSize)
		}
		// The fixed header still carries the whole-payload CRC (v2 compat).
		if h.Checksum != Checksum(raw[h.PayloadOffset():]) {
			t.Fatalf("chunk %d: header CRC does not cover the payload", chunkSize)
		}
	}
}

func TestChunkSpansTileThePayload(t *testing.T) {
	d := Dims{Channels: 1, Pulses: 3, Ranges: 33} // 792 bytes: last chunk short
	_, raw := encodeChunkedFile(t, d, 1, 256)
	h, err := ParseHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	var pos int64
	for i := 0; i < h.Chunks(); i++ {
		lo, hi := h.ChunkSpan(i)
		if lo != pos || hi <= lo {
			t.Fatalf("chunk %d spans [%d, %d), expected to start at %d", i, lo, hi, pos)
		}
		pos = hi
	}
	if pos != h.Bytes() {
		t.Fatalf("chunks cover %d bytes, payload is %d", pos, h.Bytes())
	}
}

func TestChunkedDetectsAndLocatesCorruption(t *testing.T) {
	d := Dims{Channels: 2, Pulses: 4, Ranges: 64}
	_, raw := encodeChunkedFile(t, d, 3, 512)
	h, err := ParseHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), raw...)
	// Flip one bit in the middle of chunk 2.
	off := h.PayloadOffset() + 2*512 + 100
	flipped[off] ^= 0x10
	payload := flipped[h.PayloadOffset():]
	bad, err := VerifyChunks(&h, payload, 0, h.Chunks(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || bad[0] != 2 {
		t.Fatalf("bad chunks = %v, want [2]", bad)
	}
	for i, want := range map[int]error{2: ErrCorrupt, 1: nil} {
		lo, hi := h.ChunkSpan(i)
		if err := VerifyChunkData(&h, i, payload[lo:hi]); !errors.Is(err, want) {
			t.Fatalf("VerifyChunkData(%d) = %v, want %v", i, err, want)
		}
	}
	// The whole-file reader also rejects it, typed.
	if _, _, err := Read(bytes.NewReader(flipped)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read = %v, want ErrCorrupt", err)
	}
}

func TestChunkTableValidation(t *testing.T) {
	d := Dims{Channels: 1, Pulses: 2, Ranges: 8}
	_, raw := encodeChunkedFile(t, d, 5, 64)
	corrupt := func(mutate func(b []byte)) error {
		b := append([]byte(nil), raw...)
		mutate(b)
		_, _, err := Read(bytes.NewReader(b))
		return err
	}
	// Chunk size not a multiple of 8.
	if err := corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[HeaderSize:], 13) }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("misaligned chunk size: %v, want ErrCorrupt", err)
	}
	// Zero chunk size.
	if err := corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[HeaderSize:], 0) }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("zero chunk size: %v, want ErrCorrupt", err)
	}
	// Chunk count disagreeing with the payload size.
	if err := corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[HeaderSize+4:], 99) }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong chunk count: %v, want ErrCorrupt", err)
	}
	// Truncation inside the chunk table.
	b := raw[:HeaderSize+3]
	if _, _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated table: %v, want ErrTruncated", err)
	}
}

func TestDecodeChunkCoversSampleRanges(t *testing.T) {
	d := Dims{Channels: 2, Pulses: 3, Ranges: 16}
	want, raw := encodeChunkedFile(t, d, 9, 128)
	h, err := ParseHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	payload := raw[h.PayloadOffset():]
	got := New(d)
	// Decode chunks in reverse order; the union must reconstruct the cube.
	for i := h.Chunks() - 1; i >= 0; i-- {
		DecodeChunk(got, &h, payload, i)
	}
	if !Equal(want, got, 0) {
		t.Fatal("chunkwise decode differs from the encoded cube")
	}
}

func TestWriteBufReadBufReuseBuffers(t *testing.T) {
	d := Dims{Channels: 2, Pulses: 3, Ranges: 11}
	cb := randomCube(d, 21)
	scratch := make([]byte, FileBytesChunked(d, 64))
	var enc bytes.Buffer
	if err := WriteChunked(&enc, cb, 4, 64, scratch); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), enc.Bytes()...)

	// Steady-state write into a reused buffer must not allocate.
	allocs := testing.AllocsPerRun(50, func() {
		if err := WriteChunked(io.Discard, cb, 4, 64, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("WriteChunked with pooled buffer: %v allocs/run, want 0", allocs)
	}

	// Steady-state read into reused cube + buffer allocates only the chunk
	// CRC table the returned header carries.
	dst := New(d)
	rd := bytes.NewReader(raw)
	allocs = testing.AllocsPerRun(50, func() {
		rd.Reset(raw)
		got, h, err := ReadBuf(rd, dst, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if got != dst || h.Seq != 4 {
			t.Fatal("ReadBuf did not reuse the destination cube")
		}
	})
	if allocs != 1 {
		t.Errorf("ReadBuf with pooled cube+buffer: %v allocs/run, want 1 (the chunk CRC table)", allocs)
	}
	if !Equal(cb, dst, 0) {
		t.Fatal("ReadBuf round trip lost data")
	}

	// A foreign-geometry destination is replaced, not corrupted.
	other := New(Dims{Channels: 1, Pulses: 1, Ranges: 3})
	rd.Reset(raw)
	got, _, err := ReadBuf(rd, other, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got == other || got.Dims != d {
		t.Fatal("ReadBuf reused a cube of the wrong geometry")
	}
}

package cube

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// encodeFile serialises a pseudo-random cube in 64-byte chunks and returns
// the raw bytes.
func encodeFile(t *testing.T, d Dims, seq uint64) []byte {
	t.Helper()
	cb := New(d)
	rng := rand.New(rand.NewSource(int64(seq) + 99))
	for i := range cb.Data {
		cb.Data[i] = complex(rng.Float32()-0.5, rng.Float32()-0.5)
	}
	var buf bytes.Buffer
	if err := WriteChunked(&buf, cb, seq, 64, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTripCarriesChecksum(t *testing.T) {
	raw := encodeFile(t, Dims{2, 3, 5}, 7)
	got, h, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if h.Chunks() == 0 {
		t.Error("freshly written file should carry a chunk table")
	}
	if h.Checksum != Checksum(raw[h.PayloadOffset():]) {
		t.Error("header checksum does not match payload")
	}
	if h.Seq != 7 || got == nil {
		t.Errorf("round trip lost data: seq %d", h.Seq)
	}
}

func TestReadTruncatedTyped(t *testing.T) {
	raw := encodeFile(t, Dims{2, 3, 5}, 1)
	for _, cut := range []int{0, 5, HeaderSize - 1, HeaderSize, HeaderSize + 9, len(raw) - 1} {
		_, _, err := Read(bytes.NewReader(raw[:cut]))
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("cut at %d: got %v, want ErrTruncated", cut, err)
		}
	}
}

func TestReadBitFlippedPayloadTyped(t *testing.T) {
	raw := encodeFile(t, Dims{2, 3, 5}, 2)
	h, err := ParseHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	off := int(h.PayloadOffset())
	for _, pos := range []int{off, off + 17, len(raw) - 1} {
		flipped := append([]byte(nil), raw...)
		flipped[pos] ^= 0x08
		_, _, err := Read(bytes.NewReader(flipped))
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("flip at %d: got %v, want ErrCorrupt", pos, err)
		}
	}
	// A flipped magic byte is header corruption, also typed.
	flipped := append([]byte(nil), raw...)
	flipped[0] ^= 0x01
	if _, _, err := Read(bytes.NewReader(flipped)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("flipped magic: got %v, want ErrCorrupt", err)
	}
}

// TestFlatVersionsRejected: the flat v1 and v2 layouts are no longer read;
// their headers, like unknown future versions, fail with ErrVersion.
func TestFlatVersionsRejected(t *testing.T) {
	raw := encodeFile(t, Dims{2, 3, 5}, 3)
	for _, v := range []uint32{1, 2, 99} {
		old := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(old[4:8], v)
		if _, err := DecodeHeader(old[:HeaderSize]); !errors.Is(err, ErrVersion) {
			t.Errorf("version %d header: got %v, want ErrVersion", v, err)
		}
		if _, _, err := Read(bytes.NewReader(old)); !errors.Is(err, ErrVersion) {
			t.Errorf("version %d file: got %v, want ErrVersion", v, err)
		}
	}
}

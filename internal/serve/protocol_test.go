package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"stapio/internal/cube"
)

func TestHelloRoundTrip(t *testing.T) {
	d := cube.Dims{Channels: 4, Pulses: 16, Ranges: 64}
	got, err := decodeHello(encodeHello(d))
	if err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Fatalf("hello round trip: got %v, want %v", got, d)
	}
	if _, err := decodeHello(encodeHello(cube.Dims{})); err == nil {
		t.Fatal("invalid dims survived the hello round trip")
	}
	bad := encodeHello(d)
	copy(bad[0:4], "XXXX")
	if _, err := decodeHello(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	n, err := decodeHelloAck(encodeHelloAck(12))
	if err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		t.Fatalf("hello-ack round trip: got %d, want 12", n)
	}
}

func TestRejectRoundTrip(t *testing.T) {
	seq, code, msg, err := decodeReject(encodeReject(42, CodeOverloaded, "busy"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 || code != CodeOverloaded || msg != "busy" {
		t.Fatalf("reject round trip: got (%d, %d, %q)", seq, code, msg)
	}
}

func TestRejectErrorTypes(t *testing.T) {
	cases := []struct {
		code uint32
		want error
	}{
		{CodeOverloaded, ErrOverloaded},
		{CodeDraining, ErrDraining},
		{CodeCorrupt, ErrCorrupt},
	}
	for _, c := range cases {
		if err := rejectError(c.code, "x"); !errors.Is(err, c.want) {
			t.Errorf("code %d: %v does not match %v", c.code, err, c.want)
		}
	}
	if err := rejectError(CodeBadDims, "geometry"); !strings.Contains(err.Error(), "bad-dims") {
		t.Errorf("bad-dims reject error %q lacks its code name", err)
	}
}

func TestRepairReqRoundTrip(t *testing.T) {
	seq, round, chunks, err := decodeRepairReq(encodeRepairReq(7, 2, []int{1, 5, 9}))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 || round != 2 || len(chunks) != 3 || chunks[0] != 1 || chunks[2] != 9 {
		t.Fatalf("repair-req round trip: got (%d, %d, %v)", seq, round, chunks)
	}
	if _, _, _, err := decodeRepairReq(encodeRepairReq(7, 2, []int{1, 5})[:18]); err == nil {
		t.Fatal("truncated repair request accepted")
	}
}

func TestRepairRoundTrip(t *testing.T) {
	in := []repairChunk{{index: 3, data: []byte("abcdefgh")}, {index: 0, data: []byte("zz")}}
	seq, round, out, err := decodeRepair(encodeRepair(9, 1, in))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 9 || round != 1 || len(out) != 2 {
		t.Fatalf("repair round trip: got (%d, %d, %d chunks)", seq, round, len(out))
	}
	for i := range in {
		if out[i].index != in[i].index || !bytes.Equal(out[i].data, in[i].data) {
			t.Fatalf("chunk %d mismatch: got (%d, %q)", i, out[i].index, out[i].data)
		}
	}
	enc := encodeRepair(9, 1, in)
	if _, _, _, err := decodeRepair(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated repair payload accepted")
	}
	if _, _, _, err := decodeRepair(append(enc, 0)); err == nil {
		t.Fatal("repair payload with trailing bytes accepted")
	}
}

// TestDecodeRepairBoundsChunkCount pins the allocation guard: a 16-byte
// repair frame declaring 2^32-1 chunks must be rejected by the length
// check, not pre-allocated (which would be a ~137 GB remote OOM).
func TestDecodeRepairBoundsChunkCount(t *testing.T) {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf[0:8], 1)
	binary.LittleEndian.PutUint32(buf[8:12], 0)
	binary.LittleEndian.PutUint32(buf[12:16], 0xFFFFFFFF)
	if _, _, _, err := decodeRepair(buf); err == nil {
		t.Fatal("absurd repair chunk count accepted")
	}
	// The same bound must hold when the declared count merely exceeds what
	// the frame could carry, not just at the uint32 extreme.
	buf = encodeRepair(1, 0, []repairChunk{{index: 0, data: []byte("abcd")}})
	binary.LittleEndian.PutUint32(buf[12:16], 3)
	if _, _, _, err := decodeRepair(buf); err == nil {
		t.Fatal("overdeclared repair chunk count accepted")
	}
}

func TestReadPreludeEnforcesLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, fChunk, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readPrelude(&buf, make([]byte, framePrelude), 50); err == nil {
		t.Fatal("oversized frame passed the prelude limit")
	}
	buf.Reset()
	if err := writeFrame(&buf, fGoodbye, nil); err != nil {
		t.Fatal(err)
	}
	ftype, n, err := readPrelude(&buf, make([]byte, framePrelude), 50)
	if err != nil || ftype != fGoodbye || n != 0 {
		t.Fatalf("empty frame prelude: got (%d, %d, %v)", ftype, n, err)
	}
}

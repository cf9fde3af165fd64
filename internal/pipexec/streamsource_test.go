package pipexec

import (
	"context"
	"errors"
	"testing"

	"stapio/internal/cube"
	"stapio/internal/radar"
)

// encodeScenarioCPI builds one chunked frame for the scenario's CPI k.
func encodeScenarioCPI(t *testing.T, s *radar.Scenario, k uint64, chunkSize int) ([]byte, cube.Header) {
	t.Helper()
	cb, err := s.Generate(k)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, cube.FileBytesChunked(s.Dims, chunkSize))
	cube.EncodeChunked(cb, k, chunkSize, frame)
	h, err := cube.ParseHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	return frame, h
}

// TestStreamSourcePendingReadyOnError pins PendingCube.Ready's contract: a
// publication resolved with an error counts as ready exactly like a
// delivered cube — the pipeline's occupancy sampling must see "an answer
// is waiting", not "a cube is waiting".
func TestStreamSourcePendingReadyOnError(t *testing.T) {
	s := radar.SmallTestScenario()
	src := NewStreamSource(s.Dims)
	defer src.Close()

	p := src.Begin(7, 0)
	if p.Ready() {
		t.Fatal("pending ready before anything was published")
	}
	pub, err := src.Publish(7)
	if err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("producer died")
	pub.Abort(wantErr)
	if !p.Ready() {
		t.Fatal("delivered error does not count as ready")
	}
	if _, err := p.Wait(); !errors.Is(err, wantErr) {
		t.Fatalf("Wait: got %v, want %v", err, wantErr)
	}
	// A re-Begin of the same seq (the pipeline's retry path) must observe
	// the same resolved error immediately rather than hanging.
	p2 := src.Begin(7, 1)
	if !p2.Ready() {
		t.Fatal("re-Begin of an errored seq is not ready")
	}
	if _, err := p2.Wait(); !errors.Is(err, wantErr) {
		t.Fatalf("re-Begin Wait: got %v, want %v", err, wantErr)
	}
}

// TestStreamSourceChunkRepairMidStream drives the chunk path by hand: a CRC
// mismatch mid-stream leaves exactly that chunk missing, a duplicate chunk
// is idempotent, and a clean re-send repairs the cube, which then decodes
// byte-identically to the generated original.
func TestStreamSourceChunkRepairMidStream(t *testing.T) {
	s := radar.SmallTestScenario()
	const chunkSize = 4096
	frame, h := encodeScenarioCPI(t, s, 0, chunkSize)
	payload := frame[h.PayloadOffset():]

	src := NewStreamSource(s.Dims)
	defer src.Close()
	pub, err := src.Publish(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Announce(h); err != nil {
		t.Fatal(err)
	}
	// A duplicate publication of a live seq must be refused — routing two
	// producers into one slab would be silent corruption.
	if _, err := src.Publish(0); err == nil {
		t.Fatal("second Publish of a live seq succeeded")
	}
	chunkOf := func(i int) []byte {
		lo, hi := h.ChunkSpan(i)
		return payload[lo:hi]
	}
	for i := 0; i < h.Chunks(); i++ {
		data := chunkOf(i)
		if i == 3 { // corrupt one chunk mid-stream
			bad := append([]byte(nil), data...)
			bad[5] ^= 0x40
			if err := pub.Chunk(i, bad); !errors.Is(err, cube.ErrCorrupt) {
				t.Fatalf("corrupt chunk: got %v, want ErrCorrupt", err)
			}
			continue
		}
		if err := pub.Chunk(i, data); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	// A truncated chunk re-send must fail cleanly and leave it missing.
	if err := pub.Chunk(3, chunkOf(3)[:10]); !errors.Is(err, cube.ErrTruncated) {
		t.Fatalf("truncated chunk: got %v, want ErrTruncated", err)
	}
	// A duplicate of an already-landed chunk is idempotent.
	if err := pub.Chunk(2, chunkOf(2)); err != nil {
		t.Fatalf("duplicate chunk: %v", err)
	}
	if m := pub.Missing(); len(m) != 1 || m[0] != 3 {
		t.Fatalf("missing = %v, want [3]", m)
	}
	if err := pub.Commit(); !errors.Is(err, cube.ErrTruncated) {
		t.Fatalf("commit with missing chunk: got %v, want ErrTruncated", err)
	}
	if err := pub.Chunk(3, chunkOf(3)); err != nil {
		t.Fatalf("repair re-send: %v", err)
	}
	if !pub.Repaired() {
		t.Fatal("clean re-send after a CRC mismatch did not mark the cube repaired")
	}
	if err := pub.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	got, err := src.Begin(0, 0).Wait()
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Generate(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("sample %d: decoded %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
	st := src.IOStats()
	if st.ChunkRereads != 1 || st.RepairedReads != 1 {
		t.Fatalf("IOStats = %+v, want 1 chunk re-read and 1 repaired read", st)
	}
}

// TestGeneratorSourceMatchesMemSource runs the full pipeline from the
// in-process generator source and checks it reproduces the MemSource run
// exactly — the streaming frontend must be correctness-neutral.
func TestGeneratorSourceMatchesMemSource(t *testing.T) {
	s := radar.SmallTestScenario()
	cfg := testConfig()
	const n = 6

	ref, err := Run(context.Background(), cfg, ScenarioSource(s), n)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGeneratorSource(s.Dims, 2, func(seq uint64) (*cube.Cube, error) {
		return s.Generate(seq)
	})
	defer gen.Close()
	res, err := Run(context.Background(), cfg, gen, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CPIs) != len(ref.CPIs) {
		t.Fatalf("generator run produced %d CPIs, reference %d", len(res.CPIs), len(ref.CPIs))
	}
	for k := range ref.CPIs {
		a, b := ref.CPIs[k].Detections, res.CPIs[k].Detections
		if len(a) != len(b) {
			t.Fatalf("CPI %d: %d detections, reference %d", k, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("CPI %d detection %d: %+v, reference %+v", k, i, b[i], a[i])
			}
		}
	}
	// The slab pool must bound allocations at the generator window plus the
	// pipeline's in-flight CPIs, not one slab per CPI.
	if news := gen.PoolNews(); news > int64(n) {
		t.Errorf("pool allocated %d cubes for %d CPIs", news, n)
	}
}

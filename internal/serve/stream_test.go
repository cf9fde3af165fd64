package serve

import (
	"testing"
	"time"

	"stapio/internal/cube"
	"stapio/internal/pfs"
	"stapio/internal/radar"
)

// TestStreamingIngestMatchesReferenceWithoutFileImage is the streaming
// round trip: a streaming client's detections must be byte-identical to
// the sequential reference, and the server must never have buffered a
// whole-cube file image on the ingest path — the largest streaming frame
// it saw stays bounded by one chunk plus its 16-byte prefix.
func TestStreamingIngestMatchesReferenceWithoutFileImage(t *testing.T) {
	const n = 8
	s := radar.SmallTestScenario()
	cfg := testServerConfig()
	cfg.Replicas = 1 // one pipeline => submission order is the weight chain
	srv := startServer(t, cfg)
	cl := dialTest(t, srv, Options{Streaming: true})

	frames, err := radar.EncodeCPIs(s, n, testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	h, err := cube.ParseHeader(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	want := referenceDetections(t, cfg.Params, s, n)
	results := submitAll(t, cl, frames)
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for k, r := range results {
		if r.Err != nil {
			t.Fatalf("CPI %d failed: %v", r.Seq, r.Err)
		}
		if !sameDetections(r.Detections, want[k]) {
			t.Errorf("CPI %d: streamed ingest diverged from the sequential reference", k)
		}
	}

	st := srv.Stats()
	if st.Accepted != n {
		t.Errorf("accepted = %d, want %d", st.Accepted, n)
	}
	if wantChunks := int64(n * h.Chunks()); st.StreamedChunks != wantChunks {
		t.Errorf("streamed_chunks = %d, want %d", st.StreamedChunks, wantChunks)
	}
	// The no-file-image bound: every streaming-ingest frame fits one chunk
	// plus its prefix — a buffered cube image would be the whole frame.
	if max := st.StreamMaxFrameBytes; max > int64(chunkPrefixLen+testChunkSize) {
		t.Errorf("largest streaming frame was %d bytes, want <= %d (one chunk + prefix)",
			max, chunkPrefixLen+testChunkSize)
	}
	if max := st.StreamMaxFrameBytes; max >= int64(len(frames[0])) {
		t.Errorf("largest streaming frame (%d bytes) is a whole file image (%d bytes)",
			max, len(frames[0]))
	}
	if st.RepairedFrames != 0 || st.Rejected["corrupt"] != 0 {
		t.Errorf("clean streaming run shows repairs: %+v", st)
	}
}

// TestStreamingRepairsCorruptChunks injects deterministic wire corruption
// under streaming ingest: every CPI must still come back, repaired through
// chunk re-sends of exactly the corrupt chunks, with detections matching
// the sequential reference.
func TestStreamingRepairsCorruptChunks(t *testing.T) {
	const n = 20
	s := radar.SmallTestScenario()
	cfg := testServerConfig()
	cfg.Replicas = 1
	cfg.RepairRounds = 8
	srv := startServer(t, cfg)
	cl := dialTest(t, srv, Options{
		Streaming: true,
		Faults:    &pfs.FaultPlan{Seed: 7, CorruptRate: 0.25},
	})

	frames, err := radar.EncodeCPIs(s, n, testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceDetections(t, cfg.Params, s, n)
	results := submitAll(t, cl, frames)
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for k, r := range results {
		if r.Err != nil {
			t.Fatalf("CPI %d failed: %v", r.Seq, r.Err)
		}
		if !sameDetections(r.Detections, want[k]) {
			t.Errorf("CPI %d: repaired streamed CPI diverged from the reference", k)
		}
	}
	_, _, injected := cl.RepairStats()
	if injected == 0 {
		t.Fatal("fault plan injected nothing; the test exercised no repairs")
	}
	st := srv.Stats()
	if st.RepairedFrames == 0 || st.ChunkResends == 0 || st.RepairReqs == 0 {
		t.Errorf("no streaming repairs recorded despite %d injected corruptions: %+v", injected, st)
	}
	if st.Rejected["corrupt"] != 0 {
		t.Errorf("%d CPIs rejected corrupt; repair should have recovered all", st.Rejected["corrupt"])
	}
	if cl.RepairedFrames() == 0 {
		t.Error("client saw no repaired frames")
	}
}

// TestStreamingProducerDeathMidCubeRecovers kills a producer between its
// header and its last chunk: the replica must drop exactly that CPI
// (admission token returned, slab recycled, counted orphaned) and keep
// serving other producers, with the source's slab pool staying bounded.
func TestStreamingProducerDeathMidCubeRecovers(t *testing.T) {
	s := radar.SmallTestScenario()
	cfg := testServerConfig()
	cfg.Replicas = 1
	srv := startServer(t, cfg)

	frames, err := radar.EncodeCPIs(s, 1, testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	h, err := cube.ParseHeader(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	// Hand-roll a streaming submit that dies after three chunks.
	c := rawHandshake(t, srv)
	if err := writeFrame(c, fSubmitHdr, frames[0][:h.PayloadOffset()]); err != nil {
		t.Fatal(err)
	}
	payload := frames[0][h.PayloadOffset():]
	for i := 0; i < 3; i++ {
		lo, hi := h.ChunkSpan(i)
		var prefix [chunkPrefixLen]byte
		putChunkPrefix(prefix[:], h.Seq, i)
		if err := writeFrames(c, []frameSpans{{ftype: fChunk, spans: [][]byte{prefix[:], payload[lo:hi]}}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return srv.Stats().StreamedChunks == 3 })
	c.Close() // producer dies mid-cube

	// The reader unwind must settle the CPI: token back, orphan counted.
	waitFor(t, 5*time.Second, func() bool {
		st := srv.Stats()
		return st.InFlight == 0 && st.Orphaned == 1
	})

	// The service keeps working for a healthy streaming producer.
	const n = 6
	cl := dialTest(t, srv, Options{Streaming: true})
	frames, err = radar.EncodeCPIs(s, n, testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	results := submitAll(t, cl, frames)
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("CPI %d failed after producer death: %v", r.Seq, r.Err)
		}
	}
	// The aborted publication's slab went back to the pool; allocations
	// stay bounded by the concurrent window, not one slab per CPI (and
	// certainly do not leak one per dead producer).
	if news := srv.replicas[0].src.PoolNews(); news > int64(2*cfg.maxInFlight()) {
		t.Errorf("replica slab pool allocated %d cubes for %d CPIs (max in flight %d)",
			news, n+1, cfg.maxInFlight())
	}
}

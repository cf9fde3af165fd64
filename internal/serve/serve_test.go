package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"stapio/internal/core"
	"stapio/internal/cube"
	"stapio/internal/pfs"
	"stapio/internal/radar"
	"stapio/internal/stap"
)

// testChunkSize splits the small scenario's 64 KiB payload into 16 chunks,
// enough granularity for the repair tests.
const testChunkSize = 4096

func testServerConfig() Config {
	s := radar.SmallTestScenario()
	p := stap.DefaultParams(s.Dims)
	p.PulseLen = s.PulseLen
	p.Bandwidth = s.Bandwidth
	return Config{
		Params:  p,
		Workers: core.STAPNodes{Doppler: 2, EasyWeight: 1, HardWeight: 1, EasyBF: 2, HardBF: 1, PulseComp: 2, CFAR: 1},
	}
}

// startServer builds, starts, and schedules shutdown of a service.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv
}

func dialTest(t *testing.T, srv *Server, opt Options) *Client {
	t.Helper()
	if !opt.Dims.Valid() {
		opt.Dims = srv.cfg.Params.Dims
	}
	cl, err := Dial(srv.Addr().String(), opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// submitAll pushes every frame closed-loop — at most the server's advertised
// in-flight window outstanding — and collects one result per submission.
func submitAll(t *testing.T, cl *Client, frames [][]byte) []Result {
	t.Helper()
	results := make([]Result, 0, len(frames))
	window := make(chan struct{}, cl.MaxInFlight())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := range cl.Results() {
			results = append(results, r)
			<-window
			if len(results) == len(frames) {
				return
			}
		}
	}()
	for _, f := range frames {
		window <- struct{}{}
		if _, err := cl.Submit(f); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	wg.Wait()
	sort.Slice(results, func(i, j int) bool { return results[i].Seq < results[j].Seq })
	return results
}

// referenceDetections runs the sequential STAP chain over the scenario's
// CPIs 0..n-1 — the ground truth the networked pipeline must reproduce.
func referenceDetections(t *testing.T, p stap.Params, s *radar.Scenario, n int) [][]stap.Detection {
	t.Helper()
	pr, err := stap.NewProcessor(p)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]stap.Detection, n)
	for k := 0; k < n; k++ {
		cb, err := s.Generate(uint64(k))
		if err != nil {
			t.Fatal(err)
		}
		if out[k], err = pr.Process(cb, uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func sameDetections(a, b []stap.Detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Beam != b[i].Beam || a[i].Bin != b[i].Bin || a[i].Range != b[i].Range {
			return false
		}
	}
	return true
}

func TestServeRoundTripMatchesSequentialReference(t *testing.T) {
	const n = 8
	s := radar.SmallTestScenario()
	cfg := testServerConfig()
	cfg.Replicas = 1 // one pipeline => submission order is the weight chain
	srv := startServer(t, cfg)
	cl := dialTest(t, srv, Options{})

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
		if r.Seq != uint64(k) {
			t.Fatalf("result %d carries seq %d", k, r.Seq)
		}
		if !sameDetections(r.Detections, want[k]) {
			t.Errorf("CPI %d: networked pipeline found %d detections, sequential reference %d",
				k, len(r.Detections), len(want[k]))
		}
		if r.Latency <= 0 || r.ServerLatency <= 0 {
			t.Errorf("CPI %d: non-positive latency %v / %v", k, r.Latency, r.ServerLatency)
		}
	}
	// A result can reach the client before the server has tallied its
	// write; Shutdown returns once every admitted CPI is answered and
	// counted, so the books are read after it rather than after a delay.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Accepted != n || st.ResultsSent != n || st.Orphaned != 0 {
		t.Errorf("stats: accepted=%d results=%d orphaned=%d, want %d/%d/0",
			st.Accepted, st.ResultsSent, st.Orphaned, n, n)
	}
}

func TestServeConcurrentProducers(t *testing.T) {
	const producers, perProducer = 3, 10
	s := radar.SmallTestScenario()
	cfg := testServerConfig()
	cfg.Replicas = 2
	cfg.MaxInFlight = 16
	srv := startServer(t, cfg)

	templates, err := radar.EncodeCPIs(s, 4, testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, producers*perProducer)
	for pi := 0; pi < producers; pi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(srv.Addr().String(), Options{Dims: s.Dims})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			// Each producer keeps a small window so the three of them stay
			// within the shared admission capacity.
			window := make(chan struct{}, 2)
			got := make(chan struct{})
			go func() {
				defer close(got)
				n := 0
				for r := range cl.Results() {
					if r.Err != nil {
						errs <- r.Err
					}
					<-window
					if n++; n == perProducer {
						return
					}
				}
			}()
			for k := 0; k < perProducer; k++ {
				frame := append([]byte(nil), templates[k%len(templates)]...)
				if err := cube.PatchSeq(frame, uint64(k)); err != nil {
					errs <- err
					return
				}
				window <- struct{}{}
				if _, err := cl.Submit(frame); err != nil {
					errs <- err
					return
				}
			}
			<-got
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("producer: %v", err)
	}
	st := srv.Stats()
	if want := int64(producers * perProducer); st.Completed != want {
		t.Errorf("completed %d CPIs, want %d", st.Completed, want)
	}
	var dispatched int64
	for _, r := range st.Replicas {
		dispatched += r.Dispatched
	}
	if dispatched != int64(producers*perProducer) {
		t.Errorf("replicas dispatched %d CPIs, want %d", dispatched, producers*perProducer)
	}
}

func TestServeOverloadedReject(t *testing.T) {
	s := radar.SmallTestScenario()
	cfg := testServerConfig()
	cfg.MaxInFlight = 2
	srv := startServer(t, cfg)
	cl := dialTest(t, srv, Options{})

	frames, err := radar.EncodeCPIs(s, 2, testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust the admission window from the inside so the reject is
	// deterministic rather than a race against the pipeline.
	for i := 0; i < cfg.MaxInFlight; i++ {
		if !srv.tryAcquire() {
			t.Fatal("could not drain the admission tokens")
		}
	}
	if _, err := cl.Submit(frames[0]); err != nil {
		t.Fatal(err)
	}
	r := <-cl.Results()
	if !errors.Is(r.Err, ErrOverloaded) {
		t.Fatalf("submit into a full window: got %v, want ErrOverloaded", r.Err)
	}
	if st := srv.Stats(); st.Rejected["overloaded"] != 1 {
		t.Errorf("overloaded reject count = %d, want 1", st.Rejected["overloaded"])
	}
	for i := 0; i < cfg.MaxInFlight; i++ {
		srv.release()
	}
	// The same frame is admitted once a slot frees up.
	if _, err := cl.Submit(frames[1]); err != nil {
		t.Fatal(err)
	}
	if r := <-cl.Results(); r.Err != nil {
		t.Fatalf("submit after release failed: %v", r.Err)
	}
}

func TestServeDrainRejectsAndShutsDownCleanly(t *testing.T) {
	s := radar.SmallTestScenario()
	srv := startServer(t, testServerConfig())
	cl := dialTest(t, srv, Options{})

	frames, err := radar.EncodeCPIs(s, 4, testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	results := submitAll(t, cl, frames)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("CPI %d failed before drain: %v", r.Seq, r.Err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The goodbye (or the closed connection) must stop further submits with
	// a typed drain/closed error.
	extra := append([]byte(nil), frames[0]...)
	if err := cube.PatchSeq(extra, 99); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := cl.Submit(extra)
		if errors.Is(err, ErrDraining) || errors.Is(err, ErrClosed) {
			break
		}
		if err == nil {
			// Accepted into a closing window; its result (an error) will
			// flow back or the connection will die — keep probing.
			<-cl.Results()
		}
		if time.Now().After(deadline) {
			t.Fatalf("submit after shutdown: got %v, want ErrDraining or ErrClosed", err)
		}
		time.Sleep(time.Millisecond)
	}
	if st := srv.Stats(); !st.Draining || st.Orphaned != 0 {
		t.Errorf("post-shutdown stats: draining=%v orphaned=%d, want true/0", st.Draining, st.Orphaned)
	}
}

func TestServeRepairsCorruptFramesWithoutDropping(t *testing.T) {
	const n = 20
	s := radar.SmallTestScenario()
	cfg := testServerConfig()
	cfg.RepairRounds = 8
	srv := startServer(t, cfg)

	// A quarter of the chunks arrive corrupt; re-sent chunks re-draw per
	// round, so every CPI repairs within the round budget for this seed.
	plan := &pfs.FaultPlan{Seed: 7, CorruptRate: 0.25}
	cl := dialTest(t, srv, Options{Faults: plan})

	frames, err := radar.EncodeCPIs(s, n, testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	results := submitAll(t, cl, frames)
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("CPI %d dropped despite chunk repair: %v", r.Seq, r.Err)
		}
	}
	_, resends, injected := cl.RepairStats()
	if injected == 0 {
		t.Fatal("fault plan injected no corruption; the test exercised nothing")
	}
	st := srv.Stats()
	if st.RepairedFrames == 0 || st.ChunkResends == 0 || st.RepairReqs == 0 {
		t.Errorf("server repaired %d frames via %d resends (%d requests), want all > 0",
			st.RepairedFrames, st.ChunkResends, st.RepairReqs)
	}
	if st.Rejected["corrupt"] != 0 {
		t.Errorf("%d CPIs rejected as corrupt; repair should have saved them", st.Rejected["corrupt"])
	}
	if resends < st.ChunkResends {
		t.Errorf("client sent %d chunk resends, server counted %d", resends, st.ChunkResends)
	}
	if got := cl.RepairedFrames(); got != st.RepairedFrames {
		t.Errorf("client counted %d repaired frames, server %d", got, st.RepairedFrames)
	}
	t.Logf("injected %d corruptions, repaired %d frames via %d chunk resends (%d bytes)",
		injected, st.RepairedFrames, st.ChunkResends, st.ChunkResendBytes)
}

// TestServeRejectsUnrepairableFlatFrame: a retired flat (v1/v2) frame has
// no chunk table, so nothing in it could be verified or repaired chunk by
// chunk. The format itself rejects it with the typed ErrVersion, and the
// client refuses to submit it before writing a byte, leaving the
// connection fit for the next CPI.
func TestServeRejectsUnrepairableFlatFrame(t *testing.T) {
	s := radar.SmallTestScenario()
	srv := startServer(t, testServerConfig())
	cl := dialTest(t, srv, Options{})

	frames, err := radar.EncodeCPIs(s, 1, testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{1, 2} {
		flat := append([]byte(nil), frames[0]...)
		binary.LittleEndian.PutUint32(flat[4:8], v)
		if _, err := cube.DecodeHeader(flat[:cube.HeaderSize]); !errors.Is(err, cube.ErrVersion) {
			t.Errorf("v%d header: got %v, want cube.ErrVersion", v, err)
		}
		if _, err := cl.Submit(flat); !errors.Is(err, cube.ErrVersion) {
			t.Errorf("v%d submit: got %v, want cube.ErrVersion", v, err)
		}
	}
	if _, err := cl.Submit(frames[0]); err != nil {
		t.Fatal(err)
	}
	if r := <-cl.Results(); r.Err != nil || r.Seq != 0 {
		t.Fatalf("chunked CPI after refused flat frames: seq %d err %v", r.Seq, r.Err)
	}
	if st := srv.Stats(); st.Accepted != 1 || st.Rejected["other"] != 0 || st.Rejected["corrupt"] != 0 {
		t.Errorf("server saw the refused frames: accepted %d, rejected %v", st.Accepted, st.Rejected)
	}
}

func TestServeRejectsMismatchedDims(t *testing.T) {
	srv := startServer(t, testServerConfig())
	_, err := Dial(srv.Addr().String(), Options{Dims: cube.Dims{Channels: 2, Pulses: 8, Ranges: 32}})
	if err == nil {
		t.Fatal("handshake with wrong dims succeeded")
	}
}

// rawHandshake dials the service and completes the hello exchange,
// returning the open connection for hand-rolled frame traffic.
func rawHandshake(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := writeFrame(c, fHello, encodeHello(srv.cfg.Params.Dims)); err != nil {
		t.Fatal(err)
	}
	ftype, n, err := readPrelude(c, make([]byte, framePrelude), DefaultMaxFrameBytes)
	if err != nil || ftype != fHelloAck {
		t.Fatalf("handshake: type %d, err %v", ftype, err)
	}
	if _, err := io.ReadFull(c, make([]byte, n)); err != nil {
		t.Fatal(err)
	}
	return c
}

// writeSubmit streams frame over c the way Client.Submit does: header and
// chunk table, then every chunk, then the end marker.
func writeSubmit(t *testing.T, c net.Conn, frame []byte) {
	t.Helper()
	h, err := cube.ParseHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[h.PayloadOffset():]
	frames := []frameSpans{{ftype: fSubmitHdr, spans: [][]byte{frame[:h.PayloadOffset()]}}}
	for i := 0; i < h.Chunks(); i++ {
		prefix := make([]byte, chunkPrefixLen)
		putChunkPrefix(prefix, h.Seq, i)
		lo, hi := h.ChunkSpan(i)
		frames = append(frames, frameSpans{ftype: fChunk, spans: [][]byte{prefix, payload[lo:hi]}})
	}
	frames = append(frames, frameSpans{ftype: fSubmitEnd, spans: [][]byte{encodeSubmitEnd(h.Seq)}})
	if err := writeFrames(c, frames); err != nil {
		t.Fatal(err)
	}
}

// readFrame reads one whole frame under a deadline.
func readFrame(t *testing.T, c net.Conn) (byte, []byte) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	ftype, n, err := readPrelude(c, make([]byte, framePrelude), DefaultMaxFrameBytes)
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("read frame payload: %v", err)
	}
	return ftype, buf
}

func TestServeDropsMalformedStream(t *testing.T) {
	srv := startServer(t, testServerConfig())

	// An unparseable submit header earns a typed seq-0 reject and then the
	// connection closes: the framing can no longer be trusted, and dropping
	// the connection resolves the producer's pending CPIs promptly.
	c := rawHandshake(t, srv)
	if err := writeFrame(c, fSubmitHdr, []byte("not a cube")); err != nil {
		t.Fatal(err)
	}
	ftype, buf := readFrame(t, c)
	if ftype != fReject {
		t.Fatalf("bad submit answer: type %d, want reject", ftype)
	}
	seq, code, _, err := decodeReject(buf)
	if err != nil || code != CodeBadFrame {
		t.Fatalf("bad submit reject: code %d, err %v", code, err)
	}
	if seq != 0 {
		t.Fatalf("bad submit reject carries seq %d, want 0", seq)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection stayed open after an unparseable submit")
	}

	// An unknown frame type ends the conversation too.
	c = rawHandshake(t, srv)
	if err := writeFrame(c, 0x7f, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection stayed open after an unknown frame type")
	}
}

// TestServeRepairRoundIsServerTracked pins the repair-budget fix: the
// server advances its own round counter and rejects a repair whose echoed
// round does not match its outstanding request, so a client that always
// echoes round 0 cannot park a CPI (and its admission token) forever.
func TestServeRepairRoundIsServerTracked(t *testing.T) {
	s := radar.SmallTestScenario()
	cfg := testServerConfig()
	cfg.RepairRounds = 8 // far above the two rounds the test plays out
	srv := startServer(t, cfg)
	c := rawHandshake(t, srv)

	frames, err := radar.EncodeCPIs(s, 1, testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	frame := frames[0]
	h, err := cube.ParseHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one chunk so the submit waits for repair.
	lo, hi := h.ChunkSpan(0)
	frame[h.PayloadOffset()+lo] ^= 0x40
	writeSubmit(t, c, frame)
	ftype, buf := readFrame(t, c)
	if ftype != fRepairReq {
		t.Fatalf("corrupt submit answered with type %d, want repair-req", ftype)
	}
	seq, round, bad, err := decodeRepairReq(buf)
	if err != nil || round != 0 || len(bad) != 1 {
		t.Fatalf("first repair-req: seq %d round %d chunks %v err %v", seq, round, bad, err)
	}
	// Round 0: echo the correct round but re-send the chunk still corrupt,
	// so the server asks again — now at round 1.
	still := frame[h.PayloadOffset()+lo : h.PayloadOffset()+hi]
	if err := writeFrame(c, fRepair, encodeRepair(seq, 0, []repairChunk{{index: 0, data: still}})); err != nil {
		t.Fatal(err)
	}
	if ftype, buf = readFrame(t, c); ftype != fRepairReq {
		t.Fatalf("second answer type %d, want repair-req", ftype)
	}
	if _, round, _, err = decodeRepairReq(buf); err != nil || round != 1 {
		t.Fatalf("second repair-req at round %d (err %v), want the server-tracked round 1", round, err)
	}
	// Now echo the stale round 0 again, as a budget-pinning client would.
	if err := writeFrame(c, fRepair, encodeRepair(seq, 0, []repairChunk{{index: 0, data: still}})); err != nil {
		t.Fatal(err)
	}
	ftype, buf = readFrame(t, c)
	if ftype != fReject {
		t.Fatalf("stale-round repair answered with type %d, want reject", ftype)
	}
	if rseq, code, _, err := decodeReject(buf); err != nil || rseq != seq || code != CodeBadFrame {
		t.Fatalf("stale-round reject: seq %d code %d err %v, want seq %d bad-frame", rseq, code, err, seq)
	}
	// The CPI was answered, so its admission token must be free again.
	waitFor(t, 5*time.Second, func() bool { return srv.outstanding.Load() == 0 })
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestShutdownCountsAbandonedCPIsOnce pins the drain accounting fix: a CPI
// awaiting repair when the drain deadline expires is counted orphaned
// exactly once, and in_flight settles at zero rather than going negative.
func TestShutdownCountsAbandonedCPIsOnce(t *testing.T) {
	s := radar.SmallTestScenario()
	srv, err := New(testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c := rawHandshake(t, srv)

	frames, err := radar.EncodeCPIs(s, 1, testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	frame := frames[0]
	h, err := cube.ParseHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := h.ChunkSpan(0)
	frame[h.PayloadOffset()+lo] ^= 0x40
	writeSubmit(t, c, frame)
	if ftype, _ := readFrame(t, c); ftype != fRepairReq {
		t.Fatalf("corrupt submit answered with type %d, want repair-req", ftype)
	}
	// Never answer the repair request: the CPI stays open, holding its
	// admission token, and an already-expired drain deadline abandons it.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("shutdown with a CPI awaiting repair and an expired deadline reported a clean drain")
	}
	st := srv.Stats()
	if st.Orphaned != 1 {
		t.Errorf("orphaned = %d, want exactly 1 (no double count)", st.Orphaned)
	}
	if st.InFlight != 0 {
		t.Errorf("in_flight = %d after shutdown, want 0", st.InFlight)
	}
}

// TestServerKillFailsPendingSubmitsPromptly pins the abrupt-crash
// semantics a failover layer depends on: when a server dies mid-stream
// (Kill — the in-process equivalent of SIGKILL, the connections just
// reset), every outstanding Submit on the client fails promptly with a
// typed error instead of hanging, and Results closes.
func TestServerKillFailsPendingSubmitsPromptly(t *testing.T) {
	const n = 8
	s := radar.SmallTestScenario()
	cfg := testServerConfig()
	cfg.MaxInFlight = n
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr().String(), Options{Dims: s.Dims})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	frames, err := radar.EncodeCPIs(s, n, testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the whole admission window without draining results, so CPIs are
	// guaranteed to be pending when the server dies.
	for _, f := range frames {
		if _, err := cl.Submit(f); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	srv.Kill()

	// Every pending CPI is answered — a result or a typed failure — and
	// then Results closes, because the reader noticed the dead connection.
	// A hang here is the failure this test exists to catch; the test
	// binary's timeout reports it.
	answered := 0
	for r := range cl.Results() {
		if r.Err != nil && !errors.Is(r.Err, ErrClosed) && !errors.Is(r.Err, ErrDraining) {
			t.Errorf("CPI %d failed with untyped error: %v", r.Seq, r.Err)
		}
		answered++
	}
	if answered != n {
		t.Errorf("%d answers before Results closed, want one per pending CPI (%d)", answered, n)
	}
	// A killed server must also settle its own books: nothing in flight.
	if st := srv.Stats(); st.InFlight != 0 {
		t.Errorf("in_flight = %d after Kill, want 0", st.InFlight)
	}
}

// TestDialFailsFastWhenHandshakeStalls pins the connect-timeout path: a
// server that accepts the TCP connection but never answers the hello (a
// black-holed or wedged process) must fail the Dial within the dial
// timeout, not hang the caller.
func TestDialFailsFastWhenHandshakeStalls(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close() // hold the connection open, never respond
		}
	}()
	s := radar.SmallTestScenario()
	start := time.Now()
	_, err = Dial(ln.Addr().String(), Options{Dims: s.Dims, DialTimeout: 200 * time.Millisecond})
	if err == nil {
		t.Fatal("Dial to a silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Dial took %v to fail; the handshake deadline did not bite", elapsed)
	}
}

func TestServeStatsEndpoint(t *testing.T) {
	srv := startServer(t, testServerConfig())
	hs := httptest.NewServer(srv.StatsHandler())
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d %q", resp.StatusCode, body)
	}
	for _, want := range []string{`"max_in_flight"`, `"replicas"`, `"rejected"`,
		`"io"`, `"source_stalls"`, `"readahead_ready"`, `"read_ahead"`, `"decode_workers"`} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("stats JSON lacks %s: %s", want, body)
		}
	}
	// The per-replica I/O view must carry live knob values, not zeros.
	if st := srv.Stats(); len(st.Replicas) == 0 || st.Replicas[0].IO.ReadAhead < 1 || st.Replicas[0].IO.DecodeWorkers < 1 {
		t.Errorf("replica IO snapshot not live: %+v", srv.Stats().Replicas)
	}

	srv.draining.Store(true)
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	srv.draining.Store(false)
}

package serve

import (
	"context"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stapio/internal/cube"
	"stapio/internal/radar"
	"stapio/internal/tune"
)

// BenchmarkServeLoopback measures the sustained end-to-end CPI rate of the
// detection service over loopback TCP: one closed-loop producer replaying
// pre-encoded small-scenario cubes against an in-process server. This is
// the networked counterpart of the in-process pipeline rate — the
// difference between the two is the cost of the wire (the ledger's
// serve.over_inproc_ratio row).
func BenchmarkServeLoopback(b *testing.B) {
	s := radar.SmallTestScenario()
	cfg := testServerConfig()
	cfg.Replicas = 1
	cfg.MaxInFlight = 32
	srv, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	frames, err := radar.EncodeCPIs(s, 8, testChunkSize)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := Dial(srv.Addr().String(), Options{Dims: s.Dims, ResultBuffer: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	window := cl.MaxInFlight()
	// Rotate a fixed set of frame buffers: one per in-flight slot, returned
	// when the slot's result arrives, so the producer allocates nothing.
	bufs := make(chan []byte, window)
	for i := 0; i < window; i++ {
		bufs <- make([]byte, len(frames[0]))
	}
	var mu sync.Mutex
	inFlight := make(map[uint64][]byte, window)
	done := make(chan error, 1)
	go func() {
		got := 0
		for r := range cl.Results() {
			if r.Err != nil {
				done <- r.Err
				return
			}
			mu.Lock()
			buf := inFlight[r.Seq]
			delete(inFlight, r.Seq)
			mu.Unlock()
			bufs <- buf
			if got++; got == b.N {
				done <- nil
				return
			}
		}
	}()

	b.ResetTimer()
	start := time.Now()
	for seq := 0; seq < b.N; seq++ {
		buf := <-bufs
		buf = append(buf[:0], frames[seq%len(frames)]...)
		if err := cube.PatchSeq(buf, uint64(seq)); err != nil {
			b.Fatal(err)
		}
		mu.Lock()
		inFlight[uint64(seq)] = buf
		mu.Unlock()
		if _, err := cl.Submit(buf); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "CPIs/s")
}

// BenchmarkServeStreamLoopback drives a fixed number of CPIs closed-loop
// through one replica per b.N iteration and reports the sustained rate of
// the last iteration. Every cube crosses the wire as header + chunk frames
// in one vectored write and decodes straight from the connection read
// buffer into the replica's pooled slab. The fixed count (rather than b.N
// CPIs total) keeps `-benchtime 1x` meaningful — one iteration is one full
// 512-CPI run.
func BenchmarkServeStreamLoopback(b *testing.B) {
	const n = 512
	s := radar.SmallTestScenario()
	cfg := testServerConfig()
	cfg.Replicas = 1
	cfg.MaxInFlight = 32
	srv, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	frames, err := radar.EncodeCPIs(s, 8, testChunkSize)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := Dial(srv.Addr().String(), Options{Dims: s.Dims, ResultBuffer: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	window := cl.MaxInFlight()
	bufs := make(chan []byte, window)
	for i := 0; i < window; i++ {
		bufs <- make([]byte, len(frames[0]))
	}
	var rate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var mu sync.Mutex
		inFlight := make(map[uint64][]byte, window)
		done := make(chan error, 1)
		go func() {
			got := 0
			for r := range cl.Results() {
				if r.Err != nil {
					done <- r.Err
					return
				}
				mu.Lock()
				buf := inFlight[r.Seq]
				delete(inFlight, r.Seq)
				mu.Unlock()
				bufs <- buf
				if got++; got == n {
					done <- nil
					return
				}
			}
		}()
		start := time.Now()
		for seq := 0; seq < n; seq++ {
			buf := <-bufs
			buf = append(buf[:0], frames[seq%len(frames)]...)
			if err := cube.PatchSeq(buf, uint64(i*n+seq)); err != nil {
				b.Fatal(err)
			}
			mu.Lock()
			inFlight[uint64(i*n+seq)] = buf
			mu.Unlock()
			if _, err := cl.Submit(buf); err != nil {
				b.Fatal(err)
			}
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		rate = float64(n) / time.Since(start).Seconds()
	}
	b.StopTimer()
	b.ReportMetric(rate, "CPIs/s")
}

// BenchmarkServeStreamAutotune is the slow-producer streaming scenario:
// several paced producers stream cubes chunk-by-chunk
// into one autotuned replica that starts cold at ingest depth 1. The
// producers connect over synchronous in-process pipes (see pipeListener),
// so ChunkPace is wire time the server actually experiences — kernel
// socket buffering cannot absorb a slow producer's pace, and the ingest
// gate's admission decisions are the only source of upload overlap. Cold,
// the gate admits one upload at a time and the replica is transfer-bound;
// the joint I/O + compute solve must discover that budget slots are worth
// more as ingest depth than as compute workers and grow the window until
// uploads overlap. "cold-CPIs/s" is the arrival rate over the first eighth
// of the run (the tuner is still warming up there), "warm-CPIs/s" over the
// last quarter, and "warmup-x" their ratio — the tuner's convergence gain.
// Each iteration runs a fixed CPI count against a fresh cold server, so
// -benchtime 1x measures exactly one run.
func BenchmarkServeStreamAutotune(b *testing.B) {
	const (
		producers = 8
		n         = 128
		pace      = 800 * time.Microsecond // 16 chunks -> ~13ms of wire time per upload
	)
	s := radar.SmallTestScenario()
	frames, err := radar.EncodeCPIs(s, 8, testChunkSize)
	if err != nil {
		b.Fatal(err)
	}

	var cold, warm, overall float64
	var finalRA int
	for i := 0; i < b.N; i++ {
		cfg := testServerConfig()
		cfg.Replicas = 1
		cfg.MaxInFlight = 32
		cfg.AutoTune = &tune.Config{Interval: 4, Warmup: 4, Budget: 18}
		srv, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ln := newPipeListener()
		if err := srv.Serve(ln); err != nil {
			b.Fatal(err)
		}

		var mu sync.Mutex
		arrivals := make([]time.Time, 0, n)
		errs := make(chan error, producers)
		var next atomic.Uint64 // shared: every producer stays active to the end
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl, err := ln.dial(Options{
					Dims: s.Dims, ResultBuffer: 4, ChunkPace: pace,
				})
				if err != nil {
					errs <- err
					return
				}
				defer cl.Close()
				// One upload in flight per producer, CPIs drawn from a shared
				// counter: the producer is the slow element, the server
				// decides how many overlap, and the offered load stays at
				// `producers` uploads until the run is out of CPIs (fixed
				// per-producer quotas would thin the load out in the tail and
				// understate the warm rate).
				for {
					seq := next.Add(1) - 1
					if seq >= n {
						return
					}
					frame := append([]byte(nil), frames[int(seq)%len(frames)]...)
					if err := cube.PatchSeq(frame, seq); err != nil {
						errs <- err
						return
					}
					if _, err := cl.Submit(frame); err != nil {
						errs <- err
						return
					}
					r := <-cl.Results()
					if r.Err != nil {
						errs <- r.Err
						return
					}
					mu.Lock()
					arrivals = append(arrivals, time.Now())
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		select {
		case err := <-errs:
			b.Fatal(err)
		default:
		}
		finalRA = srv.replicas[0].h.IOStats().ReadAhead
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		srv.Shutdown(ctx)
		cancel()

		sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].Before(arrivals[j]) })
		cold = arrivalRate(arrivals[:n/8])
		warm = arrivalRate(arrivals[n-n/4:])
		overall = arrivalRate(arrivals)
	}
	b.ReportMetric(overall, "CPIs/s")
	b.ReportMetric(cold, "cold-CPIs/s")
	b.ReportMetric(warm, "warm-CPIs/s")
	if cold > 0 {
		b.ReportMetric(warm/cold, "warmup-x")
	}
	b.ReportMetric(float64(finalRA), "final-readahead")
}

// arrivalRate is results-per-second across a window of arrival times.
func arrivalRate(a []time.Time) float64 {
	if len(a) < 2 {
		return 0
	}
	span := a[len(a)-1].Sub(a[0]).Seconds()
	if span <= 0 {
		return 0
	}
	return float64(len(a)-1) / span
}

// pipeListener serves synchronous in-process connections: a net.Pipe write
// blocks until the peer reads it, so a producer's pacing reaches the
// server exactly as offered — no kernel socket buffer silently absorbs a
// slow upload while the ingest gate holds its reader parked. That keeps
// the slow-producer benchmark's backpressure honest and host-independent.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial hands the server one pipe half and performs the client handshake
// over the other.
func (l *pipeListener) dial(opt Options) (*Client, error) {
	sc, cc := net.Pipe()
	select {
	case l.conns <- sc:
	case <-l.done:
		cc.Close()
		return nil, net.ErrClosed
	}
	return DialConn(cc, opt)
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

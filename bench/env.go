package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"stapio/internal/cube"
	"stapio/internal/membudget"
	"stapio/internal/pfs"
	"stapio/internal/pipexec"
	"stapio/internal/radar"
	"stapio/internal/serve"
	"stapio/internal/stap"
)

// env is one fully set-up workload: the generated inputs, the reference
// detections, and the system under test ready for a measured block.
type env struct {
	w      *workload
	root   string // temp root of this set-up
	scen   *radar.Scenario
	params stap.Params
	// frames is one dataset cycle, each CPI encoded as a chunked v3 file.
	frames [][]byte
	// ref holds the sequential chain's detections over two dataset cycles.
	// With Forgetting 0 a CPI's detections depend only on its own cube and
	// its predecessor's, so from the second cycle on they repeat with the
	// dataset period.
	ref [][]stap.Detection
	// pairs, while set, relaxes the check to any predecessor (see
	// pairReference).
	pairs [][][]stap.Detection

	fs   *pfs.RealFS
	plan *pfs.FaultPlan
	src  *pipexec.FileSource

	srv     *serve.Server
	cl      *serve.Client
	stopped bool
	// nextSeq is the service's next CPI: one replica numbers CPIs in
	// arrival order across connections, so the weight chain — and with it
	// the reference index — follows this counter.
	nextSeq uint64

	// warmRate is the discarded warm-up block's rate; blocks are sized
	// from it.
	warmRate float64
	// encodeCPIs is how long radar.EncodeCPIs took for the dataset cycle.
	encodeCPIs time.Duration
}

// tally counts the CPIs pushed through the system under test and the ones
// that came back wrong, late or not at all. The watchdog reads it from
// another goroutine.
type tally struct {
	attempted, failed atomic.Int64
	// log, when set, gets a line for each of the first few failures.
	log    io.Writer
	logged atomic.Int32
}

// maxFailureLines bounds what one run says about its failed CPIs.
const maxFailureLines = 10

// fail counts n failed CPIs and says why.
func (t *tally) fail(n int, format string, args ...any) {
	t.failed.Add(int64(n))
	if t.log != nil && t.logged.Add(1) <= maxFailureLines {
		fmt.Fprintf(t.log, "stapledger: failed: "+format+"\n", args...)
	}
}

// refFor returns the reference detections of the k-th CPI of a weight
// chain that started at CPI 0.
func (e *env) refFor(k uint64) []stap.Detection {
	n := uint64(e.w.files)
	if k < n {
		return e.ref[k]
	}
	return e.ref[n+k%n]
}

// pairReference computes, for every cube of the cycle, the chain's
// detections after each possible predecessor: pairs[i][j] is cube i
// processed with weights trained on cube j. The fleet client submits each
// CPI from its own goroutine, so two CPIs sent back to back may reach the
// server in either order; its answers are checked against any predecessor.
func (e *env) pairReference() ([][][]stap.Detection, error) {
	cubes, err := e.cubes()
	if err != nil {
		return nil, err
	}
	pairs := make([][][]stap.Detection, len(cubes))
	for i := range cubes {
		pairs[i] = make([][]stap.Detection, len(cubes))
		for j := range cubes {
			pr, err := stap.NewProcessor(e.params)
			if err != nil {
				return nil, err
			}
			if _, err := pr.Process(cubes[j], 0); err != nil {
				return nil, err
			}
			if pairs[i][j], err = pr.Process(cubes[i], 1); err != nil {
				return nil, err
			}
		}
	}
	return pairs, nil
}

// correct reports whether dets is what the chain computes for the k-th CPI
// of the weight chain — after its predecessor in submission order, or,
// while pairs is set, after any predecessor.
func (e *env) correct(k uint64, dets []stap.Detection) bool {
	if e.pairs == nil {
		return sameDetections(dets, e.refFor(k))
	}
	for _, want := range e.pairs[k%uint64(len(e.pairs))] {
		if sameDetections(dets, want) {
			return true
		}
	}
	return false
}

// sameDetections compares two detection lists field for field, modulo Seq
// (the service restamps it with the producer's numbering).
func sameDetections(got, want []stap.Detection) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Beam != w.Beam || g.Bin != w.Bin || g.Range != w.Range || g.Power != w.Power || g.Threshold != w.Threshold {
			return false
		}
	}
	return true
}

// setUp builds the workload from the seed: scenario generation and
// encoding, the striped write, the reference chain, the source or the
// service, and one discarded warm-up block. tr (optional) gets a span per
// step. On error everything built so far is torn down.
func setUp(ctx context.Context, w *workload, seed int64, tl *tally, tr *tracer) (e *env, err error) {
	root, err := os.MkdirTemp("", "stapledger-")
	if err != nil {
		return nil, err
	}
	activeRoots.add(root)
	e = &env{w: w, root: root}
	defer func() {
		if err != nil {
			e.tearDown()
			e = nil
		}
	}()
	sp := tr.begin("setup", -1, -1)
	defer tr.end(sp)

	e.scen = w.scenario()
	e.scen.Seed = seed
	e.params = params(e.scen)

	t0 := time.Now()
	id := tr.begin("radar.encode_cpis", sp, -1)
	e.frames, err = radar.EncodeCPIs(e.scen, w.files, w.chunk)
	tr.end(id)
	e.encodeCPIs = time.Since(t0)
	if err != nil {
		return e, err
	}

	if !w.served {
		e.fs, err = pfs.CreateReal(filepath.Join(root, "store"), w.stripeDirs, w.stripeUnit, true)
		if err != nil {
			return e, err
		}
		for i, f := range e.frames {
			id := tr.begin("pfs.write", sp, int64(i))
			err = e.fs.WriteFile(radar.FileName(i), f)
			tr.end(id)
			if err != nil {
				return e, err
			}
		}
	}

	id = tr.begin("stap.reference", sp, -1)
	err = e.reference()
	tr.end(id)
	if err != nil {
		return e, err
	}

	if w.served {
		cfg := w.config(e.params)
		e.srv, err = serve.New(serve.Config{Params: cfg.Params, Workers: cfg.Workers, Replicas: 1, MaxInFlight: 32})
		if err != nil {
			return e, err
		}
		if err = e.srv.Start("127.0.0.1:0"); err != nil {
			return e, err
		}
		e.cl, err = serve.Dial(e.srv.Addr().String(), serve.Options{Dims: e.scen.Dims, Streaming: true})
		if err != nil {
			return e, err
		}
	} else {
		if w.faults != nil {
			// Installed after the write so the probe and the staging
			// writes are clean; every data read from here on draws.
			e.plan = w.faults(seed)
			e.fs.SetFaults(e.plan)
		}
		e.src, err = pipexec.NewFileSource(e.fs, e.scen.Dims, w.files)
		if err != nil {
			return e, err
		}
	}

	id = tr.begin("warmup", sp, -1)
	var b block
	if w.served {
		b = e.warmService(tl)
	} else {
		b = e.block(ctx, w.warmup, tl, nil)
	}
	tr.end(id)
	if b.err != nil {
		return e, fmt.Errorf("warm-up block: %w", b.err)
	}
	e.warmRate = b.rate()
	return e, nil
}

// warmService is the service's warm-up: closed-loop blocks of w.warmup CPIs
// until serveWarmFor has passed. It is boxed in time, not in CPIs, because
// the service's set-up is nine tenths warm-up, and a fixed count would make
// setup_s one more reading of the closed-loop rate — the number that moves
// most with the host (see README, Steadiness) — instead of a reading of the
// set-up. Work moved into generation, server start or dial still shows on
// top of the box.
func (e *env) warmService(tl *tally) block {
	var sum block
	for start := time.Now(); time.Since(start) < serveWarmFor; {
		b := e.serveBlock(directConn(e.cl), e.w.warmup, serveWindow, 0, tl, nil)
		sum.n += b.n
		sum.elapsed += b.elapsed
		if sum.err = b.err; b.err != nil {
			break
		}
	}
	return sum
}

// cubes decodes the dataset cycle.
func (e *env) cubes() ([]*cube.Cube, error) {
	cubes := make([]*cube.Cube, len(e.frames))
	for i, f := range e.frames {
		cb, _, err := cube.Read(bytes.NewReader(f))
		if err != nil {
			return nil, fmt.Errorf("decoding generated CPI %d: %w", i, err)
		}
		cubes[i] = cb
	}
	return cubes, nil
}

// reference runs the kept sequential chain over two dataset cycles.
func (e *env) reference() error {
	cubes, err := e.cubes()
	if err != nil {
		return err
	}
	pr, err := stap.NewProcessor(e.params)
	if err != nil {
		return err
	}
	e.ref = make([][]stap.Detection, 2*len(cubes))
	for k := range e.ref {
		if e.ref[k], err = pr.Process(cubes[k%len(cubes)], uint64(k)); err != nil {
			return fmt.Errorf("reference chain CPI %d: %w", k, err)
		}
	}
	return nil
}

// stop shuts the service down: Close, then Shutdown within 10 s, then
// Kill. The server value stays readable (its statistics outlive it).
func (e *env) stop() {
	if e.cl != nil {
		e.cl.Close()
		e.cl = nil
	}
	if e.srv != nil && !e.stopped {
		e.stopped = true
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := e.srv.Shutdown(ctx); err != nil {
			e.srv.Kill()
		}
	}
}

// tearDown stops the service and removes the temp root.
func (e *env) tearDown() {
	e.stop()
	if err := os.RemoveAll(e.root); err == nil {
		activeRoots.remove(e.root)
	}
}

// block is one measured (or warm-up) block and what it exported.
type block struct {
	n       int
	failed  int
	elapsed time.Duration
	// lat holds one latency per answered CPI: head-stage start to CFAR
	// done on the file workloads, client submit to result on the service's
	// closed loop, due time to answer on its open loop.
	lat []time.Duration
	// res is the executor's own summary (file workloads).
	res *pipexec.Result
	// load is the generator's own accounting (service).
	load *loadStats
	// reportBusy/reports time the report sink's writes.
	reportBusy time.Duration
	reports    int64
	err        error
}

func (b block) rate() float64 {
	if b.elapsed <= 0 {
		return 0
	}
	return float64(b.n) / b.elapsed.Seconds()
}

// block pushes n CPIs through the workload's system and checks every one
// against the reference. tr, when non-nil, makes it a traced block.
func (e *env) block(ctx context.Context, n int, tl *tally, tr *tracer) block {
	if e.w.served {
		return e.serveBlock(directConn(e.cl), n, serveWindow, 0, tl, tr)
	}
	return e.fileBlock(ctx, e.w.config(e.params), n, tl, tr)
}

// fileBlock is one pipexec.Run (or RunBanded) of n CPIs from seq 0.
func (e *env) fileBlock(ctx context.Context, cfg pipexec.Config, n int, tl *tally, tr *tracer) block {
	b := block{n: n}
	tl.attempted.Add(int64(n))
	sp := tr.begin("block", -1, -1)
	var sink *reportSink
	if e.w.reports {
		sink = &reportSink{fs: e.fs, tr: tr, parent: sp}
		cfg.Reports = sink
	}
	start := time.Now()
	if e.w.banded && cfg.BandRanges > 0 {
		cfg.MemBudget = membudget.New("bench", pipexec.BandedMinResidency(&cfg.Params, cfg.BandRanges))
		var src pipexec.BandedSource = e.src
		if tr != nil {
			src = pipexec.FuncBandSource(func(seq uint64, lo, hi int, dst *cube.Cube) error {
				return tr.in("pipexec.readband", sp, int64(seq), func() error { return e.src.ReadBand(seq, lo, hi, dst) })
			})
		}
		b.res, b.err = pipexec.RunBanded(ctx, cfg, src, n)
	} else {
		b.res, b.err = pipexec.Run(ctx, cfg, e.src, n)
	}
	b.elapsed = time.Since(start)
	tr.end(sp)
	if b.err != nil {
		b.failed = n
		tl.fail(n, "block of %d CPIs: %v", n, b.err)
		return b
	}
	if sink != nil {
		b.reportBusy, b.reports = time.Duration(sink.busy.Load()), sink.n.Load()
	}
	// A dropped CPI is missing from res.CPIs; everything not answered
	// right counts as failed.
	good := 0
	b.lat = make([]time.Duration, 0, len(b.res.CPIs))
	for _, c := range b.res.CPIs {
		b.lat = append(b.lat, c.Latency)
		tr.add("cpi", c.Done.Add(-c.Latency), c.Done, sp, int64(c.Seq))
		if sameDetections(c.Detections, e.refFor(c.Seq)) {
			good++
		} else {
			tl.fail(1, "CPI %d: detections differ from the reference chain's", c.Seq)
		}
	}
	if missing := n - len(b.res.CPIs); missing > 0 {
		tl.fail(missing, "%d of %d CPIs dropped: %v", missing, n, b.res.Stats.DroppedSeqs)
	}
	if sink != nil && good == n {
		if b.err = e.checkReport(b.res.CPIs[n-1]); b.err != nil {
			tl.fail(1, "%v", b.err)
			good--
		}
	}
	b.failed = n - good
	return b
}

// reportSink writes each CPI's encoded reports to the store the cubes are
// read from, cycling through reportSlots files, and times the writes.
type reportSink struct {
	fs      *pfs.RealFS
	tr      *tracer
	parent  int
	busy, n atomic.Int64
}

func (s *reportSink) WriteReports(seq uint64, dets []stap.Detection) error {
	t0 := time.Now()
	id := s.tr.begin("pfs.report_write", s.parent, int64(seq))
	err := s.fs.WriteFile(pipexec.ReportFileName(seq%reportSlots), pipexec.EncodeReports(seq, dets))
	s.tr.end(id)
	s.busy.Add(int64(time.Since(t0)))
	s.n.Add(1)
	return err
}

// checkReport reads the last CPI's report file back (bypassing fault
// injection) and compares it with what the pipeline returned.
func (e *env) checkReport(c pipexec.CPIResult) error {
	name := pipexec.ReportFileName(c.Seq % reportSlots)
	size, err := e.fs.FileSize(name)
	if err != nil {
		return fmt.Errorf("report file of CPI %d: %w", c.Seq, err)
	}
	buf := make([]byte, size)
	if err := e.fs.ProbeAt(name, 0, buf); err != nil {
		return fmt.Errorf("report file of CPI %d: %w", c.Seq, err)
	}
	seq, dets, err := pipexec.DecodeReports(buf)
	if err != nil {
		return fmt.Errorf("report file of CPI %d: %w", c.Seq, err)
	}
	if seq != c.Seq || !sameDetections(dets, c.Detections) {
		return fmt.Errorf("report file of CPI %d does not hold its detections", c.Seq)
	}
	return nil
}

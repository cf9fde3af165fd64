package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"stapio/internal/cube"
	"stapio/internal/linalg"
	"stapio/internal/radar"
	"stapio/internal/signal"
	"stapio/internal/stap"
)

// walkReadAttempts bounds the walk's whole-file re-reads of a cube whose
// chunks fail their CRCs under the store's fault plan.
const walkReadAttempts = 6

// walkGenerate is how many of the walk's CPIs are also generated again.
const walkGenerate = 2

// walkStats is what the walk measured besides its spans.
type walkStats struct {
	k           int
	chainAllocs uint64
	readBytes   int64
	fftDoppler  time.Duration // per call
	fftPulse    time.Duration
	solveHard   time.Duration
}

// walk is the traced run's first leg: a single-threaded pass over k of the
// workload's own CPIs, one span around each public call into a layer, so
// every layer's cost per CPI is measured with nothing else running. Each
// CPI goes read -> verify -> decode -> the seven kernels in the order the
// sequential chain calls them, then through stap.Processor itself (the
// kept single-threaded baseline); both are checked against the reference.
// The banded workload additionally walks the band twins.
func (e *env) walk(tr *tracer, k int, tl *tally) (walkStats, error) {
	ws := walkStats{k: k}
	p := &e.params
	easy, hard := p.EasyBins(), p.HardBins()
	wEasy, wHard := stap.InitialWeights(p, easy), stap.InitialWeights(p, hard)
	comp := stap.NewCompressor(p)
	chain, err := stap.NewProcessor(e.params)
	if err != nil {
		return ws, err
	}
	var band *bandWalk
	if e.w.banded {
		band = newBandWalk(e)
	}
	cb := cube.New(e.scen.Dims)
	buf := make([]byte, len(e.frames[0]))
	enc := make([]byte, len(buf))
	var bad []int
	var lastDop *stap.DopplerCube

	tl.attempted.Add(int64(k))
	for i := 0; i < k; i++ {
		seq := uint64(i)
		cpi := int64(i)
		root := tr.begin("walk.input", -1, cpi)
		fail := func(err error) (walkStats, error) {
			tl.fail(k-i, "walk CPI %d: %v", i, err)
			return ws, fmt.Errorf("walk CPI %d: %w", i, err)
		}

		// Input: the striped read on the file workloads, the replayed
		// frame restamped as the load generator does on the service.
		var h cube.Header
		for attempt := 0; ; attempt++ {
			if e.fs != nil {
				name := radar.FileName(radar.FileFor(seq, e.w.files))
				err = tr.in("pfs.read", root, cpi, func() error { return e.fs.ReadAtAttempt(name, 0, buf, attempt) })
				ws.readBytes += int64(len(buf))
			} else {
				copy(buf, e.frames[i%len(e.frames)])
				err = cube.PatchSeq(buf, seq)
			}
			if err != nil {
				return fail(err)
			}
			if h, err = cube.ParseHeader(buf); err != nil {
				return fail(err)
			}
			payload := buf[h.PayloadOffset():]
			err = tr.in("cube.verify", root, cpi, func() error {
				bad, err = cube.VerifyChunks(&h, payload, 0, h.Chunks(), bad[:0])
				return err
			})
			if err != nil {
				return fail(err)
			}
			if len(bad) == 0 {
				break
			}
			if attempt+1 == walkReadAttempts {
				return fail(fmt.Errorf("%d chunks still corrupt after %d reads", len(bad), walkReadAttempts))
			}
		}
		payload := buf[h.PayloadOffset():]
		tr.in("cube.decode", root, cpi, func() error {
			for c := 0; c < h.Chunks(); c++ {
				cube.DecodeChunk(cb, &h, payload, c)
			}
			return nil
		})
		tr.end(root)

		// The producer's side of the same bytes: re-encoding the decoded
		// cube must give the file back, and (for the first CPIs — paper-
		// scale generation takes half a second) generating it again must
		// give the cube back.
		tr.in("cube.encode", -1, cpi, func() error {
			cube.EncodeChunked(cb, h.Seq, e.w.chunk, enc)
			return nil
		})
		ok := bytes.Equal(enc, buf)
		if i < walkGenerate {
			var gen *cube.Cube
			if err = tr.in("radar.generate", -1, cpi, func() (err error) {
				gen, err = e.scen.Generate(uint64(i))
				return
			}); err != nil {
				return fail(err)
			}
			ok = ok && cube.Equal(gen, cb, 0)
		}
		root = tr.begin("walk.kernels", -1, cpi)

		// The seven kernels, in the sequential chain's order.
		var dc *stap.DopplerCube
		if err = tr.in("stap.doppler", root, cpi, func() (err error) {
			dc, err = stap.DopplerFilter(p, cb, seq)
			return
		}); err != nil {
			return fail(err)
		}
		bc := stap.NewBeamCube(p)
		bc.Seq = seq
		if err = tr.in("stap.beamform_easy", root, cpi, func() error { return stap.Beamform(p, dc, wEasy, easy, bc) }); err != nil {
			return fail(err)
		}
		if err = tr.in("stap.beamform_hard", root, cpi, func() error { return stap.Beamform(p, dc, wHard, hard, bc) }); err != nil {
			return fail(err)
		}
		var covE, covH []*linalg.Matrix
		if err = tr.in("stap.cov_easy", root, cpi, func() (err error) {
			covE, err = stap.EstimateCovariances(p, dc, easy, false)
			return
		}); err != nil {
			return fail(err)
		}
		if err = tr.in("stap.weights_easy", root, cpi, func() (err error) {
			wEasy, err = stap.SolveWeights(p, covE, easy, seq)
			return
		}); err != nil {
			return fail(err)
		}
		if err = tr.in("stap.cov_hard", root, cpi, func() (err error) {
			covH, err = stap.EstimateCovariances(p, dc, hard, true)
			return
		}); err != nil {
			return fail(err)
		}
		if err = tr.in("stap.weights_hard", root, cpi, func() (err error) {
			wHard, err = stap.SolveWeights(p, covH, hard, seq)
			return
		}); err != nil {
			return fail(err)
		}
		if err = tr.in("stap.pulsecomp", root, cpi, func() error { return stap.Compress(p, bc, comp, nil) }); err != nil {
			return fail(err)
		}
		var dets []stap.Detection
		if err = tr.in("stap.cfar", root, cpi, func() (err error) {
			dets, err = stap.CFARWith(p, p.CFAR.Kind, bc, nil)
			return
		}); err != nil {
			return fail(err)
		}
		tr.end(root)
		want := e.refFor(seq)
		ok = ok && sameDetections(dets, want)
		lastDop = dc

		// The kept baseline: the same cube through stap.Processor.
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		id := tr.begin("stap.chain", -1, cpi)
		dets, err = chain.Process(cb, seq)
		tr.end(id)
		runtime.ReadMemStats(&m1)
		ws.chainAllocs += m1.Mallocs - m0.Mallocs
		if err != nil {
			return fail(err)
		}
		ok = ok && sameDetections(dets, want)

		if band != nil {
			if dets, err = band.cpi(tr, seq); err != nil {
				return fail(err)
			}
			ok = ok && sameDetections(dets, want)
		}
		if !ok {
			tl.fail(1, "walk CPI %d: a layer's output differs from its reference", i)
		}
	}

	// Primitive costs under the kernels: one Doppler-length FFT (Bluestein
	// when the bin count is not a power of two), one pulse-compression-
	// length FFT, one hard-bin Cholesky solve.
	ws.fftDoppler = timeFFT(p.Bins())
	ws.fftPulse = timeFFT(signal.NextPow2(p.Dims.Ranges + p.PulseLen - 1))
	ws.solveHard, err = timeSolveHard(p, lastDop, hard)
	return ws, err
}

// microReps is how often the primitive timers repeat their call.
const microReps = 64

func timeFFT(n int) time.Duration {
	plan := signal.PlanFor(n).Clone()
	src := make([]complex128, n)
	for i := range src {
		src[i] = complex(float64(i%7)-3, float64(i%5)-2)
	}
	x := make([]complex128, n)
	var busy time.Duration
	for r := 0; r < microReps; r++ {
		copy(x, src) // repeated transforms of one buffer would overflow
		t0 := time.Now()
		plan.Forward(x)
		busy += time.Since(t0)
	}
	return busy / microReps
}

func timeSolveHard(p *stap.Params, dc *stap.DopplerCube, hard []int) (time.Duration, error) {
	if dc == nil || len(hard) == 0 {
		return 0, nil
	}
	covs, err := stap.EstimateCovariances(p, dc, hard[:1], true)
	if err != nil {
		return 0, err
	}
	r := covs[0]
	var trace float64
	for k := 0; k < r.Rows; k++ {
		trace += real(r.At(k, k))
	}
	r.AddScaledIdentity(complex(p.DiagonalLoad*trace/float64(r.Rows)+1e-12, 0))
	t := p.Steering(p.Beams[0], hard[0])
	t0 := time.Now()
	for i := 0; i < microReps; i++ {
		if _, err := linalg.SolveHermitian(r, t); err != nil {
			return 0, err
		}
	}
	return time.Since(t0) / microReps, nil
}

// bandWalk is the walk over the band twins: the banded executor's per-band
// sequence (ReadBand, DopplerFilterBand, covariance AddBand, BeamformBand)
// called one at a time under spans.
type bandWalk struct {
	e            *env
	easy, hard   []int
	slab         *cube.Cube
	dop          *stap.DopplerCube
	bc           *stap.BeamCube
	sc           *stap.DopplerScratch
	accE, accH   *stap.CovAccumulator
	wEasy, wHard *stap.WeightSet
	comp         *stap.Compressor
}

func newBandWalk(e *env) *bandWalk {
	p := &e.params
	d := p.Dims
	b := &bandWalk{
		e: e, easy: p.EasyBins(), hard: p.HardBins(),
		slab: cube.New(cube.Dims{Channels: d.Channels, Pulses: d.Pulses, Ranges: bandRanges}),
		dop:  stap.NewDopplerCubeBand(p, bandRanges),
		bc:   stap.NewBeamCube(p),
		sc:   stap.NewDopplerScratch(p),
		comp: stap.NewCompressor(p),
	}
	// The bin sets come from the parameters, so construction cannot fail.
	b.accE, _ = stap.NewCovAccumulator(p, b.easy, false)
	b.accH, _ = stap.NewCovAccumulator(p, b.hard, true)
	b.wEasy, b.wHard = stap.InitialWeights(p, b.easy), stap.InitialWeights(p, b.hard)
	return b
}

// cpi walks one CPI band by band. The range extent divides by bandRanges
// on the banded workload's geometry, so there is no tail band.
func (b *bandWalk) cpi(tr *tracer, seq uint64) ([]stap.Detection, error) {
	p := &b.e.params
	cpi := int64(seq)
	root := tr.begin("walk.cpi_banded", -1, cpi)
	defer tr.end(root)
	b.bc.Seq = seq
	for lo := 0; lo < p.Dims.Ranges; lo += bandRanges {
		steps := []struct {
			name string
			fn   func() error
		}{
			{"pipexec.readband", func() error { return b.e.src.ReadBand(seq, lo, lo+bandRanges, b.slab) }},
			{"stap.doppler_band", func() error {
				return stap.DopplerFilterBand(p, b.slab, cube.Block{Lo: 0, Hi: bandRanges}, b.dop, b.sc)
			}},
			{"stap.cov_band", func() error {
				if err := b.accE.AddBand(b.dop, lo, cube.Block{Lo: 0, Hi: len(b.easy)}); err != nil {
					return err
				}
				return b.accH.AddBand(b.dop, lo, cube.Block{Lo: 0, Hi: len(b.hard)})
			}},
			{"stap.beamform_band", func() error {
				if err := stap.BeamformBand(p, b.dop, b.wEasy, b.easy, lo, b.bc); err != nil {
					return err
				}
				return stap.BeamformBand(p, b.dop, b.wHard, b.hard, lo, b.bc)
			}},
		}
		for _, s := range steps {
			if err := tr.in(s.name, root, cpi, s.fn); err != nil {
				return nil, err
			}
		}
	}
	solve := func(acc *stap.CovAccumulator, bins []int) (*stap.WeightSet, error) {
		covs, err := acc.Finish()
		if err != nil {
			return nil, err
		}
		ws, err := stap.SolveWeights(p, covs, bins, seq)
		acc.Reset()
		return ws, err
	}
	var err error
	if b.wEasy, err = solve(b.accE, b.easy); err != nil {
		return nil, err
	}
	if b.wHard, err = solve(b.accH, b.hard); err != nil {
		return nil, err
	}
	if err := stap.Compress(p, b.bc, b.comp, nil); err != nil {
		return nil, err
	}
	return stap.CFARWith(p, p.CFAR.Kind, b.bc, nil)
}

package stap

import (
	"math/bits"
	"testing"

	"stapio/internal/cube"
	"stapio/internal/radar"
)

// The Doppler→CFAR hot path — Doppler filtering, weight computation,
// beamforming, pulse compression, and CFAR — must not allocate in steady
// state once its per-worker scratch state (DopplerScratch, WeightSolver,
// weight sets, Compressor, CFARScratch) is built. These regression tests
// pin that property with testing.AllocsPerRun so a future change that
// re-introduces per-CPI allocation fails CI rather than quietly eroding
// throughput.

func allocTestSetup(t testing.TB) (Params, *cube.Cube) {
	t.Helper()
	s := radar.SmallTestScenario()
	p := DefaultParams(s.Dims)
	p.PulseLen = s.PulseLen
	p.Bandwidth = s.Bandwidth
	cb, err := s.Generate(0)
	if err != nil {
		t.Fatal(err)
	}
	return p, cb
}

func TestDopplerFilterRangesZeroAlloc(t *testing.T) {
	p, cb := allocTestSetup(t)
	out := NewDopplerCube(&p)
	sc := NewDopplerScratch(&p)
	blk := cube.Block{Lo: 0, Hi: p.Dims.Ranges}
	if err := DopplerFilterRanges(&p, cb, blk, out, sc); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(10, func() {
		if err := DopplerFilterRanges(&p, cb, blk, out, sc); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("DopplerFilterRanges allocated %v times per CPI, want 0", n)
	}
}

func TestBeamformZeroAlloc(t *testing.T) {
	p, cb := allocTestSetup(t)
	dc, err := DopplerFilter(&p, cb, 0)
	if err != nil {
		t.Fatal(err)
	}
	easy := InitialWeights(&p, p.EasyBins())
	hard := InitialWeights(&p, p.HardBins())
	bc := NewBeamCube(&p)
	n := testing.AllocsPerRun(10, func() {
		if err := Beamform(&p, dc, easy, easy.Bins, bc); err != nil {
			t.Fatal(err)
		}
		if err := Beamform(&p, dc, hard, hard.Bins, bc); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("Beamform allocated %v times per CPI, want 0", n)
	}
}

func TestCompressZeroAlloc(t *testing.T) {
	p, _ := allocTestSetup(t)
	bc := NewBeamCube(&p)
	for i := range bc.Data {
		bc.Data[i] = complex(float64(i%5)*0.2, 0.1)
	}
	comp := NewCompressor(&p)
	pairs := AllBeamBins(bc.Beams, bc.Bins)
	n := testing.AllocsPerRun(10, func() {
		if err := Compress(&p, bc, comp, pairs); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("Compress allocated %v times per CPI, want 0", n)
	}
}

func TestCovAccumulatorZeroAlloc(t *testing.T) {
	// The banded covariance accumulator is per-CPI steady state too: after
	// construction, an AddBand/Finish/Reset cycle must not allocate.
	p, cb := allocTestSetup(t)
	dc, err := DopplerFilter(&p, cb, 0)
	if err != nil {
		t.Fatal(err)
	}
	bins := p.EasyBins()
	acc, err := NewCovAccumulator(&p, bins, false)
	if err != nil {
		t.Fatal(err)
	}
	bb := cube.Block{Lo: 0, Hi: len(bins)}
	n := testing.AllocsPerRun(10, func() {
		if err := acc.AddBand(dc, 0, bb); err != nil {
			t.Fatal(err)
		}
		if _, err := acc.Finish(); err != nil {
			t.Fatal(err)
		}
		acc.Reset()
	})
	if n != 0 {
		t.Errorf("CovAccumulator cycle allocated %v times per CPI, want 0", n)
	}
}

func TestWeightSolverZeroAlloc(t *testing.T) {
	// Weight computation is steady state too once the solver (steering
	// table, covariance matrices, worker scratch) and the weight set are
	// built: estimate + smooth + solve must not allocate, on easy and hard
	// bins, with and without covariance smoothing (the smoother's first
	// update copies its state; later ones blend in place).
	p, cb := allocTestSetup(t)
	dc, err := DopplerFilter(&p, cb, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, forgetting := range []float64{0, 0.8} {
		for _, hard := range []bool{false, true} {
			bins := p.EasyBins()
			if hard {
				bins = p.HardBins()
			}
			s, err := NewWeightSolver(&p, bins, hard)
			if err != nil {
				t.Fatal(err)
			}
			sm := CovarianceSmoother{Lambda: forgetting}
			ws := s.NewWeightSet()
			all := cube.Block{Lo: 0, Hi: len(bins)}
			cycle := func() {
				if err := s.Estimate(0, dc, all); err != nil {
					t.Fatal(err)
				}
				if err := s.Solve(0, sm.Update(s.Covariances()), all, ws); err != nil {
					t.Fatal(err)
				}
			}
			cycle()
			if n := testing.AllocsPerRun(10, cycle); n != 0 {
				t.Errorf("hard=%v lambda=%g: weight solve allocated %v times per CPI, want 0", hard, forgetting, n)
			}
		}
	}
}

func TestProcessorSteadyStateAllocs(t *testing.T) {
	// The sequential chain reuses every intermediate across Process calls,
	// so after the first CPI the only allocations left are the returned
	// detection slice growing by appends (at most one per doubling).
	p, cb := allocTestSetup(t)
	pr, err := NewProcessor(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Process(cb, 0); err != nil {
		t.Fatal(err)
	}
	var dets int
	n := testing.AllocsPerRun(10, func() {
		d, err := pr.Process(cb, 1)
		if err != nil {
			t.Fatal(err)
		}
		dets = len(d)
	})
	if bound := float64(bits.Len(uint(dets))); n > bound {
		t.Errorf("Process allocated %v times per CPI with %d detections, want <= %v", n, dets, bound)
	}
}

func TestCFARZeroAllocWithoutDetections(t *testing.T) {
	// With a caller-owned scratch and no threshold crossings, every CFAR
	// variant must complete a CPI without allocating; the detection slice
	// is the only output that may allocate, and only when detections exist.
	p, _ := allocTestSetup(t)
	bc := NewBeamCube(&p) // all-zero: no cell can exceed its threshold
	pairs := AllBeamBins(bc.Beams, bc.Bins)
	for _, kind := range []CFARKind{CFARCellAveraging, CFARGreatestOf, CFARSmallestOf, CFAROrderedStatistic} {
		sc := NewCFARScratch(&p)
		n := testing.AllocsPerRun(10, func() {
			dets, err := CFARWithScratch(&p, kind, bc, pairs, sc)
			if err != nil {
				t.Fatal(err)
			}
			if len(dets) != 0 {
				t.Fatalf("%v: unexpected detections on a zero cube", kind)
			}
		})
		if n != 0 {
			t.Errorf("%v CFAR allocated %v times per CPI, want 0", kind, n)
		}
	}
}

func TestCFARScratchMatchesScratchless(t *testing.T) {
	// Scratch reuse must not change the detections.
	p, cb := allocTestSetup(t)
	dc, err := DopplerFilter(&p, cb, 0)
	if err != nil {
		t.Fatal(err)
	}
	bc := NewBeamCube(&p)
	easy := InitialWeights(&p, p.EasyBins())
	hard := InitialWeights(&p, p.HardBins())
	if err := Beamform(&p, dc, easy, easy.Bins, bc); err != nil {
		t.Fatal(err)
	}
	if err := Beamform(&p, dc, hard, hard.Bins, bc); err != nil {
		t.Fatal(err)
	}
	if err := Compress(&p, bc, NewCompressor(&p), nil); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []CFARKind{CFARCellAveraging, CFARGreatestOf, CFARSmallestOf, CFAROrderedStatistic} {
		want, err := CFARWith(&p, kind, bc, nil)
		if err != nil {
			t.Fatal(err)
		}
		sc := NewCFARScratch(&p)
		pairs := AllBeamBins(bc.Beams, bc.Bins)
		// Run twice through the same scratch: results must be stable.
		for pass := 0; pass < 2; pass++ {
			got, err := CFARWithScratch(&p, kind, bc, pairs, sc)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v pass %d: %d detections with scratch, %d without", kind, pass, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v pass %d: detection %d differs: %+v vs %+v", kind, pass, i, got[i], want[i])
				}
			}
		}
	}
}

package stap

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"stapio/internal/cube"
	"stapio/internal/linalg"
	"stapio/internal/signal"
)

// Equivalence tests for the blocked/batched kernels against plain scalar
// references, on random geometries covering both power-of-two and
// Bluestein Doppler lengths: the tiled, fused-window Doppler filter
// against a per-element windowed DFT; the strip beamformer against
// one-at-a-time conjugated dots; the panel covariance against rank-1
// outer-product accumulation; and the batched pulse compressor against
// the profile-at-a-time path (which must be exact, not just close).

func randCube(rng *rand.Rand, d cube.Dims) *cube.Cube {
	cb := cube.New(d)
	for i := range cb.Data {
		cb.Data[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	return cb
}

func equivParams(d cube.Dims) Params {
	p := DefaultParams(d)
	p.TrainEasy = min(2*d.Channels, d.Ranges)
	p.TrainHard = min(4*d.Channels, d.Ranges)
	return p
}

// equivGeometries mixes snapshot lengths, Bluestein bin counts (Pulses 16
// -> L 15), and range extents that leave tile and panel remainders.
var equivGeometries = []cube.Dims{
	{Channels: 2, Pulses: 9, Ranges: 21},   // L = 8, power of two
	{Channels: 4, Pulses: 16, Ranges: 53},  // L = 15, Bluestein
	{Channels: 3, Pulses: 33, Ranges: 40},  // L = 32, power of two
	{Channels: 5, Pulses: 12, Ranges: 100}, // L = 11, Bluestein
}

func relErr(got, want complex128) float64 {
	d := got - want
	return math.Hypot(real(d), imag(d)) / math.Max(1, math.Hypot(real(want), imag(want)))
}

func TestDopplerFilterMatchesWindowedDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, dims := range equivGeometries {
		p := equivParams(dims)
		cb := randCube(rng, dims)
		dc, err := DopplerFilter(&p, cb, 0)
		if err != nil {
			t.Fatal(err)
		}
		l := p.Bins()
		k := p.StaggerCount()
		win := signal.Window(p.Window, l)
		col := make([]complex64, dims.Pulses)
		x := make([]complex128, l)
		for r := 0; r < dims.Ranges; r++ {
			for ch := 0; ch < dims.Channels; ch++ {
				cb.PulseColumn(ch, r, col)
				for st := 0; st < k; st++ {
					// Easy bins store stagger 0 only; staggers >= 1 are
					// checked on the hard bins.
					for i := 0; i < l; i++ {
						x[i] = complex128(col[st+i]) * complex(win[i], 0)
					}
					spec := signal.DFT(x)
					for d := 0; d < l; d++ {
						if st > 0 && !p.IsHard(d) {
							continue
						}
						got := dc.At(d, st, ch, r)
						if e := relErr(got, spec[d]); e > 1e-9 {
							t.Fatalf("%v: bin %d stagger %d ch %d r %d: %v vs DFT %v (rel %g)",
								dims, d, st, ch, r, got, spec[d], e)
						}
					}
				}
			}
		}
	}
}

func TestBeamformMatchesScalarDots(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, dims := range equivGeometries {
		p := equivParams(dims)
		cb := randCube(rng, dims)
		dc, err := DopplerFilter(&p, cb, 0)
		if err != nil {
			t.Fatal(err)
		}
		bc := NewBeamCube(&p)
		for _, set := range [][]int{p.EasyBins(), p.HardBins()} {
			ws, err := ComputeWeights(&p, dc, set, p.IsHard(set[0]))
			if err != nil {
				t.Fatal(err)
			}
			if err := Beamform(&p, dc, ws, set, bc); err != nil {
				t.Fatal(err)
			}
			for _, d := range set {
				dof := p.DoF(d)
				perBeam := ws.For(d)
				for b := range p.Beams {
					prof := bc.Profile(b, d)
					for r := 0; r < dims.Ranges; r++ {
						want := linalg.Dot(perBeam[b], dc.Snapshot(d, r)[:dof])
						if e := relErr(prof[r], want); e > 1e-9 {
							t.Fatalf("%v: bin %d beam %d r %d: %v vs scalar dot %v (rel %g)",
								dims, d, b, r, prof[r], want, e)
						}
					}
				}
			}
		}
	}
}

func TestEstimateCovariancesMatchesRank1(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, dims := range equivGeometries {
		p := equivParams(dims)
		cb := randCube(rng, dims)
		dc, err := DopplerFilter(&p, cb, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, hard := range []bool{false, true} {
			bins := p.EasyBins()
			train := p.TrainEasy
			if hard {
				bins = p.HardBins()
				train = p.TrainHard
			}
			covs, err := EstimateCovariances(&p, dc, bins, hard)
			if err != nil {
				t.Fatal(err)
			}
			gates := trainingGates(dims.Ranges, train)
			inv := 1 / float64(len(gates))
			for i, d := range bins {
				dof := p.DoF(d)
				ref := linalg.NewMatrix(dof, dof)
				for _, g := range gates {
					ref.AccumulateOuter(dc.Snapshot(d, g)[:dof], inv)
				}
				for j := range ref.Data {
					if e := relErr(covs[i].Data[j], ref.Data[j]); e > 1e-9 {
						t.Fatalf("%v hard=%v bin %d: covariance element %d: %v vs rank-1 %v (rel %g)",
							dims, hard, d, j, covs[i].Data[j], ref.Data[j], e)
					}
				}
			}
		}
	}
}

func TestCompressBatchMatchesProfileAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, dims := range equivGeometries {
		p := equivParams(dims)
		bc := NewBeamCube(&p)
		for i := range bc.Data {
			bc.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := &BeamCube{Beams: bc.Beams, Bins: bc.Bins, Ranges: bc.Ranges,
			Data: append([]complex128(nil), bc.Data...)}
		comp := NewCompressor(&p)
		ref := NewCompressor(&p)
		if err := Compress(&p, bc, comp, nil); err != nil {
			t.Fatal(err)
		}
		for _, pb := range AllBeamBins(want.Beams, want.Bins) {
			ref.CompressProfile(want.Profile(pb.Beam, pb.Bin))
		}
		for i := range bc.Data {
			if bc.Data[i] != want.Data[i] {
				t.Fatalf("%v: batched Compress diverges from CompressProfile at %d: %v vs %v",
					dims, i, bc.Data[i], want.Data[i])
			}
		}
	}
}

func TestBeamformWeightLengthErrorBeforeWrite(t *testing.T) {
	// A bad weight vector anywhere in the set must surface as a typed
	// error naming the (bin, beam) pair, and must be caught by the
	// up-front validation pass — before a single output sample lands.
	rng := rand.New(rand.NewSource(36))
	dims := cube.Dims{Channels: 3, Pulses: 16, Ranges: 24}
	p := equivParams(dims)
	cb := randCube(rng, dims)
	dc, err := DopplerFilter(&p, cb, 0)
	if err != nil {
		t.Fatal(err)
	}
	bins := p.EasyBins()
	ws := InitialWeights(&p, bins)
	badBin := bins[len(bins)-1] // last bin: naive per-bin processing would write earlier bins first
	const badBeam = 1
	ws.W[len(bins)-1][badBeam] = ws.W[len(bins)-1][badBeam][:1]
	bc := NewBeamCube(&p)
	err = Beamform(&p, dc, ws, bins, bc)
	var wle *WeightLengthError
	if !errors.As(err, &wle) {
		t.Fatalf("Beamform returned %v, want *WeightLengthError", err)
	}
	if wle.Bin != badBin || wle.Beam != badBeam || wle.Len != 1 || wle.Want != p.DoF(badBin) {
		t.Fatalf("WeightLengthError %+v, want bin %d beam %d len 1 want %d", wle, badBin, badBeam, p.DoF(badBin))
	}
	for i, v := range bc.Data {
		if v != 0 {
			t.Fatalf("Beamform wrote output sample %d before failing validation", i)
		}
	}
	if err := BeamformBand(&p, dc, ws, bins, 0, bc); !errors.As(err, &wle) {
		t.Fatalf("BeamformBand returned %v, want *WeightLengthError", err)
	}
}

func TestDopplerTileDepthInvariance(t *testing.T) {
	// The staging tile only reorders writes; any depth must produce the
	// same bytes. Exercise depth 1 by shrinking the per-call block.
	rng := rand.New(rand.NewSource(35))
	dims := cube.Dims{Channels: 3, Pulses: 16, Ranges: 37}
	p := equivParams(dims)
	cb := randCube(rng, dims)
	whole, err := DopplerFilter(&p, cb, 0)
	if err != nil {
		t.Fatal(err)
	}
	split := NewDopplerCube(&p)
	sc := NewDopplerScratch(&p)
	for lo := 0; lo < dims.Ranges; lo += 3 {
		blk := cube.Block{Lo: lo, Hi: min(lo+3, dims.Ranges)}
		if err := DopplerFilterRanges(&p, cb, blk, split, sc); err != nil {
			t.Fatal(err)
		}
	}
	for i := range whole.Data {
		if whole.Data[i] != split.Data[i] {
			t.Fatalf("split-range Doppler diverges from whole at %d", i)
		}
	}
}

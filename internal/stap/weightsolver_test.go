package stap

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"stapio/internal/cube"
	"stapio/internal/linalg"
	"stapio/internal/signal"
)

// refEstimateCovariances and refSolveWeights are the weight path as it
// stood before WeightSolver: a fresh matrix per bin, a Clone per solve,
// allocating Cholesky and triangular solves, and the steering vector
// rebuilt per (bin, beam). They are the bit-for-bit reference the
// allocation-free path is held to. dc is a full-extent Doppler cube in
// either the compact layout or the full-stride one of compact_test.go.
func refEstimateCovariances(p *Params, dc interface{ Snapshot(bin, r int) []complex128 }, bins []int, hard bool) []*linalg.Matrix {
	train := p.TrainEasy
	if hard {
		train = p.TrainHard
	}
	gates := trainingGates(p.Dims.Ranges, train)
	inv := 1 / float64(len(gates))
	covs := make([]*linalg.Matrix, len(bins))
	for i, d := range bins {
		dof := p.DoF(d)
		panel := make([]complex128, covPanelGates*dof)
		r := linalg.NewMatrix(dof, dof)
		for g0 := 0; g0 < len(gates); g0 += covPanelGates {
			g1 := min(g0+covPanelGates, len(gates))
			for t, g := range gates[g0:g1] {
				copy(panel[t*dof:(t+1)*dof], dc.Snapshot(d, g)[:dof])
			}
			r.AccumulatePanel(panel, g1-g0, inv)
		}
		covs[i] = r
	}
	return covs
}

func refSolveWeights(p *Params, covs []*linalg.Matrix, bins []int) ([][][]complex128, error) {
	out := make([][][]complex128, len(bins))
	for i, d := range bins {
		dof := p.DoF(d)
		r := covs[i].Clone()
		var trace float64
		for k := 0; k < dof; k++ {
			trace += real(r.At(k, k))
		}
		load := p.DiagonalLoad*trace/float64(dof) + 1e-12
		r.AddScaledIdentity(complex(load, 0))
		l, err := linalg.Cholesky(r)
		if err != nil {
			return nil, err
		}
		out[i] = make([][]complex128, len(p.Beams))
		for b, u := range p.Beams {
			t := p.Steering(u, d)
			y, err := linalg.SolveLower(l, t)
			if err != nil {
				return nil, err
			}
			w, err := linalg.SolveUpperH(l, y)
			if err != nil {
				return nil, err
			}
			g := linalg.Dot(t, w)
			if g != 0 {
				for k := range w {
					w[k] /= g
				}
			}
			out[i][b] = w
		}
	}
	return out, nil
}

func sameWeights(got [][][]complex128, want [][][]complex128) error {
	for i := range want {
		for b := range want[i] {
			for k := range want[i][b] {
				if got[i][b][k] != want[i][b][k] {
					return fmt.Errorf("bin #%d beam %d element %d: %v, reference %v", i, b, k, got[i][b][k], want[i][b][k])
				}
			}
		}
	}
	return nil
}

// The solver must reproduce the reference weights exactly (==, not within
// a tolerance) on random geometries — including two-stagger hard bins over
// Bluestein-length Doppler transforms — at several worker splits, over a
// run of CPIs with and without covariance smoothing, while recycling one
// pair of weight sets. SolveWeights and InitialWeights, now wrappers over
// the same arithmetic, are held to the reference too.
func TestWeightSolverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, dims := range equivGeometries {
		for _, forgetting := range []float64{0, 0.7} {
			p := equivParams(dims)
			p.Forgetting = forgetting
			for _, hard := range []bool{false, true} {
				bins := p.EasyBins()
				if hard {
					bins = p.HardBins()
				}
				name := fmt.Sprintf("%v lambda=%g hard=%v", dims, forgetting, hard)
				s, err := NewWeightSolver(&p, bins, hard)
				if err != nil {
					t.Fatal(err)
				}
				refSm := CovarianceSmoother{Lambda: forgetting}
				sm := CovarianceSmoother{Lambda: forgetting}
				sets := [2]*WeightSet{s.NewWeightSet(), s.NewWeightSet()}
				for k := 0; k < 4; k++ {
					dc, err := DopplerFilter(&p, randCube(rng, dims), uint64(k))
					if err != nil {
						t.Fatal(err)
					}
					want, err := refSolveWeights(&p, refSm.Update(refEstimateCovariances(&p, dc, bins, hard)), bins)
					if err != nil {
						t.Fatal(err)
					}
					workers := 1 + k%3
					s.Grow(workers)
					blocks := cube.Split(len(bins), workers)
					for w, blk := range blocks {
						if err := s.Estimate(w, dc, blk); err != nil {
							t.Fatal(err)
						}
					}
					covs := sm.Update(s.Covariances())
					ws := sets[k%2]
					for w, blk := range blocks {
						if err := s.Solve(w, covs, blk, ws); err != nil {
							t.Fatal(err)
						}
					}
					if err := sameWeights(ws.W, want); err != nil {
						t.Fatalf("%s CPI %d, %d workers: %v", name, k, workers, err)
					}
					if forgetting == 0 {
						legacy, err := SolveWeights(&p, refEstimateCovariances(&p, dc, bins, hard), bins, dc.Seq)
						if err != nil {
							t.Fatal(err)
						}
						if err := sameWeights(legacy.W, want); err != nil {
							t.Fatalf("%s CPI %d: SolveWeights: %v", name, k, err)
						}
					}
				}
				init := InitialWeights(&p, bins)
				for i, d := range bins {
					for b, u := range p.Beams {
						tv := p.Steering(u, d)
						g := linalg.Dot(tv, tv)
						for j := range tv {
							if init.W[i][b][j] != tv[j]/g {
								t.Fatalf("%s: InitialWeights bin %d beam %d differs from t/(t^H t)", name, d, b)
							}
						}
					}
				}
			}
		}
	}
}

// refSteering is Params.Steering as it stood before the in-place fill: a
// fresh spatial vector, then each stagger written as that vector times a
// phase advanced by one rot per stagger.
func refSteering(p *Params, u float64, d int) []complex128 {
	s := signal.SteeringVector(p.Dims.Channels, u)
	if !p.IsHard(d) {
		return s
	}
	k := p.StaggerCount()
	out := make([]complex128, k*len(s))
	rot := cmplx.Exp(complex(0, 2*math.Pi*p.BinDoppler(d)))
	phase := complex(1, 0)
	for st := 0; st < k; st++ {
		for i, v := range s {
			out[st*len(s)+i] = v * phase
		}
		phase *= rot
	}
	return out
}

// TestSteeringTableMatchesReference pins the steering vectors the solver's
// table and InitialWeights now fill in place to the allocating reference
// bit for bit, and the solver's conventional weights to InitialWeights.
func TestSteeringTableMatchesReference(t *testing.T) {
	for _, dims := range equivGeometries {
		p := equivParams(dims)
		for _, hard := range []bool{false, true} {
			bins := p.EasyBins()
			if hard {
				bins = p.HardBins()
			}
			s, err := NewWeightSolver(&p, bins, hard)
			if err != nil {
				t.Fatal(err)
			}
			init, conv := InitialWeights(&p, bins), s.InitialWeights()
			for i, d := range bins {
				for b, u := range p.Beams {
					want, got := refSteering(&p, u, d), p.Steering(u, d)
					if len(got) != len(want) {
						t.Fatalf("%v bin %d: steering has %d elements, want %d", dims, d, len(got), len(want))
					}
					for j, v := range want {
						if s.steer[i][b][j] != v || got[j] != v {
							t.Fatalf("%v bin %d beam %d element %d: steering differs from the reference", dims, d, b, j)
						}
						if conv.W[i][b][j] != init.W[i][b][j] {
							t.Fatalf("%v bin %d beam %d element %d: conventional weights differ from InitialWeights", dims, d, b, j)
						}
					}
				}
			}
		}
	}
}

func TestWeightSolverErrors(t *testing.T) {
	p, dc := filteredTestCube(t, 3)
	if _, err := NewWeightSolver(p, p.HardBins(), false); err == nil {
		t.Error("NewWeightSolver accepted hard bins as the easy set")
	}
	s, err := NewWeightSolver(p, p.EasyBins(), false)
	if err != nil {
		t.Fatal(err)
	}
	all := cube.Block{Lo: 0, Hi: len(s.Bins())}
	bad := *dc
	bad.Ranges--
	if err := s.Estimate(0, &bad, all); err == nil {
		t.Error("Estimate accepted a mis-shaped Doppler cube")
	}
	if err := s.Solve(0, s.Covariances()[1:], all, s.NewWeightSet()); err == nil {
		t.Error("Solve accepted too few covariances")
	}
	// A zero covariance loads to a 1e-12 diagonal and still factors; a
	// negative one does not.
	for _, m := range s.Covariances() {
		clear(m.Data)
		m.AddScaledIdentity(-1)
	}
	if err := s.Solve(0, s.Covariances(), all, s.NewWeightSet()); err == nil {
		t.Error("Solve accepted an indefinite covariance")
	}
}

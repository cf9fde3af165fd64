package stap

import (
	"fmt"

	"stapio/internal/linalg"
)

// WeightSet holds the adaptive weight vectors for a set of Doppler bins.
// W[i][b] is the weight vector (length DoF of the bin) for the i-th bin of
// Bins and beam b.
type WeightSet struct {
	// Bins lists the Doppler bin indices this set covers, in ascending
	// order (either the easy or the hard set).
	Bins []int
	// W is indexed [position-in-Bins][beam][dof].
	W [][][]complex128
	// Seq is the CPI sequence number of the Doppler data the weights were
	// trained on; the pipeline applies weights trained on CPI k-1 to the
	// data of CPI k (temporal data dependency).
	Seq uint64
}

// lookup returns the position of bin d in ws.Bins, or -1.
func (ws *WeightSet) lookup(d int) int {
	lo, hi := 0, len(ws.Bins)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case ws.Bins[mid] == d:
			return mid
		case ws.Bins[mid] < d:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return -1
}

// For returns the weight vectors (per beam) for Doppler bin d, or nil if
// the set does not cover d.
func (ws *WeightSet) For(d int) [][]complex128 {
	i := ws.lookup(d)
	if i < 0 {
		return nil
	}
	return ws.W[i]
}

// trainingGates returns k training range gates spread evenly across the
// range extent, excluding nothing (the classic "fencepost" subsample). The
// paper's training strategy details are not given; an even subsample keeps
// the estimate full-rank without favouring any range interval.
func trainingGates(ranges, k int) []int {
	if k > ranges {
		k = ranges
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = i * ranges / k
	}
	return out
}

// covPanelGates is the fixed width, in training gates, of the snapshot
// panels fed to linalg.AccumulatePanel. It is part of the covariance
// accumulation-order contract: panels cover the global training-gate index
// ranges [0,16), [16,32), ... regardless of how the gates arrive, so the
// full-cube estimator and the banded accumulator — which buffers partial
// panels across band boundaries — produce bit-identical matrices. The
// value only trades scratch size against update batching; any fixed value
// is deterministic.
const covPanelGates = 16

// EstimateCovariances returns the (unloaded) sample covariance estimate
// for each listed Doppler bin from the training gates of dc. hard selects
// the snapshot length (full DoF with TrainHard gates vs first-stagger with
// TrainEasy gates). Snapshots are packed into fixed-width panels and
// folded in with the blocked Hermitian update (linalg.AccumulatePanel)
// instead of one rank-1 update per gate. It allocates fresh matrices; the
// pipelines estimate into a WeightSolver's instead.
func EstimateCovariances(p *Params, dc *DopplerCube, bins []int, hard bool) ([]*linalg.Matrix, error) {
	if err := checkDopplerGeometry(p, dc); err != nil {
		return nil, err
	}
	gates := trainingGates(dc.Ranges, trainCount(p, hard))
	covs := make([]*linalg.Matrix, len(bins))
	var panel []complex128
	for i, d := range bins {
		if p.IsHard(d) != hard {
			return nil, fmt.Errorf("stap: bin %d is not in the %s set", d, setName(hard))
		}
		dof := p.DoF(d)
		if len(panel) < covPanelGates*dof {
			panel = make([]complex128, covPanelGates*dof)
		}
		covs[i] = linalg.NewMatrix(dof, dof)
		estimateBin(dc, d, gates, covs[i], panel)
	}
	return covs, nil
}

func checkDopplerGeometry(p *Params, dc *DopplerCube) error {
	if dc.Ranges != p.Dims.Ranges || !dc.laidOutFor(p) {
		return fmt.Errorf("stap: doppler cube geometry mismatch")
	}
	return nil
}

func trainCount(p *Params, hard bool) int {
	if hard {
		return p.TrainHard
	}
	return p.TrainEasy
}

// estimateBin overwrites r (DoF x DoF) with bin d's sample covariance over
// the training gates, packing snapshots through panel (at least
// covPanelGates*DoF long). The panel boundaries are the global
// covPanelGates ones every estimator shares.
func estimateBin(dc *DopplerCube, d int, gates []int, r *linalg.Matrix, panel []complex128) {
	dof := r.Rows
	inv := 1 / float64(len(gates))
	clear(r.Data)
	for g0 := 0; g0 < len(gates); g0 += covPanelGates {
		g1 := min(g0+covPanelGates, len(gates))
		for t, g := range gates[g0:g1] {
			copy(panel[t*dof:(t+1)*dof], dc.Snapshot(d, g))
		}
		r.AccumulatePanel(panel, g1-g0, inv)
	}
}

// SolveWeights turns per-bin covariance estimates into MVDR weights:
// diagonal loading, one Cholesky per bin, one pair of triangular solves
// per beam, unit-gain normalisation toward the steering direction. It
// allocates the result and its scratch; the pipelines solve through a
// WeightSolver, which runs the same arithmetic without allocating.
func SolveWeights(p *Params, covs []*linalg.Matrix, bins []int, seq uint64) (*WeightSet, error) {
	if len(covs) != len(bins) {
		return nil, fmt.Errorf("stap: %d covariances for %d bins", len(covs), len(bins))
	}
	ws := &WeightSet{Bins: append([]int(nil), bins...), W: make([][][]complex128, len(bins)), Seq: seq}
	for i, d := range bins {
		dof := p.DoF(d)
		steer := make([][]complex128, len(p.Beams))
		ws.W[i] = make([][]complex128, len(p.Beams))
		for b, u := range p.Beams {
			steer[b] = p.Steering(u, d)
			ws.W[i][b] = make([]complex128, dof)
		}
		if err := solveBin(p, covs[i], d, steer, linalg.NewMatrix(dof, dof), make([]complex128, dof), ws.W[i]); err != nil {
			return nil, err
		}
	}
	return ws, nil
}

// solveBin is the MVDR solve of one bin: cov is copied into fac (the
// caller's estimate, possibly smoothed, is preserved), diagonally loaded
// and factored in place; each beam's weight vector is solved into
// out[b] through the scratch y and normalised to unit gain on steer[b].
// fac is DoF x DoF and y, out[b] have DoF elements.
func solveBin(p *Params, cov *linalg.Matrix, d int, steer [][]complex128, fac *linalg.Matrix, y []complex128, out [][]complex128) error {
	dof := fac.Rows
	if cov.Rows != dof || cov.Cols != dof {
		return fmt.Errorf("stap: covariance for bin %d is %dx%d, want %d", d, cov.Rows, cov.Cols, dof)
	}
	// Diagonal loading relative to the average diagonal power keeps the
	// estimate well-conditioned when training is light.
	copy(fac.Data, cov.Data)
	var trace float64
	for k := 0; k < dof; k++ {
		trace += real(fac.At(k, k))
	}
	load := p.DiagonalLoad*trace/float64(dof) + 1e-12
	fac.AddScaledIdentity(complex(load, 0))
	if err := linalg.CholeskyInto(fac, fac); err != nil {
		return fmt.Errorf("stap: covariance for bin %d: %w", d, err)
	}
	for b, t := range steer {
		w := out[b]
		if err := linalg.SolveLowerInto(y, fac, t); err != nil {
			return fmt.Errorf("stap: solve bin %d beam %d: %w", d, b, err)
		}
		if err := linalg.SolveUpperHInto(w, fac, y); err != nil {
			return fmt.Errorf("stap: solve bin %d beam %d: %w", d, b, err)
		}
		// Normalise for unit gain on the steering direction:
		// w <- w / (t^H w), the MVDR distortionless response.
		g := linalg.Dot(t, w)
		if g != 0 {
			for k := range w {
				w[k] /= g
			}
		}
	}
	return nil
}

// ComputeWeights computes adaptive weights for the listed Doppler bins
// from the Doppler-filtered cube dc — EstimateCovariances followed by
// SolveWeights. The returned set's Seq is dc.Seq.
func ComputeWeights(p *Params, dc *DopplerCube, bins []int, hard bool) (*WeightSet, error) {
	covs, err := EstimateCovariances(p, dc, bins, hard)
	if err != nil {
		return nil, err
	}
	return SolveWeights(p, covs, bins, dc.Seq)
}

// CovarianceSmoother blends per-bin covariance estimates across CPIs with
// an exponential forgetting factor lambda in [0, 1):
//
//	R_k = lambda * R_{k-1} + (1 - lambda) * Rhat_k
//
// Real systems smooth their training this way to stabilise the weights in
// slowly varying interference; lambda = 0 reproduces per-CPI SMI.
type CovarianceSmoother struct {
	Lambda float64
	prev   []*linalg.Matrix
}

// Update blends the new estimates into the running state and returns the
// smoothed covariances (aliasing the internal state; do not mutate).
func (s *CovarianceSmoother) Update(est []*linalg.Matrix) []*linalg.Matrix {
	if s.Lambda <= 0 || s.prev == nil {
		s.prev = est
		if s.Lambda > 0 {
			// Keep an independent copy so later blends don't mutate the
			// caller's matrices.
			s.prev = make([]*linalg.Matrix, len(est))
			for i, m := range est {
				s.prev[i] = m.Clone()
			}
		}
		return s.prev
	}
	l := complex(s.Lambda, 0)
	nl := complex(1-s.Lambda, 0)
	for i, m := range est {
		pm := s.prev[i]
		for j := range pm.Data {
			pm.Data[j] = l*pm.Data[j] + nl*m.Data[j]
		}
	}
	return s.prev
}

// InitialWeights returns non-adaptive (conventional beamformer) weights for
// the listed bins: w = t / (t^H t). The pipeline uses them for the first
// CPI, before any previous-CPI training data exists; the pipelines build
// them from their WeightSolver's steering table (WeightSolver.Conventional).
func InitialWeights(p *Params, bins []int) *WeightSet {
	ws := NewWeightSet(p, bins)
	for i, d := range bins {
		for b, u := range p.Beams {
			w := ws.W[i][b]
			p.SteeringInto(w, u, d)
			conventional(w, w)
		}
	}
	return ws
}

// conventional writes the unit-gain conventional weights t / (t^H t); w
// may alias t.
func conventional(w, t []complex128) {
	g := linalg.Dot(t, t)
	for k := range t {
		w[k] = t[k] / g
	}
}

func setName(hard bool) string {
	if hard {
		return "hard"
	}
	return "easy"
}

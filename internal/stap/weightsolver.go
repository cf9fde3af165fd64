package stap

import (
	"fmt"

	"stapio/internal/cube"
	"stapio/internal/linalg"
)

// NewWeightSet allocates a weight set shaped for bins — one DoF-long
// vector per (bin, beam), all views into a single backing slab. The
// contents are zero and Seq is 0.
func NewWeightSet(p *Params, bins []int) *WeightSet {
	ws := &WeightSet{Bins: append([]int(nil), bins...), W: make([][][]complex128, len(bins))}
	n := 0
	for _, d := range bins {
		n += len(p.Beams) * p.DoF(d)
	}
	slab := make([]complex128, n)
	vecs := make([][]complex128, len(bins)*len(p.Beams))
	for i, d := range bins {
		dof := p.DoF(d)
		ws.W[i] = vecs[i*len(p.Beams) : (i+1)*len(p.Beams) : (i+1)*len(p.Beams)]
		for b := range ws.W[i] {
			ws.W[i][b], slab = slab[:dof:dof], slab[dof:]
		}
	}
	return ws
}

// CopyFrom overwrites ws's weights and Seq with src's. Both sets must
// have the same shape (the same bins and beams), as two sets built for
// one bin set do.
func (ws *WeightSet) CopyFrom(src *WeightSet) {
	for i, perBeam := range src.W {
		for b, w := range perBeam {
			copy(ws.W[i][b], w)
		}
	}
	ws.Seq = src.Seq
}

// WeightSolver is the allocation-free form of the weight-computation
// tasks (1 and 2) for one bin set. Built once per bin set, it owns
//
//   - the steering vector of every (bin, beam), filled in place by
//     Params.SteeringInto into one slab — constants of Params, computed
//     once per bin set instead of once per CPI, and shared with the
//     conventional weights of Conventional;
//   - one covariance matrix per bin, refilled in place by Estimate;
//   - per-worker scratch: a packing panel for Estimate and a factor
//     matrix plus solve vector for Solve.
//
// Estimate and Solve run the same arithmetic as EstimateCovariances and
// SolveWeights, operand for operand, so the weights are bit-identical;
// Solve writes them straight into a caller-owned WeightSet (NewWeightSet),
// which the pipelines recycle. Calls for disjoint bin blocks with distinct
// worker indices may run concurrently; Grow must not overlap them.
type WeightSolver struct {
	p     *Params
	bins  []int
	dof   int
	gates []int
	steer [][][]complex128 // steer[i][b]: bins[i], beam b
	covs  []*linalg.Matrix
	work  []*solverScratch
}

// solverScratch is one worker's share of a WeightSolver.
type solverScratch struct {
	panel []complex128   // covPanelGates packed snapshots
	fac   *linalg.Matrix // loaded covariance, factored in place
	y     []complex128   // forward-substitution result
}

// NewWeightSolver builds the solver for bins, which must all be hard or
// all easy as selected, with scratch for one worker.
func NewWeightSolver(p *Params, bins []int, hard bool) (*WeightSolver, error) {
	dof := p.Dims.Channels
	if hard {
		dof = p.StaggerCount() * p.Dims.Channels
	}
	s := &WeightSolver{
		p:     p,
		bins:  append([]int(nil), bins...),
		dof:   dof,
		gates: trainingGates(p.Dims.Ranges, trainCount(p, hard)),
		steer: make([][][]complex128, len(bins)),
	}
	slab := make([]complex128, len(bins)*len(p.Beams)*dof)
	rows := make([][]complex128, len(bins)*len(p.Beams))
	for i, d := range bins {
		if p.IsHard(d) != hard {
			return nil, fmt.Errorf("stap: bin %d is not in the %s set", d, setName(hard))
		}
		s.steer[i], rows = rows[:len(p.Beams):len(p.Beams)], rows[len(p.Beams):]
		for b, u := range p.Beams {
			s.steer[i][b], slab = slab[:dof:dof], slab[dof:]
			p.SteeringInto(s.steer[i][b], u, d)
		}
	}
	s.covs = squareMatrices(len(bins), func(int) int { return dof })
	s.Grow(1)
	return s, nil
}

// squareMatrices builds n zero square matrices, matrix i of the given
// order, backed by one data slab: a bin set's matrices then cost three
// allocations instead of two per bin.
func squareMatrices(n int, order func(i int) int) []*linalg.Matrix {
	total := 0
	for i := 0; i < n; i++ {
		total += order(i) * order(i)
	}
	data := make([]complex128, total)
	mats := make([]linalg.Matrix, n)
	out := make([]*linalg.Matrix, n)
	for i := range mats {
		o := order(i)
		mats[i] = linalg.Matrix{Rows: o, Cols: o, Data: data[: o*o : o*o]}
		data = data[o*o:]
		out[i] = &mats[i]
	}
	return out
}

// Bins returns the solver's bin set.
func (s *WeightSolver) Bins() []int { return s.bins }

// Grow ensures per-worker scratch for worker indices [0, workers). Scratch
// built for a larger earlier count is kept.
func (s *WeightSolver) Grow(workers int) {
	for len(s.work) < workers {
		s.work = append(s.work, &solverScratch{
			panel: make([]complex128, covPanelGates*s.dof),
			fac:   linalg.NewMatrix(s.dof, s.dof),
			y:     make([]complex128, s.dof),
		})
	}
}

// NewWeightSet allocates a weight set shaped for the solver's bins.
func (s *WeightSolver) NewWeightSet() *WeightSet { return NewWeightSet(s.p, s.bins) }

// Conventional writes the non-adaptive weights InitialWeights computes
// into ws (shaped for the solver's bins) from the cached steering table.
func (s *WeightSolver) Conventional(ws *WeightSet) {
	for i := range s.bins {
		for b, t := range s.steer[i] {
			conventional(ws.W[i][b], t)
		}
	}
}

// InitialWeights allocates a set holding the solver's Conventional
// weights.
func (s *WeightSolver) InitialWeights() *WeightSet {
	ws := s.NewWeightSet()
	s.Conventional(ws)
	return ws
}

// Covariances returns the per-bin estimates Estimate fills, aliasing the
// solver's state: the next Estimate overwrites them.
func (s *WeightSolver) Covariances() []*linalg.Matrix { return s.covs }

// Estimate overwrites the covariance estimates of the bins in block blk
// (positions in Bins) from the training gates of dc, using worker w's
// scratch.
func (s *WeightSolver) Estimate(w int, dc *DopplerCube, blk cube.Block) error {
	if err := checkDopplerGeometry(s.p, dc); err != nil {
		return err
	}
	sc := s.work[w]
	for i := blk.Lo; i < blk.Hi; i++ {
		estimateBin(dc, s.bins[i], s.gates, s.covs[i], sc.panel)
	}
	return nil
}

// Solve computes the MVDR weights of the bins in block blk from covs
// (indexed like Bins; the solver's own estimates or a smoother's blend of
// them) into ws, using worker w's scratch. ws must be shaped for the
// solver's bins; its Seq is the caller's to set.
func (s *WeightSolver) Solve(w int, covs []*linalg.Matrix, blk cube.Block, ws *WeightSet) error {
	if len(covs) != len(s.bins) {
		return fmt.Errorf("stap: %d covariances for %d bins", len(covs), len(s.bins))
	}
	sc := s.work[w]
	for i := blk.Lo; i < blk.Hi; i++ {
		if err := solveBin(s.p, covs[i], s.bins[i], s.steer[i], sc.fac, sc.y, ws.W[i]); err != nil {
			return err
		}
	}
	return nil
}

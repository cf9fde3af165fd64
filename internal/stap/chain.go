package stap

import (
	"fmt"

	"stapio/internal/cube"
)

// Processor is the sequential reference implementation of the full STAP
// chain. It executes the seven tasks in order for each CPI, carrying the
// temporal dependency (weights trained on the previous CPI's Doppler
// output) across calls. The parallel pipeline executors must produce the
// same detections; tests compare against this.
//
// Every intermediate — Doppler scratch and cube, beam cube, the weight
// solvers, the CFAR scratch — is built once and reused across calls, and
// the weight sets are double-buffered: Process beamforms with prevEasyW /
// prevHardW while solving the next CPI's weights into the spares, then
// swaps. Only the returned detections are allocated per CPI.
type Processor struct {
	P          Params
	easyBins   []int
	hardBins   []int
	comp       *Compressor
	pairs      []BeamBin
	cfar       *CFARScratch
	dsc        *DopplerScratch
	dc         *DopplerCube
	bc         *BeamCube
	easySolver *WeightSolver
	hardSolver *WeightSolver
	prevEasyW  *WeightSet
	prevHardW  *WeightSet
	nextEasyW  *WeightSet
	nextHardW  *WeightSet
	easySmooth CovarianceSmoother
	hardSmooth CovarianceSmoother
	processed  int
}

// NewProcessor validates p and builds a processor primed with non-adaptive
// initial weights.
func NewProcessor(p Params) (*Processor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pr := &Processor{
		P:          p,
		easyBins:   p.EasyBins(),
		hardBins:   p.HardBins(),
		easySmooth: CovarianceSmoother{Lambda: p.Forgetting},
		hardSmooth: CovarianceSmoother{Lambda: p.Forgetting},
	}
	// Everything below points at pr.P, the processor's own copy.
	q := &pr.P
	pr.comp = NewCompressor(q)
	pr.pairs = AllBeamBins(len(q.Beams), q.Bins())
	pr.cfar = NewCFARScratch(q)
	pr.dsc = NewDopplerScratch(q)
	pr.dc = NewDopplerCube(q)
	pr.bc = NewBeamCube(q)
	var err error
	if pr.easySolver, err = NewWeightSolver(q, pr.easyBins, false); err != nil {
		return nil, err
	}
	if pr.hardSolver, err = NewWeightSolver(q, pr.hardBins, true); err != nil {
		return nil, err
	}
	pr.prevEasyW = pr.easySolver.InitialWeights()
	pr.prevHardW = pr.hardSolver.InitialWeights()
	pr.nextEasyW = pr.easySolver.NewWeightSet()
	pr.nextHardW = pr.hardSolver.NewWeightSet()
	return pr, nil
}

// EasyBins returns the easy Doppler bin set.
func (pr *Processor) EasyBins() []int { return pr.easyBins }

// HardBins returns the hard Doppler bin set.
func (pr *Processor) HardBins() []int { return pr.hardBins }

// Processed returns the number of CPIs pushed through the chain.
func (pr *Processor) Processed() int { return pr.processed }

// Process runs one CPI through the full chain and returns its detections.
// The weights applied to this CPI were trained on the previous one (or the
// initial non-adaptive weights for the first CPI), exactly as in the
// pipelined system: beamforming of CPI k never waits for CPI k's weights.
func (pr *Processor) Process(cb *cube.Cube, seq uint64) ([]Detection, error) {
	p := &pr.P
	// Task 0: Doppler filter processing.
	dc := pr.dc
	dc.Seq = seq
	if err := DopplerFilterRanges(p, cb, cube.Block{Lo: 0, Hi: p.Dims.Ranges}, dc, pr.dsc); err != nil {
		return nil, fmt.Errorf("stap: doppler: %w", err)
	}

	// Tasks 3/4: beamforming with the previous CPI's weights.
	bc := pr.bc
	bc.Seq = seq
	if err := Beamform(p, dc, pr.prevEasyW, pr.easyBins, bc); err != nil {
		return nil, fmt.Errorf("stap: easy beamform: %w", err)
	}
	if err := Beamform(p, dc, pr.prevHardW, pr.hardBins, bc); err != nil {
		return nil, fmt.Errorf("stap: hard beamform: %w", err)
	}

	// Tasks 1/2: weight computation for the *next* CPI from this CPI's
	// Doppler output (runs concurrently with beamforming in the pipeline;
	// sequentially here), with optional covariance smoothing across CPIs.
	if err := solveInto(pr.easySolver, &pr.easySmooth, dc, pr.nextEasyW); err != nil {
		return nil, fmt.Errorf("stap: easy weights: %w", err)
	}
	if err := solveInto(pr.hardSolver, &pr.hardSmooth, dc, pr.nextHardW); err != nil {
		return nil, fmt.Errorf("stap: hard weights: %w", err)
	}
	pr.prevEasyW, pr.nextEasyW = pr.nextEasyW, pr.prevEasyW
	pr.prevHardW, pr.nextHardW = pr.nextHardW, pr.prevHardW

	// Task 5: pulse compression.
	if err := Compress(p, bc, pr.comp, pr.pairs); err != nil {
		return nil, fmt.Errorf("stap: pulse compression: %w", err)
	}

	// Task 6: CFAR (with the configured variant).
	dets, err := CFARWithScratch(p, p.CFAR.Kind, bc, pr.pairs, pr.cfar)
	if err != nil {
		return nil, fmt.Errorf("stap: cfar: %w", err)
	}
	pr.processed++
	return dets, nil
}

// solveInto estimates one bin set's covariances from dc, smooths them, and
// solves the weights into ws, stamped with dc's sequence number.
func solveInto(s *WeightSolver, sm *CovarianceSmoother, dc *DopplerCube, ws *WeightSet) error {
	all := cube.Block{Lo: 0, Hi: len(s.Bins())}
	if err := s.Estimate(0, dc, all); err != nil {
		return err
	}
	if err := s.Solve(0, sm.Update(s.Covariances()), all, ws); err != nil {
		return err
	}
	ws.Seq = dc.Seq
	return nil
}

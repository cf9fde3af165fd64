package stap

import (
	"fmt"
	"sort"
	"sync/atomic"

	"stapio/internal/cube"
	"stapio/internal/linalg"
)

// Banded kernels: the external-memory execution mode streams each CPI
// through the Doppler -> weight-training -> beamforming front of the
// chain one range band at a time, so peak residency is O(band) instead
// of O(cube). Every per-range computation of those kernels is local to
// its range gate (the Doppler FFT runs along pulses, covariance training
// subsamples gates, beamforming dots one snapshot), so a banded pass
// reproduces the full-cube kernels bit for bit — the banded determinism
// tests pin this. Pulse compression and CFAR run along ranges and keep
// needing the assembled beam cube; the beam cube is the O(cube) floor of
// the banded mode (see DESIGN.md §14).

// NewDopplerCubeBand allocates a Doppler cube covering band range gates
// instead of the full extent — the banded pipeline's reusable band slab.
func NewDopplerCubeBand(p *Params, band int) *DopplerCube {
	off := snapOffsets(p)
	return &DopplerCube{
		Bins:     p.Bins(),
		Ranges:   band,
		Channels: p.Dims.Channels,
		Data:     make([]complex128, band*off[len(off)-1]),
		off:      off,
	}
}

// DopplerFilterBand Doppler-filters a band slab: cb holds the range gates
// [lo, lo+band) of a CPI (dims {Channels, Pulses, band}), and out is a
// band-sized Doppler cube (Ranges == band). rb selects the local gates of
// the band to process, so the band still partitions across Doppler
// workers. Bitwise identical to DopplerFilterRanges over the same global
// gates: each gate's pulse column is the same bytes, and the per-column
// window+FFT never looks at neighbouring gates.
func DopplerFilterBand(p *Params, cb *cube.Cube, rb cube.Block, out *DopplerCube, sc *DopplerScratch) error {
	band := cb.Dims.Ranges
	if cb.Dims.Channels != p.Dims.Channels || cb.Dims.Pulses != p.Dims.Pulses {
		return fmt.Errorf("stap: band slab dims %v do not match params dims %v", cb.Dims, p.Dims)
	}
	if rb.Lo < 0 || rb.Hi > band || rb.Lo > rb.Hi {
		return fmt.Errorf("stap: band block %v outside [0,%d]", rb, band)
	}
	if out.Ranges != band || !out.laidOutFor(p) {
		return fmt.Errorf("stap: band output cube geometry does not match params")
	}
	if sc == nil {
		sc = NewDopplerScratch(p)
	} else if !sc.fits(p) {
		return fmt.Errorf("stap: doppler scratch geometry does not match params")
	}
	dopplerBody(p, cb, rb, out, sc)
	return nil
}

// CovAccumulator builds the per-bin sample covariances of one CPI from
// band-sized Doppler slabs. The training gates and their weighting are
// exactly EstimateCovariances' (the even fencepost subsample over the
// full range extent, each gate scaled by 1/len(gates)), and the snapshots
// fold in through the same fixed-width panels: each bin buffers incoming
// gates until a global covPanelGates boundary is reached, then flushes one
// blocked Hermitian update. Band boundaries never flush a partial panel —
// the pending snapshots carry across bands — so feeding the bands in
// ascending range order reproduces the full-cube estimate bit for bit.
// Distinct bin blocks touch disjoint matrices and panel buffers, so
// AddBand may run concurrently across bin blocks of the same band.
type CovAccumulator struct {
	p     *Params
	bins  []int
	hard  bool
	gates []int // global training gates, ascending
	inv   float64
	covs  []*linalg.Matrix
	// pend[i] buffers the current panel's packed snapshots for bin i;
	// fill[i] counts how many gates it holds. Because every gate arrives
	// exactly once in ascending order, fill is the global gate index
	// modulo covPanelGates — the panel boundaries are the same global
	// ones EstimateCovariances uses.
	pend [][]complex128
	fill []int
	// added counts (bin, gate) accumulations, so Finish can detect a
	// band that was never fed.
	added atomic.Int64
}

// NewCovAccumulator validates the bin set (every bin must belong to the
// hard or easy set as selected) and allocates zeroed covariance matrices.
func NewCovAccumulator(p *Params, bins []int, hard bool) (*CovAccumulator, error) {
	train := p.TrainEasy
	if hard {
		train = p.TrainHard
	}
	a := &CovAccumulator{
		p:     p,
		bins:  bins,
		hard:  hard,
		gates: trainingGates(p.Dims.Ranges, train),
		pend:  make([][]complex128, len(bins)),
		fill:  make([]int, len(bins)),
	}
	a.inv = 1 / float64(len(a.gates))
	total := 0
	for _, d := range bins {
		if p.IsHard(d) != hard {
			return nil, fmt.Errorf("stap: bin %d is not in the %s set", d, setName(hard))
		}
		total += covPanelGates * p.DoF(d)
	}
	a.covs = squareMatrices(len(bins), func(i int) int { return p.DoF(bins[i]) })
	slab := make([]complex128, total)
	for i, d := range bins {
		n := covPanelGates * p.DoF(d)
		a.pend[i], slab = slab[:n:n], slab[n:]
	}
	return a, nil
}

// Reset clears the matrices and pending panels for the next CPI without
// reallocating.
func (a *CovAccumulator) Reset() {
	for _, m := range a.covs {
		for i := range m.Data {
			m.Data[i] = 0
		}
	}
	for i := range a.fill {
		a.fill[i] = 0
	}
	a.added.Store(0)
}

// AddBand folds the training gates covered by a band slab into the
// selected bin block. dc holds global range gates [lo, lo+dc.Ranges);
// bb indexes into the accumulator's bin set. Bands must be fed in
// ascending range order for bit-identical results (the matrices would
// still converge to the same value out of order, but floating-point
// addition would reassociate).
func (a *CovAccumulator) AddBand(dc *DopplerCube, lo int, bb cube.Block) error {
	if !dc.laidOutFor(a.p) {
		return fmt.Errorf("stap: band doppler cube geometry mismatch")
	}
	if bb.Lo < 0 || bb.Hi > len(a.bins) || bb.Lo > bb.Hi {
		return fmt.Errorf("stap: bin block %v outside [0,%d]", bb, len(a.bins))
	}
	hi := lo + dc.Ranges
	// The band's training gates: gates is ascending, so the sub-slice
	// [first gate >= lo, first gate >= hi) covers exactly [lo, hi).
	g0 := sort.SearchInts(a.gates, lo)
	g1 := sort.SearchInts(a.gates, hi)
	if g0 == g1 {
		return nil
	}
	for i := bb.Lo; i < bb.Hi; i++ {
		d := a.bins[i]
		dof := dc.dof(d)
		pend := a.pend[i]
		for _, g := range a.gates[g0:g1] {
			copy(pend[a.fill[i]*dof:(a.fill[i]+1)*dof], dc.Snapshot(d, g-lo))
			a.fill[i]++
			if a.fill[i] == covPanelGates {
				a.covs[i].AccumulatePanel(pend, covPanelGates, a.inv)
				a.fill[i] = 0
			}
		}
	}
	a.added.Add(int64((g1 - g0) * (bb.Hi - bb.Lo)))
	return nil
}

// Finish returns the accumulated covariances, verifying every (bin,
// gate) pair was fed exactly once. The matrices alias the accumulator's
// state: call Reset before reusing it for the next CPI, and note that
// CovarianceSmoother.Update with a positive lambda copies them, while
// lambda 0 aliases them — banded executors with smoothing off must solve
// weights before Reset.
func (a *CovAccumulator) Finish() ([]*linalg.Matrix, error) {
	want := int64(len(a.gates) * len(a.bins))
	if got := a.added.Load(); got != want {
		return nil, fmt.Errorf("stap: covariance accumulation saw %d of %d (bin, gate) pairs — bands missing or double-fed", got, want)
	}
	// Flush the tail panels — the same final partial panel the full-cube
	// estimator folds in after its last full boundary.
	for i, f := range a.fill {
		if f > 0 {
			a.covs[i].AccumulatePanel(a.pend[i], f, a.inv)
			a.fill[i] = 0
		}
	}
	return a.covs, nil
}

// BeamformBand applies the weight set to a band slab, writing the global
// range gates [lo, lo+dc.Ranges) of each (beam, bin) profile. Disjoint
// bin sets and disjoint bands touch disjoint output ranges, so the easy
// and hard tasks — and successive bands — can fill the one beam cube
// concurrently. It runs the same panel kernel as Beamform over the band's
// snapshot panel, so each output sample is the same single dot product,
// bit for bit. Weight lengths are validated for every (bin, beam) pair
// before the first sample is written.
func BeamformBand(p *Params, dc *DopplerCube, ws *WeightSet, bins []int, lo int, out *BeamCube) error {
	if out.Bins != p.Bins() || out.Ranges != p.Dims.Ranges || out.Beams != len(p.Beams) {
		return fmt.Errorf("stap: beam cube geometry mismatch")
	}
	if lo < 0 || lo+dc.Ranges > p.Dims.Ranges {
		return fmt.Errorf("stap: band [%d,%d) outside range extent %d", lo, lo+dc.Ranges, p.Dims.Ranges)
	}
	if !dc.laidOutFor(p) {
		return fmt.Errorf("stap: band doppler cube geometry mismatch")
	}
	if err := validateWeights(p, ws, bins); err != nil {
		return err
	}
	for _, d := range bins {
		beamformBin(dc, ws.For(d), d, lo, out)
	}
	return nil
}

// CopyBand copies the range gates [lo, lo+dst.Dims.Ranges) of src into
// the band slab dst — the in-memory reference implementation of a banded
// read, used by generator-backed band sources and the banded tests. The
// cube layout is range-minor, so each (channel, pulse) row contributes
// one contiguous span.
func CopyBand(dst, src *cube.Cube, lo int) error {
	band := dst.Dims.Ranges
	if dst.Dims.Channels != src.Dims.Channels || dst.Dims.Pulses != src.Dims.Pulses {
		return fmt.Errorf("stap: band slab dims %v do not match cube dims %v", dst.Dims, src.Dims)
	}
	if lo < 0 || lo+band > src.Dims.Ranges {
		return fmt.Errorf("stap: band [%d,%d) outside range extent %d", lo, lo+band, src.Dims.Ranges)
	}
	rows := src.Dims.Channels * src.Dims.Pulses
	for row := 0; row < rows; row++ {
		so := row*src.Dims.Ranges + lo
		do := row * band
		copy(dst.Data[do:do+band], src.Data[so:so+band])
	}
	return nil
}

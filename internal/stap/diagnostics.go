package stap

import (
	"fmt"
	"math"

	"stapio/internal/linalg"
	"stapio/internal/signal"
)

// Diagnostics: standard STAP analysis quantities used by tests, examples,
// and anyone evaluating the adaptive weights — average residual output
// power, SINR improvement over the conventional beamformer, and the
// angle-Doppler power map.

// MeanOutputPower returns the average beamformer output power
// E|w^H x|^2 over all range gates and beams for the listed Doppler bins —
// the residual interference-plus-noise floor after adaptation.
func MeanOutputPower(p *Params, dc *DopplerCube, ws *WeightSet, bins []int) (float64, error) {
	if !dc.laidOutFor(p) {
		return 0, fmt.Errorf("stap: doppler cube geometry mismatch")
	}
	var sum float64
	var n int
	for _, d := range bins {
		perBeam := ws.For(d)
		if perBeam == nil {
			return 0, fmt.Errorf("stap: weight set does not cover bin %d", d)
		}
		dof := p.DoF(d)
		for b := range p.Beams {
			w := perBeam[b]
			if len(w) != dof {
				return 0, fmt.Errorf("stap: bin %d beam %d weight length %d, want %d", d, b, len(w), dof)
			}
			for r := 0; r < dc.Ranges; r++ {
				y := linalg.Dot(w, dc.Snapshot(d, r))
				sum += real(y)*real(y) + imag(y)*imag(y)
				n++
			}
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("stap: no bins to evaluate")
	}
	return sum / float64(n), nil
}

// SINRImprovement returns the interference-suppression gain of the
// adaptive weights over the conventional (steering-vector) beamformer in
// dB, measured as the ratio of mean output powers on the same data. Both
// weight sets are distortionless toward the steering directions, so lower
// output power means higher SINR.
func SINRImprovement(p *Params, dc *DopplerCube, adaptive *WeightSet, bins []int) (float64, error) {
	conventional := InitialWeights(p, bins)
	pa, err := MeanOutputPower(p, dc, adaptive, bins)
	if err != nil {
		return 0, err
	}
	pc, err := MeanOutputPower(p, dc, conventional, bins)
	if err != nil {
		return 0, err
	}
	if pa <= 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(pc/pa), nil
}

// AngleDopplerMap is the conventional beamformer power over a grid of
// angles (rows) by Doppler bins (columns) at one range gate — the classic
// STAP diagnostic in which the clutter ridge appears as a diagonal, a
// jammer as a vertical stripe, and a target as a point.
type AngleDopplerMap struct {
	// Angles holds the normalised angle grid (rows).
	Angles []float64
	// Bins holds the Doppler bin indices (columns).
	Bins []int
	// Power[i][j] is the output power at (Angles[i], Bins[j]).
	Power [][]float64
}

// ComputeAngleDopplerMap evaluates the map at range gate r using nAngles
// uniformly spaced angles in [-1, 1] and the first-stagger snapshots.
func ComputeAngleDopplerMap(p *Params, dc *DopplerCube, r, nAngles int) (*AngleDopplerMap, error) {
	if r < 0 || r >= dc.Ranges {
		return nil, fmt.Errorf("stap: range gate %d outside [0,%d)", r, dc.Ranges)
	}
	if nAngles < 2 {
		return nil, fmt.Errorf("stap: need at least 2 angles, got %d", nAngles)
	}
	m := &AngleDopplerMap{}
	for i := 0; i < nAngles; i++ {
		m.Angles = append(m.Angles, -1+2*float64(i)/float64(nAngles-1))
	}
	for d := 0; d < dc.Bins; d++ {
		m.Bins = append(m.Bins, d)
	}
	c := p.Dims.Channels
	norm := 1 / float64(c)
	m.Power = make([][]float64, nAngles)
	for i, u := range m.Angles {
		sv := signal.SteeringVector(c, u)
		row := make([]float64, len(m.Bins))
		for j, d := range m.Bins {
			snap := dc.Snapshot(d, r)[:c]
			y := linalg.Dot(sv, snap)
			y *= complex(norm, 0)
			row[j] = real(y)*real(y) + imag(y)*imag(y)
		}
		m.Power[i] = row
	}
	return m, nil
}

// Centre reorders the map's columns into centred Doppler order — the
// zero-Doppler column moves to the middle, negative Doppler to the left —
// the conventional display order for angle-Doppler maps. It rotates the
// bin labels and every power row with signal.FFTShiftInto through one
// reused scratch row; calling it twice keeps rotating, so centre once
// after computing the map.
func (m *AngleDopplerMap) Centre() {
	n := len(m.Bins)
	if n == 0 {
		return
	}
	bins := make([]int, n)
	signal.FFTShiftInto(m.Bins, bins)
	copy(m.Bins, bins)
	row := make([]float64, n)
	for _, p := range m.Power {
		signal.FFTShiftInto(p, row)
		copy(p, row)
	}
}

// Peak returns the (angle, bin) cell with the highest power.
func (m *AngleDopplerMap) Peak() (angle float64, bin int, power float64) {
	best := -1.0
	for i, row := range m.Power {
		for j, v := range row {
			if v > best {
				best = v
				angle = m.Angles[i]
				bin = m.Bins[j]
			}
		}
	}
	return angle, bin, best
}

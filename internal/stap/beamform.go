package stap

import (
	"fmt"

	"stapio/internal/linalg"
)

// BeamCube holds beamformed (and later pulse-compressed) data:
// Data[((b*Bins)+d)*Ranges + r] is the output of beam b at Doppler bin d,
// range gate r. Bins indexes all Doppler bins (easy and hard interleaved in
// natural bin order).
type BeamCube struct {
	Beams, Bins, Ranges int
	Data                []complex128
	Seq                 uint64
}

// NewBeamCube allocates a zeroed beam cube.
func NewBeamCube(p *Params) *BeamCube {
	return &BeamCube{
		Beams:  len(p.Beams),
		Bins:   p.Bins(),
		Ranges: p.Dims.Ranges,
		Data:   make([]complex128, len(p.Beams)*p.Bins()*p.Dims.Ranges),
	}
}

// Profile returns the range profile for (beam, bin) aliasing the storage.
func (bc *BeamCube) Profile(b, d int) []complex128 {
	off := ((b * bc.Bins) + d) * bc.Ranges
	return bc.Data[off : off+bc.Ranges]
}

// WeightLengthError reports a weight vector whose length does not match
// its bin's degrees of freedom. Beamforming validates every (bin, beam)
// pair up front and returns this before writing anything, so a mismatched
// set can never surface mid-cube.
type WeightLengthError struct {
	Bin, Beam int
	Len, Want int
}

func (e *WeightLengthError) Error() string {
	return fmt.Sprintf("stap: bin %d beam %d weight length %d, want %d", e.Bin, e.Beam, e.Len, e.Want)
}

// validateWeights checks that ws covers every listed bin with one weight
// vector of the bin's DoF per beam, before any output is written.
func validateWeights(p *Params, ws *WeightSet, bins []int) error {
	for _, d := range bins {
		perBeam := ws.For(d)
		if perBeam == nil {
			return fmt.Errorf("stap: weight set does not cover bin %d", d)
		}
		dof := p.DoF(d)
		for b := range p.Beams {
			if len(perBeam[b]) != dof {
				return &WeightLengthError{Bin: d, Beam: b, Len: len(perBeam[b]), Want: dof}
			}
		}
	}
	return nil
}

// Beamform applies the weight set to the listed Doppler bins of dc,
// writing the per-beam range profiles into out. Bins not listed are left
// untouched, so the easy and hard beamforming tasks fill disjoint slices
// of the same output cube — even concurrently, since Beamform writes only
// the listed bins' profiles and never touches shared fields (the caller
// sets out.Seq). The weight set must cover every listed bin; weight
// lengths are validated for all (bin, beam) pairs before the first sample
// is written (see WeightLengthError).
func Beamform(p *Params, dc *DopplerCube, ws *WeightSet, bins []int, out *BeamCube) error {
	if out.Bins != p.Bins() || out.Ranges != p.Dims.Ranges || out.Beams != len(p.Beams) {
		return fmt.Errorf("stap: beam cube geometry mismatch")
	}
	if err := checkDopplerGeometry(p, dc); err != nil {
		return err
	}
	if err := validateWeights(p, ws, bins); err != nil {
		return err
	}
	for _, d := range bins {
		beamformBin(dc, ws.For(d), d, 0, out)
	}
	return nil
}

// beamformBin computes one bin's (Beams x DoF) x (DoF x Ranges) panel
// product: the bin's snapshots form a dense row panel of the Doppler cube
// (stride DoF(d)), streamed once per strip of up to three beams by the
// linalg.ConjDotPanel kernels — each loaded snapshot feeds every strip
// accumulator, and each beam's output gates are one contiguous row. The
// kernels' fused-lane reduction is fixed and platform independent, and is
// shared by the full-cube and banded paths, so detections are
// byte-identical across band sizes and worker counts. Output gates start
// at lo (non-zero for band slabs).
func beamformBin(dc *DopplerCube, perBeam [][]complex128, d, lo int, out *BeamCube) {
	panel := dc.panel(d)
	dof := dc.dof(d)
	stride := out.Bins * out.Ranges
	dOff := d*out.Ranges + lo
	n := dc.Ranges
	for b := 0; b < len(perBeam); b += 3 {
		o := dOff + b*stride
		switch len(perBeam) - b {
		case 1:
			linalg.ConjDotPanel1(panel, dof, dof, n,
				perBeam[b],
				out.Data[o:o+n])
		case 2:
			linalg.ConjDotPanel2(panel, dof, dof, n,
				perBeam[b], perBeam[b+1],
				out.Data[o:o+n], out.Data[o+stride:o+stride+n])
		default:
			linalg.ConjDotPanel3(panel, dof, dof, n,
				perBeam[b], perBeam[b+1], perBeam[b+2],
				out.Data[o:o+n], out.Data[o+stride:o+stride+n], out.Data[o+2*stride:o+2*stride+n])
		}
	}
}

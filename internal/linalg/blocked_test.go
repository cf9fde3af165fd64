package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// Tests for the blocked and batched kernels: the blocked Hermitian panel
// update and the conjugated-dot panel strips that back beamforming. The
// blocked kernels must agree with the scalar reference implementations to
// tight relative tolerance on awkward geometries (single rows, panels
// wider than the block),
// the panel update must be exactly Hermitian, and the asm and generic
// conj-dot paths must agree bit for bit.

func maxRelDiff(a, b *Matrix) float64 {
	var worst float64
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		mag := math.Max(1, math.Hypot(real(b.Data[i]), imag(b.Data[i])))
		if e := math.Hypot(real(d), imag(d)) / mag; e > worst {
			worst = e
		}
	}
	return worst
}

func TestAccumulatePanelMatchesOuter(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, dims := range []struct{ dof, gates int }{
		{1, 1}, {8, 16}, {16, 40}, {5, 7}, {16, 3},
	} {
		ref := NewMatrix(dims.dof, dims.dof)
		got := NewMatrix(dims.dof, dims.dof)
		panel := make([]complex128, dims.gates*dims.dof)
		for i := range panel {
			panel[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		w := 1 / float64(dims.gates)
		for g := 0; g < dims.gates; g++ {
			ref.AccumulateOuter(panel[g*dims.dof:(g+1)*dims.dof], w)
		}
		got.AccumulatePanel(panel, dims.gates, w)
		if e := maxRelDiff(got, ref); e > 1e-12 {
			t.Errorf("AccumulatePanel dof=%d gates=%d: max relative error %g vs AccumulateOuter",
				dims.dof, dims.gates, e)
		}
		// The blocked update mirrors the strict upper triangle by
		// conjugation, so Hermitian symmetry is exact, not approximate.
		for i := 0; i < dims.dof; i++ {
			for j := i + 1; j < dims.dof; j++ {
				u, l := got.At(i, j), got.At(j, i)
				if real(u) != real(l) || imag(u) != -imag(l) {
					t.Fatalf("AccumulatePanel dof=%d: (%d,%d)=%v not the exact conjugate of (%d,%d)=%v",
						dims.dof, i, j, u, j, i, l)
				}
			}
		}
	}
}

func TestAccumulatePanelSplitSchedule(t *testing.T) {
	// Splitting the gates across two flushes reassociates the per-element
	// sums, so it only matches a single flush to rounding — which is why
	// the covariance accumulation-order contract fixes the panel
	// boundaries globally (stap.covPanelGates) instead of letting band
	// geometry choose them. Here the split must stay within tolerance,
	// and repeating the identical schedule must reproduce itself exactly.
	rng := rand.New(rand.NewSource(9))
	const dof, gates = 6, 10
	panel := make([]complex128, gates*dof)
	for i := range panel {
		panel[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	whole := NewMatrix(dof, dof)
	whole.AccumulatePanel(panel, gates, 0.25)
	split := NewMatrix(dof, dof)
	split.AccumulatePanel(panel[:4*dof], 4, 0.25)
	split.AccumulatePanel(panel[4*dof:], gates-4, 0.25)
	if e := maxRelDiff(split, whole); e > 1e-12 {
		t.Errorf("split panel schedule drifted %g from single flush", e)
	}
	again := NewMatrix(dof, dof)
	again.AccumulatePanel(panel[:4*dof], 4, 0.25)
	again.AccumulatePanel(panel[4*dof:], gates-4, 0.25)
	for i := range split.Data {
		if split.Data[i] != again.Data[i] {
			t.Fatalf("identical panel schedule diverged at %d: %v vs %v", i, split.Data[i], again.Data[i])
		}
	}
}

func conjDotRef(w, snap []complex128) complex128 {
	// Scalar reference: plain conjugated dot, ascending index.
	var acc complex128
	for k := range w {
		acc += complex(real(w[k]), -imag(w[k])) * snap[k]
	}
	return acc
}

func TestConjDotPanelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, c := range []struct{ beams, stride, dof, n int }{
		{1, 8, 8, 17}, {2, 16, 16, 53}, {3, 16, 8, 512}, {4, 10, 7, 33}, {5, 9, 9, 1},
	} {
		panel := make([]complex128, c.n*c.stride)
		for i := range panel {
			panel[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		w := make([][]complex128, c.beams)
		o := make([][]complex128, c.beams)
		for b := range w {
			w[b] = make([]complex128, c.dof)
			for k := range w[b] {
				w[b][k] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			o[b] = make([]complex128, c.n)
		}
		ConjDotPanel(panel, c.stride, c.dof, c.n, w, o)
		for b := range w {
			for r := 0; r < c.n; r++ {
				want := conjDotRef(w[b], panel[r*c.stride:r*c.stride+c.dof])
				got := o[b][r]
				d := got - want
				if math.Hypot(real(d), imag(d)) > 1e-9*math.Max(1, math.Hypot(real(want), imag(want))) {
					t.Fatalf("beams=%d dof=%d: o[%d][%d] = %v, reference %v", c.beams, c.dof, b, r, got, want)
				}
			}
		}
	}
}

func TestConjDotPanelAsmMatchesGeneric(t *testing.T) {
	// The dispatch (asm on amd64 with FMA, generic elsewhere) must be
	// invisible: both run the same fused-lane reduction, so outputs are
	// bit-identical, not merely close. On platforms without the asm path
	// this compares the generic path with itself and passes trivially.
	rng := rand.New(rand.NewSource(11))
	for _, c := range []struct{ stride, dof, n int }{
		{8, 8, 64}, {16, 16, 53}, {16, 13, 7}, {1, 1, 3},
	} {
		panel := make([]complex128, c.n*c.stride)
		for i := range panel {
			panel[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		ws := make([][]complex128, 3)
		for b := range ws {
			ws[b] = make([]complex128, c.dof)
			for k := range ws[b] {
				ws[b][k] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
		got := [3][]complex128{}
		want := [3][]complex128{}
		for b := range got {
			got[b] = make([]complex128, c.n)
			want[b] = make([]complex128, c.n)
		}
		// One beam at a time, two at a time, three at a time: every strip
		// width must match its generic twin exactly.
		ConjDotPanel1(panel, c.stride, c.dof, c.n, ws[0], got[0])
		conjDotPanel1Generic(panel, c.stride, c.dof, c.n, ws[0], want[0])
		ConjDotPanel2(panel, c.stride, c.dof, c.n, ws[0], ws[1], got[0], got[1])
		conjDotPanel2Generic(panel, c.stride, c.dof, c.n, ws[0], ws[1], want[0], want[1])
		ConjDotPanel3(panel, c.stride, c.dof, c.n, ws[0], ws[1], ws[2], got[0], got[1], got[2])
		conjDotPanel3Generic(panel, c.stride, c.dof, c.n, ws[0], ws[1], ws[2], want[0], want[1], want[2])
		for b := range got {
			for r := range got[b] {
				if got[b][r] != want[b][r] {
					t.Fatalf("stride=%d dof=%d n=%d: strip output [%d][%d] = %v, generic %v",
						c.stride, c.dof, c.n, b, r, got[b][r], want[b][r])
				}
			}
		}
	}
}

func TestBlockedKernelsZeroAlloc(t *testing.T) {
	b := NewMatrix(16, 512)
	for i := range b.Data {
		b.Data[i] = complex(1, float64(i%3))
	}
	cov := NewMatrix(16, 16)
	panel := make([]complex128, 16*16)
	for i := range panel {
		panel[i] = complex(float64(i%7), -1)
	}
	w0 := make([]complex128, 16)
	o0 := make([]complex128, 512)
	if n := testing.AllocsPerRun(10, func() {
		cov.AccumulatePanel(panel, 16, 0.5)
		ConjDotPanel3(b.Data, 16, 16, 512, w0, w0, w0, o0, o0, o0)
	}); n != 0 {
		t.Errorf("blocked kernels allocated %v times per run, want 0", n)
	}
}

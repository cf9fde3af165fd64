package linalg

import "fmt"

// AccumulatePanel folds a packed panel of g snapshots into the square
// Hermitian matrix m: m += w * sum_t x_t x_t^H. The panel is gate-major —
// panel[t*n+i] is component i of snapshot t — so callers pack each
// snapshot with a single copy. Only the upper triangle is computed; the
// strict lower triangle is mirrored by conjugation, which both halves the
// work and keeps the accumulated matrix exactly Hermitian.
//
// The reduction order (t ascending within the panel, one panel-sum per
// element scaled once by w) is fixed: two callers that feed the same
// snapshots through the same panel boundaries get bit-identical matrices
// regardless of how they are otherwise partitioned. It is the blocked
// counterpart of g AccumulateOuter rank-1 updates and matches them to
// floating-point reassociation (covered by the equivalence tests), not
// bit-for-bit.
func (m *Matrix) AccumulatePanel(panel []complex128, g int, w float64) {
	n := m.Rows
	if m.Cols != n {
		panic(fmt.Sprintf("linalg: AccumulatePanel on %dx%d matrix", m.Rows, m.Cols))
	}
	if g < 0 || len(panel) < g*n {
		panic(fmt.Sprintf("linalg: AccumulatePanel g=%d, len(panel)=%d, n=%d", g, len(panel), n))
	}
	if g == 0 {
		return
	}
	panel = panel[:g*n]
	cw := complex(w, 0)
	for i := 0; i < n; i++ {
		rowI := m.Data[i*n : (i+1)*n]
		for j := i; j < n; j++ {
			var s complex128
			for t := 0; t < g; t++ {
				off := t * n
				pj := panel[off+j]
				s += panel[off+i] * complex(real(pj), -imag(pj))
			}
			s *= cw
			rowI[j] += s
			if j != i {
				m.Data[j*n+i] += complex(real(s), -imag(s))
			}
		}
	}
}

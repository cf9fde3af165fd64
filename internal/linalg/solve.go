package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// ErrNotPositiveDefinite is returned by Cholesky when the matrix is not
// (numerically) Hermitian positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L of the Hermitian
// positive-definite matrix a such that a = L L^H. Only the lower triangle
// of a is read. The returned matrix has zeros above the diagonal.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	l := NewMatrix(a.Rows, a.Rows)
	if err := CholeskyInto(l, a); err != nil {
		return nil, err
	}
	return l, nil
}

// CholeskyInto is Cholesky writing the factor into the caller's n x n
// matrix l instead of allocating one. l may be a itself (in-place
// factorization): column j of a is read before column j of l is written,
// and the upper triangle, which is zeroed, is never read. On error l
// holds a partial factor.
func CholeskyInto(l, a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("linalg: Cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	if l.Rows != n || l.Cols != n {
		return fmt.Errorf("linalg: Cholesky factor is %dx%d, want %dx%d", l.Rows, l.Cols, n, n)
	}
	for j := 0; j < n; j++ {
		lj := l.Row(j)
		// Diagonal element.
		d := real(a.At(j, j))
		for k := 0; k < j; k++ {
			v := lj[k]
			d -= real(v)*real(v) + imag(v)*imag(v)
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		dj := math.Sqrt(d)
		lj[j] = complex(dj, 0)
		clear(lj[j+1:])
		// Column below the diagonal.
		for i := j + 1; i < n; i++ {
			li := l.Row(i)
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= li[k] * cmplx.Conj(lj[k])
			}
			li[j] = s / complex(dj, 0)
		}
	}
	return nil
}

// SolveLower solves L y = b for lower-triangular L by forward substitution.
func SolveLower(l *Matrix, b []complex128) ([]complex128, error) {
	y := make([]complex128, len(b))
	if err := SolveLowerInto(y, l, b); err != nil {
		return nil, err
	}
	return y, nil
}

// SolveLowerInto is SolveLower writing the solution into y, which must
// have len(b) elements and may alias b.
func SolveLowerInto(y []complex128, l *Matrix, b []complex128) error {
	n := l.Rows
	if l.Cols != n || len(b) != n || len(y) != n {
		return fmt.Errorf("linalg: SolveLower dims %dx%d, len(b)=%d, len(y)=%d", l.Rows, l.Cols, len(b), len(y))
	}
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		if row[i] == 0 {
			return errors.New("linalg: singular lower-triangular matrix")
		}
		y[i] = s / row[i]
	}
	return nil
}

// SolveUpperH solves L^H x = y where l is lower triangular (so L^H is upper
// triangular) by back substitution.
func SolveUpperH(l *Matrix, y []complex128) ([]complex128, error) {
	x := make([]complex128, len(y))
	if err := SolveUpperHInto(x, l, y); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveUpperHInto is SolveUpperH writing the solution into x, which must
// have len(y) elements and may alias y.
func SolveUpperHInto(x []complex128, l *Matrix, y []complex128) error {
	n := l.Rows
	if l.Cols != n || len(y) != n || len(x) != n {
		return fmt.Errorf("linalg: SolveUpperH dims %dx%d, len(y)=%d, len(x)=%d", l.Rows, l.Cols, len(y), len(x))
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			// (L^H)[i][k] = conj(L[k][i])
			s -= cmplx.Conj(l.At(k, i)) * x[k]
		}
		d := cmplx.Conj(l.At(i, i))
		if d == 0 {
			return errors.New("linalg: singular upper-triangular matrix")
		}
		x[i] = s / d
	}
	return nil
}

// SolveHermitian solves a x = b for Hermitian positive-definite a via
// Cholesky factorization. This is the adaptive-weight solve R w = s at the
// heart of STAP weight computation.
func SolveHermitian(a *Matrix, b []complex128) ([]complex128, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	x := make([]complex128, len(b))
	if err := SolveLowerInto(x, l, b); err != nil {
		return nil, err
	}
	if err := SolveUpperHInto(x, l, x); err != nil {
		return nil, err
	}
	return x, nil
}

// QR holds the compact Householder QR factorization of a matrix with
// Rows >= Cols: a = Q R with Q unitary (Rows x Rows, applied implicitly via
// the stored reflectors) and R upper-triangular (Cols x Cols).
type QR struct {
	rows, cols int
	qr         *Matrix      // Householder vectors below diagonal, R on/above
	tau        []complex128 // reflector coefficients
}

// NewQR factors a (which is not modified). It requires a.Rows >= a.Cols.
func NewQR(a *Matrix) (*QR, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, fmt.Errorf("linalg: QR requires rows >= cols, got %dx%d", m, n)
	}
	qr := a.Clone()
	tau := make([]complex128, n)
	for k := 0; k < n; k++ {
		// Build the Householder reflector for column k, rows k..m-1.
		var norm float64
		for i := k; i < m; i++ {
			v := qr.At(i, k)
			norm += real(v)*real(v) + imag(v)*imag(v)
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			tau[k] = 0
			continue
		}
		akk := qr.At(k, k)
		// alpha = -sign(akk) * norm, with complex sign akk/|akk|.
		alpha := complex(-norm, 0)
		if akk != 0 {
			alpha = -complex(norm, 0) * akk / complex(cmplx.Abs(akk), 0)
		}
		// v = x - alpha e1; store v (normalised so v[k]=1) below diagonal.
		vkk := akk - alpha
		if vkk == 0 {
			tau[k] = 0
			qr.Set(k, k, alpha)
			continue
		}
		var vnorm float64
		vkk2 := real(vkk)*real(vkk) + imag(vkk)*imag(vkk)
		vnorm = vkk2
		for i := k + 1; i < m; i++ {
			v := qr.At(i, k)
			vnorm += real(v)*real(v) + imag(v)*imag(v)
			qr.Set(i, k, v/vkk)
		}
		tau[k] = complex(2*vkk2/vnorm, 0)
		qr.Set(k, k, alpha)
		// Apply reflector to the remaining columns: A -= tau * v (v^H A).
		for j := k + 1; j < n; j++ {
			s := qr.At(k, j) // v[k] = 1
			for i := k + 1; i < m; i++ {
				s += cmplx.Conj(qr.At(i, k)) * qr.At(i, j)
			}
			s *= tau[k]
			qr.Set(k, j, qr.At(k, j)-s)
			for i := k + 1; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)-s*qr.At(i, k))
			}
		}
	}
	return &QR{rows: m, cols: n, qr: qr, tau: tau}, nil
}

// R returns the upper-triangular factor as a new Cols x Cols matrix.
func (f *QR) R() *Matrix {
	r := NewMatrix(f.cols, f.cols)
	for i := 0; i < f.cols; i++ {
		for j := i; j < f.cols; j++ {
			r.Set(i, j, f.qr.At(i, j))
		}
	}
	return r
}

// applyQH computes Q^H b in place (b has length rows).
func (f *QR) applyQH(b []complex128) {
	for k := 0; k < f.cols; k++ {
		if f.tau[k] == 0 {
			continue
		}
		s := b[k]
		for i := k + 1; i < f.rows; i++ {
			s += cmplx.Conj(f.qr.At(i, k)) * b[i]
		}
		s *= f.tau[k]
		b[k] -= s
		for i := k + 1; i < f.rows; i++ {
			b[i] -= s * f.qr.At(i, k)
		}
	}
}

// Solve returns the least-squares solution x minimising |a x - b|_2.
func (f *QR) Solve(b []complex128) ([]complex128, error) {
	if len(b) != f.rows {
		return nil, fmt.Errorf("linalg: QR.Solve len(b)=%d, rows=%d", len(b), f.rows)
	}
	qtb := append([]complex128(nil), b...)
	f.applyQH(qtb)
	// Back-substitute R x = (Q^H b)[:cols].
	x := make([]complex128, f.cols)
	for i := f.cols - 1; i >= 0; i-- {
		s := qtb[i]
		for j := i + 1; j < f.cols; j++ {
			s -= f.qr.At(i, j) * x[j]
		}
		d := f.qr.At(i, i)
		if d == 0 {
			return nil, errors.New("linalg: rank-deficient matrix in QR solve")
		}
		x[i] = s / d
	}
	return x, nil
}

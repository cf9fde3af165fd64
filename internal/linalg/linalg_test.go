package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

// randHPD builds a random Hermitian positive-definite matrix A = B B^H + I.
func randHPD(rng *rand.Rand, n int) *Matrix {
	b := randMatrix(rng, n, n)
	a := Mul(b, b.ConjTranspose())
	a.AddScaledIdentity(1)
	return a
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 4+5i)
	if m.At(1, 2) != 4+5i {
		t.Error("Set/At mismatch")
	}
	if r := m.Row(1); r[2] != 4+5i {
		t.Error("Row does not alias")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Error("Clone not deep")
	}
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Errorf("Identity(%d,%d) = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestMulVecAndMul(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3i)
	m.Set(1, 1, 4)
	y := m.MulVec([]complex128{1, 1}, nil)
	if y[0] != 3 || y[1] != 4+3i {
		t.Errorf("MulVec = %v", y)
	}
	id := Identity(2)
	p := Mul(m, id)
	if MaxAbsDiff(p, m) > 1e-15 {
		t.Error("Mul by identity changed matrix")
	}
	// (AB)^H = B^H A^H
	rng := rand.New(rand.NewSource(1))
	a := randMatrix(rng, 3, 4)
	b := randMatrix(rng, 4, 2)
	lhs := Mul(a, b).ConjTranspose()
	rhs := Mul(b.ConjTranspose(), a.ConjTranspose())
	if MaxAbsDiff(lhs, rhs) > 1e-12 {
		t.Error("(AB)^H != B^H A^H")
	}
}

func TestDotNorm(t *testing.T) {
	x := []complex128{1, 1i}
	y := []complex128{1i, 1}
	// x^H y = conj(1)*1i + conj(1i)*1 = 1i - 1i = 0
	if d := Dot(x, y); cmplx.Abs(d) > 1e-15 {
		t.Errorf("Dot = %v, want 0", d)
	}
	if n := Norm2([]complex128{3, 4i}); math.Abs(n-5) > 1e-12 {
		t.Errorf("Norm2 = %v, want 5", n)
	}
}

func TestSampleCovarianceHermitianPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	snaps := make([][]complex128, 20)
	for i := range snaps {
		v := make([]complex128, 6)
		for j := range v {
			v[j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		snaps[i] = v
	}
	r := SampleCovariance(snaps, 0.1)
	if !r.IsHermitian(1e-12) {
		t.Error("sample covariance not Hermitian")
	}
	// Positive definite: Cholesky must succeed.
	if _, err := Cholesky(r); err != nil {
		t.Errorf("covariance not PD: %v", err)
	}
	// Diagonal loading shows up on the diagonal: E|x|^2 = 2 per component
	// (unit-variance real + imag), so diag ~ 2 + 0.1.
	for i := 0; i < 6; i++ {
		d := real(r.At(i, i))
		if d < 0.5 || d > 6 {
			t.Errorf("diag[%d] = %g implausible", i, d)
		}
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 5, 16} {
		a := randHPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rec := Mul(l, l.ConjTranspose())
		if d := MaxAbsDiff(rec, a); d > 1e-9*float64(n) {
			t.Errorf("n=%d: ||L L^H - A|| = %g", n, d)
		}
		// Strictly upper part of L must be zero.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					t.Errorf("L[%d][%d] = %v, want 0", i, j, l.At(i, j))
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, -1)
	a.Set(1, 1, 1)
	if _, err := Cholesky(a); err == nil {
		t.Error("expected error for indefinite matrix")
	}
	b := NewMatrix(2, 3)
	if _, err := Cholesky(b); err == nil {
		t.Error("expected error for non-square matrix")
	}
}

func TestSolveHermitianResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 3, 8, 32} {
		a := randHPD(rng, n)
		want := make([]complex128, n)
		for i := range want {
			want[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		b := a.MulVec(want, nil)
		got, err := SolveHermitian(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		var diff float64
		for i := range want {
			if d := cmplx.Abs(got[i] - want[i]); d > diff {
				diff = d
			}
		}
		if diff > 1e-7*float64(n) {
			t.Errorf("n=%d: solve error %g", n, diff)
		}
	}
}

func TestSolveHermitianProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 1
		a := randHPD(rng, n)
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		x, err := SolveHermitian(a, b)
		if err != nil {
			return false
		}
		res := a.MulVec(x, nil)
		for i := range res {
			res[i] -= b[i]
		}
		return Norm2(res) < 1e-8*(1+Norm2(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTriangularSolveErrors(t *testing.T) {
	l := NewMatrix(2, 2) // zero diagonal -> singular
	if _, err := SolveLower(l, []complex128{1, 1}); err == nil {
		t.Error("expected singular error in SolveLower")
	}
	if _, err := SolveUpperH(l, []complex128{1, 1}); err == nil {
		t.Error("expected singular error in SolveUpperH")
	}
	if _, err := SolveLower(l, []complex128{1}); err == nil {
		t.Error("expected dimension error")
	}
}

// The Into variants are the arithmetic behind the allocating wrappers:
// factoring in place over a dirty buffer and solving with the output
// aliasing the input must reproduce the wrappers bit for bit, without
// allocating.
func TestIntoVariantsInPlaceAndZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 4, 16} {
		a := randHPD(rng, n)
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		l, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		y, _ := SolveLower(l, b)
		want, _ := SolveUpperH(l, y)

		f := a.Clone()
		x := make([]complex128, n)
		run := func() {
			copy(f.Data, a.Data)
			copy(x, b)
			if err := CholeskyInto(f, f); err != nil {
				t.Fatal(err)
			}
			if err := SolveLowerInto(x, f, x); err != nil {
				t.Fatal(err)
			}
			if err := SolveUpperHInto(x, f, x); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("n=%d: Into solve allocated %v times, want 0", n, allocs)
		}
		for i := range l.Data {
			if f.Data[i] != l.Data[i] {
				t.Fatalf("n=%d: in-place factor differs at %d: %v vs %v", n, i, f.Data[i], l.Data[i])
			}
		}
		for i := range want {
			if x[i] != want[i] {
				t.Fatalf("n=%d: aliased solve differs at %d: %v vs %v", n, i, x[i], want[i])
			}
		}
	}
	if err := CholeskyInto(NewMatrix(2, 2), NewMatrix(3, 3)); err == nil {
		t.Error("CholeskyInto accepted a mis-sized factor")
	}
	if err := SolveLowerInto(make([]complex128, 1), Identity(2), []complex128{1, 1}); err == nil {
		t.Error("SolveLowerInto accepted a mis-sized output")
	}
}

func TestQRFactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dims := range []struct{ m, n int }{{4, 4}, {8, 3}, {16, 16}, {20, 7}} {
		a := randMatrix(rng, dims.m, dims.n)
		f, err := NewQR(a)
		if err != nil {
			t.Fatal(err)
		}
		r := f.R()
		// R upper triangular.
		for i := 0; i < dims.n; i++ {
			for j := 0; j < i; j++ {
				if r.At(i, j) != 0 {
					t.Errorf("R[%d][%d] = %v, want 0", i, j, r.At(i, j))
				}
			}
		}
		// Exact solve for square systems: a x = b.
		if dims.m == dims.n {
			want := make([]complex128, dims.n)
			for i := range want {
				want[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			b := a.MulVec(want, nil)
			got, err := f.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if cmplx.Abs(got[i]-want[i]) > 1e-8 {
					t.Errorf("m=n=%d: x[%d] = %v, want %v", dims.m, i, got[i], want[i])
				}
			}
		}
	}
}

func TestQRLeastSquares(t *testing.T) {
	// Overdetermined system: residual of LS solution must be orthogonal to
	// the column space, i.e. A^H (A x - b) = 0.
	rng := rand.New(rand.NewSource(6))
	a := randMatrix(rng, 12, 4)
	b := make([]complex128, 12)
	for i := range b {
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	f, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	res := a.MulVec(x, nil)
	for i := range res {
		res[i] -= b[i]
	}
	proj := a.ConjTranspose().MulVec(res, nil)
	if Norm2(proj) > 1e-8 {
		t.Errorf("normal-equation residual %g, want ~0", Norm2(proj))
	}
}

func TestQRErrors(t *testing.T) {
	if _, err := NewQR(NewMatrix(2, 3)); err == nil {
		t.Error("expected error for rows < cols")
	}
	rng := rand.New(rand.NewSource(7))
	f, err := NewQR(randMatrix(rng, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]complex128{1}); err == nil {
		t.Error("expected length error")
	}
	// Rank-deficient: zero matrix.
	z := NewMatrix(3, 2)
	fz, err := NewQR(z)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fz.Solve(make([]complex128, 3)); err == nil {
		t.Error("expected rank-deficiency error")
	}
}

func TestQRVsCholeskySolveAgreement(t *testing.T) {
	// For an HPD system both solvers must agree.
	rng := rand.New(rand.NewSource(8))
	n := 10
	a := randHPD(rng, n)
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	x1, err := SolveHermitian(a, b)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if cmplx.Abs(x1[i]-x2[i]) > 1e-7 {
			t.Errorf("solver disagreement at %d: %v vs %v", i, x1[i], x2[i])
		}
	}
}

func TestIsHermitian(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 1, 1+2i)
	a.Set(1, 0, 1-2i)
	if !a.IsHermitian(1e-12) {
		t.Error("should be Hermitian")
	}
	a.Set(1, 0, 1+2i)
	if a.IsHermitian(1e-12) {
		t.Error("should not be Hermitian")
	}
	if NewMatrix(2, 3).IsHermitian(1) {
		t.Error("non-square cannot be Hermitian")
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("NewMatrix", func() { NewMatrix(0, 1) })
	mustPanic("MulVec x", func() { NewMatrix(2, 2).MulVec(make([]complex128, 3), nil) })
	mustPanic("Mul dims", func() { Mul(NewMatrix(2, 3), NewMatrix(2, 3)) })
	mustPanic("Dot", func() { Dot(make([]complex128, 2), make([]complex128, 3)) })
	mustPanic("AccumulateOuter", func() { NewMatrix(2, 2).AccumulateOuter(make([]complex128, 3), 1) })
	mustPanic("SampleCovariance empty", func() { SampleCovariance(nil, 0) })
	mustPanic("AddScaledIdentity", func() { NewMatrix(2, 3).AddScaledIdentity(1) })
}

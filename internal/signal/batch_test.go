package signal

import (
	"math"
	"math/rand"
	"testing"
)

// Tests for the batched transform entry points: level-major ForwardMany,
// the fused window+scatter ForwardWindowedMany (both power-of-two and
// Bluestein lengths), the no-alloc FFTShiftInto, and the batched matched
// filter. Batching only restructures the order work is issued in — every
// per-buffer result must stay bit-identical to the one-at-a-time calls.

func TestForwardManyLevelMajorMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{2, 8, 64, 128} {
		for _, batch := range []int{1, 2, 5} {
			p := NewPlan(n)
			one := make([][]complex128, batch)
			many := make([][]complex128, batch)
			for b := range one {
				one[b] = randVec(rng, n)
				many[b] = append([]complex128(nil), one[b]...)
				p.Forward(one[b])
			}
			p.ForwardMany(many)
			for b := range one {
				for i := range one[b] {
					if one[b][i] != many[b][i] {
						t.Fatalf("n=%d batch=%d: ForwardMany[%d][%d] = %v, Forward %v",
							n, batch, b, i, many[b][i], one[b][i])
					}
				}
			}
		}
	}
}

func TestForwardWindowedManyMatchesFillForward(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	// 15 and 53 exercise the Bluestein fallback; the rest the fused
	// radix-2^2 scatter path.
	for _, n := range []int{4, 15, 32, 53, 128} {
		p := NewPlan(n)
		win := make([]float64, n)
		for i := range win {
			win[i] = 0.5 + 0.5*rng.Float64()
		}
		const batch = 3
		srcs := make([][]complex64, batch)
		dsts := make([][]complex128, batch)
		want := make([][]complex128, batch)
		for b := range srcs {
			srcs[b] = make([]complex64, n)
			for i := range srcs[b] {
				srcs[b][i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
			}
			dsts[b] = make([]complex128, n)
			// Reference: widen, multiply, transform one at a time.
			want[b] = make([]complex128, n)
			for i, v := range srcs[b] {
				want[b][i] = complex128(v) * complex(win[i], 0)
			}
			p.Forward(want[b])
		}
		p.ForwardWindowedMany(srcs, win, dsts)
		for b := range dsts {
			for i := range dsts[b] {
				if dsts[b][i] != want[b][i] {
					t.Fatalf("n=%d: ForwardWindowedMany[%d][%d] = %v, fill+Forward %v",
						n, b, i, dsts[b][i], want[b][i])
				}
			}
		}
	}
}

func TestForwardWindowedManyValidates(t *testing.T) {
	p := NewPlan(8)
	win := make([]float64, 8)
	srcs := [][]complex64{make([]complex64, 8)}
	for _, bad := range []func(){
		func() { p.ForwardWindowedMany(srcs, win, nil) },
		func() { p.ForwardWindowedMany(srcs, win[:4], [][]complex128{make([]complex128, 8)}) },
		func() {
			p.ForwardWindowedMany([][]complex64{make([]complex64, 4)}, win, [][]complex128{make([]complex128, 8)})
		},
		func() { p.ForwardWindowedMany(srcs, win, [][]complex128{make([]complex128, 4)}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("ForwardWindowedMany accepted mismatched geometry")
				}
			}()
			bad()
		}()
	}
}

func TestFFTShiftInto(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 9} {
		src := make([]int, n)
		for i := range src {
			src[i] = i
		}
		dst := make([]int, n)
		FFTShiftInto(src, dst)
		half := (n + 1) / 2
		for i := range dst {
			want := (i + half) % n
			if dst[i] != want {
				t.Fatalf("n=%d: FFTShiftInto[%d] = %d, want %d", n, i, dst[i], want)
			}
		}
		// The allocating form must agree.
		shifted := FFTShift(complexify(src))
		for i := range shifted {
			if int(real(shifted[i])) != dst[i] {
				t.Fatalf("n=%d: FFTShift disagrees with FFTShiftInto at %d", n, i)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("FFTShiftInto accepted mismatched lengths")
		}
	}()
	FFTShiftInto(make([]int, 4), make([]int, 3))
}

func complexify(x []int) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = complex(float64(v), 0)
	}
	return out
}

func TestMatchedFilterManyMatchesConvolve(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, c := range []struct{ n, hlen, batch int }{
		{53, 16, 1}, {53, 16, 4}, {64, 9, 3}, {17, 4, 7},
	} {
		h := randVec(rng, c.hlen)
		fc := NewFastConvolver(c.n, h)
		fc.EnsureBatch(c.batch)
		ref := NewFastConvolver(c.n, h)
		full := make([]complex128, ref.OutLen())
		profs := make([][]complex128, c.batch)
		want := make([][]complex128, c.batch)
		for b := range profs {
			profs[b] = randVec(rng, c.n)
			want[b] = append([]complex128(nil), profs[b]...)
			ref.Convolve(want[b], full)
			copy(want[b], ref.MatchedOutput(full))
		}
		fc.MatchedFilterMany(profs)
		for b := range profs {
			for i := range profs[b] {
				if profs[b][i] != want[b][i] {
					t.Fatalf("n=%d hlen=%d batch=%d: prof[%d][%d] = %v, Convolve %v",
						c.n, c.hlen, c.batch, b, i, profs[b][i], want[b][i])
				}
			}
		}
	}
}

func TestMatchedFilterManyBeyondBatch(t *testing.T) {
	// More profiles than EnsureBatch prepared for must still work: the
	// convolver chunks by its scratch depth.
	rng := rand.New(rand.NewSource(24))
	h := randVec(rng, 8)
	fc := NewFastConvolver(40, h)
	fc.EnsureBatch(2)
	ref := NewFastConvolver(40, h)
	full := make([]complex128, ref.OutLen())
	const batch = 5
	profs := make([][]complex128, batch)
	want := make([][]complex128, batch)
	for b := range profs {
		profs[b] = randVec(rng, 40)
		want[b] = append([]complex128(nil), profs[b]...)
		ref.Convolve(want[b], full)
		copy(want[b], ref.MatchedOutput(full))
	}
	fc.MatchedFilterMany(profs)
	for b := range profs {
		for i := range profs[b] {
			if profs[b][i] != want[b][i] {
				t.Fatalf("prof[%d][%d] = %v, want %v", b, i, profs[b][i], want[b][i])
			}
		}
	}
}

func TestFusedStagesMatchDFT(t *testing.T) {
	// The radix-2^2 fused passes must stay a correct DFT across sizes
	// that end on both a fused and a lone radix-2 level.
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{2, 4, 8, 16, 32, 64, 256, 1024} {
		x := randVec(rng, n)
		want := DFT(x)
		got := append([]complex128(nil), x...)
		NewPlan(n).Forward(got)
		var worst float64
		for i := range got {
			d := got[i] - want[i]
			if e := math.Hypot(real(d), imag(d)); e > worst {
				worst = e
			}
		}
		if worst > 1e-9*float64(n) {
			t.Errorf("n=%d: fused-stage FFT differs from DFT by %g", n, worst)
		}
	}
}

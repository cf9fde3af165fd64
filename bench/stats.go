package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, or 0 for an empty sample.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (p*len(sorted)+99)/100 - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailFloor is the percentile reported when the sample is too small for any
// tail to have ten samples beyond it: the median.
const tailFloor = 50

// pickTail returns the highest whole percentile <= 90 that still has at
// least ten of the n samples beyond it, so the reported tail is an order
// statistic with support rather than one of the few largest values. Below
// twenty samples no percentile qualifies and the median is reported.
func pickTail(n int) int {
	for p := 90; p > tailFloor; p-- {
		if n-(p*n+99)/100 >= 10 {
			return p
		}
	}
	return tailFloor
}

// median returns the middle value of xs (mean of the middle two for an even
// count) without reordering the caller's slice; 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// mean returns the arithmetic mean of xs; 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) computes
// them — the rule the acceptance check applies. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the inter-quartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}

// sortedMs converts durations to ascending milliseconds.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when the base is 0 (a layer off the workload's path).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

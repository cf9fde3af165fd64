package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    int
		want float64
	}{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %d) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 90); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
}

// The tail is the highest whole percentile <= 90 with at least ten samples
// beyond it; too small a sample falls back to the median.
func TestPickTailAndFallback(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1000, 90}, {108, 90}, {100, 90}, {99, 89}, {50, 80}, {33, 69}, {21, 52}, {20, 50}, {19, 50}, {0, 50},
	} {
		got := pickTail(c.n)
		if got != c.want {
			t.Errorf("pickTail(%d) = %d, want %d", c.n, got, c.want)
		}
		if got > tailFloor {
			if beyond := c.n - (got*c.n+99)/100; beyond < 10 {
				t.Errorf("pickTail(%d) = %d leaves only %d samples beyond", c.n, got, beyond)
			}
		}
	}
}

func TestMedianOfBlocks(t *testing.T) {
	rates := []float64{420, 90, 431, 428, 425} // one block hit by a stall
	if got := median(rates); got != 425 {
		t.Errorf("median of block rates = %v, want 425", got)
	}
	if rates[1] != 90 {
		t.Error("median reordered its argument")
	}
	if got := median([]float64{4, 2}); got != 3 {
		t.Errorf("median of two = %v, want 3", got)
	}
	// The high-water marks of five blocks, on two levels one cube apart.
	if got := mean([]float64{918528, 951296, 951296, 918528, 951296}); got != 938188.8 {
		t.Errorf("mean of block marks = %v, want 938188.8", got)
	}
	if got := mean(nil); got != 0 {
		t.Errorf("mean of nothing = %v, want 0", got)
	}
}

// Values from Python: statistics.quantiles([...], n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 3, 7, 1, 9, 2, 8, 4, 6, 5}, 2.75, 8.25},
		{[]float64{5.4, 5.1, 5.9, 6.2, 5.5}, 5.25, 6.05},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestBlockSize(t *testing.T) {
	if got := blockSize(5.4, 4*time.Second); got != 22 {
		t.Errorf("blockSize(5.4/s, 4s) = %d, want 22", got)
	}
	if got := blockSize(0.1, time.Second); got != 2 {
		t.Errorf("blockSize floor = %d, want 2", got)
	}
}

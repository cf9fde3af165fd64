package core

import (
	"math"
	"testing"
)

// These tests drive Balance with the online tuner's height function: stage
// i's service at w workers is work_i / rate(eff_i, min(w, cap_i)), with
// rate(e, w) = 1 + e(w-1) (perfect scaling when eff is nil).

func rate(e float64, w int) float64 {
	if e <= 0 || e > 1 {
		return float64(w)
	}
	return 1 + e*float64(w-1)
}

// heights returns the service closure for Balance; caps and eff may be nil.
func heights(work []float64, caps []int, eff []float64) func(Assignment, int, int) float64 {
	return func(_ Assignment, i, w int) float64 {
		if caps != nil && caps[i] > 0 && w > caps[i] {
			w = caps[i]
		}
		e := 1.0
		if eff != nil {
			e = eff[i]
		}
		return work[i] / rate(e, w)
	}
}

// bottleneck is the largest height of split under svc.
func bottleneck(svc func(Assignment, int, int) float64, split Assignment) float64 {
	h := 0.0
	for i, w := range split {
		h = math.Max(h, svc(split, i, w))
	}
	return h
}

// bruteForceMax finds the optimal bottleneck height by exhaustive search
// over all splits of budget (small instances only).
func bruteForceMax(work []float64, budget int, caps []int, eff []float64) float64 {
	n := len(work)
	svc := heights(work, caps, eff)
	best := math.Inf(1)
	var rec func(i, left int, cur Assignment)
	rec = func(i, left int, cur Assignment) {
		if i == n {
			if left == 0 {
				best = math.Min(best, bottleneck(svc, cur))
			}
			return
		}
		max := left - (n - i - 1)
		for w := 1; w <= max; w++ {
			if caps != nil && caps[i] > 0 && w > caps[i] {
				break
			}
			cur[i] = w
			rec(i+1, left-w, cur)
		}
	}
	rec(0, budget, make(Assignment, n))
	return best
}

// checkAgainstBruteForce balances one case and checks the split's shape
// and that its bottleneck matches the exhaustive optimum.
func checkAgainstBruteForce(t *testing.T, work []float64, budget int, caps []int, eff []float64) {
	t.Helper()
	svc := heights(work, caps, eff)
	got := Balance(len(work), budget, svc)
	for i, w := range got {
		if w < 1 {
			t.Fatalf("Balance(%v,%d,eff=%v): stage %d got %d workers", work, budget, eff, i, w)
		}
		if caps != nil && caps[i] > 0 && w > caps[i] {
			t.Errorf("Balance(%v,%d,eff=%v): stage %d exceeds cap %d with %d", work, budget, eff, i, caps[i], w)
		}
	}
	if sum := got.Total(); sum > budget {
		t.Errorf("Balance(%v,%d,eff=%v) used %d workers", work, budget, eff, sum)
	}
	want := bruteForceMax(work, budget, caps, eff)
	if h := bottleneck(svc, got); h > want*(1+1e-9) {
		t.Errorf("Balance(%v,%d,eff=%v): bottleneck %g, optimum %g (split %v)", work, budget, eff, h, want, got)
	}
}

func TestBalanceMatchesBruteForce(t *testing.T) {
	cases := []struct {
		work   []float64
		budget int
		caps   []int
	}{
		{[]float64{4, 2, 20, 2, 2, 4, 4}, 14, nil},
		{[]float64{1, 1, 1, 1}, 8, nil},
		{[]float64{10, 1, 1}, 6, nil},
		{[]float64{5, 5, 5}, 10, []int{2, 0, 0}},
		{[]float64{7, 3, 9, 1}, 9, []int{0, 1, 4, 0}},
	}
	for _, c := range cases {
		checkAgainstBruteForce(t, c.work, c.budget, c.caps, nil)
	}
}

func TestBalanceZeroWorkKeepsOneWorker(t *testing.T) {
	got := Balance(3, 9, heights([]float64{0, 10, 0}, nil, nil))
	if got[0] != 1 || got[2] != 1 {
		t.Errorf("zero-work stages should keep exactly 1 worker, got %v", got)
	}
	if got[1] != 7 {
		t.Errorf("all spare budget should flow to the loaded stage, got %v", got)
	}
}

func TestBalanceAllCappedLeavesBudgetUnused(t *testing.T) {
	got := Balance(2, 10, heights([]float64{5, 5}, []int{2, 2}, nil))
	if got[0] != 2 || got[1] != 2 {
		t.Errorf("caps must bound the split, got %v", got)
	}
}

func TestBalanceBudgetOfOne(t *testing.T) {
	// A budget of 1 over one stage is the degenerate minimum: the single
	// mandatory worker, nothing to distribute.
	if got := Balance(1, 1, heights([]float64{5e6}, nil, nil)); len(got) != 1 || got[0] != 1 {
		t.Errorf("Balance single stage, budget 1 = %v, want [1]", got)
	}
	// A budget below the stage count cannot strip the mandatory workers:
	// every stage keeps exactly one (callers refuse such budgets up front;
	// Balance itself must still be safe).
	got := Balance(3, 1, heights([]float64{5e6, 1e6, 3e6}, nil, nil))
	for i, w := range got {
		if w != 1 {
			t.Errorf("stage %d got %d workers from an infeasible budget", i, w)
		}
	}
}

func TestBalanceEfficiencyMatchesBruteForce(t *testing.T) {
	cases := []struct {
		work   []float64
		budget int
		caps   []int
		eff    []float64
	}{
		// Efficiency < 1 on every stage.
		{[]float64{4, 2, 20, 2}, 10, nil, []float64{0.5, 0.8, 0.6, 0.9}},
		{[]float64{10, 10}, 8, nil, []float64{0.3, 0.3}},
		// Mixed: a perfectly-scaling I/O stage against lossy compute.
		{[]float64{12, 5, 5}, 9, nil, []float64{1, 0.4, 0.4}},
		// Caps still bind under the rate model.
		{[]float64{9, 9, 1}, 9, []int{2, 0, 0}, []float64{0.7, 0.7, 0.7}},
	}
	for _, c := range cases {
		checkAgainstBruteForce(t, c.work, c.budget, c.caps, c.eff)
	}
}

func TestBalanceEfficiencyZeroWorkKeepsOneWorker(t *testing.T) {
	got := Balance(3, 9, heights([]float64{0, 10, 0}, nil, []float64{0.5, 0.5, 0.5}))
	if got[0] != 1 || got[2] != 1 {
		t.Errorf("zero-work stages should keep exactly 1 worker, got %v", got)
	}
	if got[1] != 7 {
		t.Errorf("all spare budget should flow to the loaded stage, got %v", got)
	}
}

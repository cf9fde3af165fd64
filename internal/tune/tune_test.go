package tune

import (
	"math/rand"
	"testing"

	"stapio/internal/core"
)

// balanced is core.Balance over perfectly scaling stages, each capped at
// caps[i] when positive (caps may be nil): the split the controller must
// converge to.
func balanced(work []float64, budget int, caps []int) core.Assignment {
	return core.Balance(len(work), budget, func(_ core.Assignment, i, w int) float64 {
		if caps != nil && caps[i] > 0 && w > caps[i] {
			w = caps[i]
		}
		return work[i] / float64(w)
	})
}

func TestEvenSplit(t *testing.T) {
	got := EvenSplit(14, 7)
	for i, w := range got {
		if w != 2 {
			t.Fatalf("EvenSplit(14,7)[%d] = %d, want 2", i, w)
		}
	}
	got = EvenSplit(10, 7)
	sum := 0
	for _, w := range got {
		sum += w
		if w < 1 || w > 2 {
			t.Fatalf("EvenSplit(10,7) uneven: %v", got)
		}
	}
	if sum != 10 {
		t.Fatalf("EvenSplit(10,7) sums to %d: %v", sum, got)
	}
	defer func() {
		if recover() == nil {
			t.Error("EvenSplit(3, 7) should panic")
		}
	}()
	EvenSplit(3, 7)
}

func TestNewControllerValidation(t *testing.T) {
	stages := []Stage{{Name: "a"}, {Name: "b"}}
	if _, err := NewController(Config{}, nil, nil); err == nil {
		t.Error("no stages should fail")
	}
	if _, err := NewController(Config{}, stages, []int{1}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := NewController(Config{}, stages, []int{0, 2}); err == nil {
		t.Error("zero initial workers should fail")
	}
	if _, err := NewController(Config{Budget: 5}, stages, []int{2, 2}); err == nil {
		t.Error("budget != sum(initial) should fail")
	}
	c, err := NewController(Config{}, stages, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.Budget() != 4 {
		t.Errorf("implied budget = %d, want 4", c.Budget())
	}
}

// simulate drives a controller against a synthetic pipeline whose stages
// scale perfectly: each CPI adds work[i]/split[i] busy time to stage i.
func simulate(t *testing.T, c *Controller, work []float64, cpis int) {
	t.Helper()
	n := len(work)
	busy := make([]int64, n)
	count := make([]int64, n)
	for k := 0; k < cpis; k++ {
		split := c.Split()
		for i := 0; i < n; i++ {
			busy[i] += int64(work[i] / float64(split[i]))
			count[i]++
		}
		c.Observe(busy, count)
	}
}

func TestControllerConvergesToBalance(t *testing.T) {
	stages := []Stage{{Name: "dop"}, {Name: "we"}, {Name: "wh"}, {Name: "bfe"}, {Name: "bfh"}, {Name: "pc"}, {Name: "cfar"}}
	initial := EvenSplit(14, 7)
	c, err := NewController(Config{Interval: 4}, stages, initial)
	if err != nil {
		t.Fatal(err)
	}
	// Hard weights dominate 5x; the balanced split must hand them the
	// spare budget.
	work := []float64{4e6, 2e6, 20e6, 2e6, 2e6, 4e6, 4e6}
	simulate(t, c, work, 40)
	got := c.Split()
	want := balanced(work, 14, nil)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("converged split %v, water-filling optimum %v", got, want)
		}
	}
	trace := c.Trace()
	if len(trace) == 0 {
		t.Fatal("no decisions recorded")
	}
	applied := 0
	for _, d := range trace {
		if d.Reason == ReasonWarmup {
			continue // the baseline snapshot measures nothing
		}
		if d.Bottleneck != 2 && !d.Applied && applied == 0 {
			t.Errorf("first decisions should see the hard-weight bottleneck, got stage %d", d.Bottleneck)
		}
		if d.Applied {
			applied++
		}
		sum := 0
		for _, w := range d.New {
			sum += w
		}
		if sum != 14 {
			t.Errorf("decision at CPI %d breaks the budget: %v", d.CPI, d.New)
		}
	}
	if applied == 0 {
		t.Error("no decision was applied")
	}
}

func TestControllerHysteresisHoldsBalancedSplit(t *testing.T) {
	stages := []Stage{{Name: "a"}, {Name: "b"}}
	c, err := NewController(Config{Interval: 2, Hysteresis: 0.1}, stages, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Perfectly balanced load: every re-solve reproduces {2,2}; nothing
	// may be applied and the trace must say so.
	simulate(t, c, []float64{10e6, 10e6}, 20)
	for _, d := range c.Trace() {
		if d.Applied {
			t.Fatalf("balanced load caused a rebalance at CPI %d: %v -> %v", d.CPI, d.Old, d.New)
		}
	}
	got := c.Split()
	if got[0] != 2 || got[1] != 2 {
		t.Errorf("split drifted to %v", got)
	}
}

func TestControllerHysteresisBlocksMarginalGain(t *testing.T) {
	stages := []Stage{{Name: "a"}, {Name: "b"}, {Name: "c"}}
	// With a huge hysteresis nothing can ever clear the bar.
	c, err := NewController(Config{Interval: 2, Hysteresis: 10}, stages, []int{1, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	simulate(t, c, []float64{30e6, 1e6, 1e6}, 20)
	got := c.Split()
	if got[0] != 1 || got[2] != 4 {
		t.Errorf("hysteresis 10 must freeze the split, got %v", got)
	}
	trace := c.Trace()
	if len(trace) == 0 {
		t.Fatal("decisions should still be evaluated and traced")
	}
	for _, d := range trace {
		if d.Applied {
			t.Errorf("decision at CPI %d applied despite hysteresis", d.CPI)
		}
	}
}

func TestControllerRespectsCaps(t *testing.T) {
	stages := []Stage{{Name: "a", Max: 2}, {Name: "b"}}
	c, err := NewController(Config{Interval: 2, Hysteresis: -1}, stages, []int{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	simulate(t, c, []float64{50e6, 1e6}, 20)
	if got := c.Split(); got[0] > 2 {
		t.Errorf("stage a capped at 2 but got %d", got[0])
	}
}

func TestControllerWarmupAndInterval(t *testing.T) {
	stages := []Stage{{Name: "a"}, {Name: "b"}}
	c, err := NewController(Config{Interval: 5, Warmup: 3, Hysteresis: -1}, stages, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	busy := make([]int64, 2)
	count := make([]int64, 2)
	decisions := 0
	for k := 0; k < 13; k++ {
		split := c.Split()
		busy[0] += int64(40e6 / float64(split[0]))
		busy[1] += int64(1e6 / float64(split[1]))
		count[0]++
		count[1]++
		if _, applied := c.Observe(busy, count); applied {
			decisions++
		}
	}
	// Baseline (warmup entry) at CPI 3, first decision at CPI 8, second
	// at 13.
	tr := c.Trace()
	if len(tr) != 3 {
		t.Fatalf("expected 3 trace entries (warmup + CPI 8 and 13), got %d: %+v", len(tr), tr)
	}
	if decisions == 0 {
		t.Error("skewed load with negative hysteresis must rebalance")
	}
	if tr[0].CPI != 3 || tr[0].Reason != ReasonWarmup || tr[0].Applied {
		t.Errorf("first entry should be the warmup baseline at CPI 3, got %+v", tr[0])
	}
	if tr[1].CPI != 8 || tr[2].CPI != 13 {
		t.Errorf("decision CPIs %d,%d; want 8,13", tr[1].CPI, tr[2].CPI)
	}
}

func TestControllerSkipsWindowWithoutCPIs(t *testing.T) {
	stages := []Stage{{Name: "a"}, {Name: "b"}}
	c, err := NewController(Config{Interval: 2, Warmup: 1, Hysteresis: -1}, stages, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	busy := []int64{1e6, 1e6}
	count := []int64{1, 1}
	c.Observe(busy, count) // warmup baseline
	c.Observe(busy, count)
	// Stage b's counter never advances: the window must not rebalance on a
	// divide-by-zero — but it must still leave a traced, reasoned no-op.
	busy[0] += 2e6
	count[0] += 2
	if _, applied := c.Observe(busy, count); applied {
		t.Error("decision applied with a starved stage")
	}
	tr := c.Trace()
	if len(tr) != 2 {
		t.Fatalf("expected warmup + starved trace entries, got %+v", tr)
	}
	if tr[0].Reason != ReasonWarmup {
		t.Errorf("first entry reason %q, want %q", tr[0].Reason, ReasonWarmup)
	}
	if tr[1].Reason != ReasonStarved || tr[1].Applied || tr[1].Bottleneck != -1 {
		t.Errorf("starved window entry %+v, want reason %q, not applied", tr[1], ReasonStarved)
	}
}

// TestControllerIOStageDominant drives a controller whose first stage is a
// serial I/O frontend: its busy counter records a constant per-fetch
// latency regardless of the assigned depth (fetches overlap), while the
// compute stage scales perfectly. The tuner must discover that prefetch
// depth is where the budget belongs.
func TestControllerIOStageDominant(t *testing.T) {
	stages := []Stage{{Name: "src read", Max: 32, Serial: true}, {Name: "compute"}}
	c, err := NewController(Config{Interval: 2, Warmup: 2, Hysteresis: -1}, stages, []int{1, 7})
	if err != nil {
		t.Fatal(err)
	}
	const (
		readLatency = 3e6 // serial per-fetch latency, depth-independent
		computeWork = 1e6
	)
	busy := make([]int64, 2)
	count := make([]int64, 2)
	for k := 0; k < 30; k++ {
		split := c.Split()
		busy[0] += readLatency // each fetch records its full serial latency
		busy[1] += int64(computeWork / float64(split[1]))
		count[0]++
		count[1]++
		c.Observe(busy, count)
	}
	got := c.Split()
	want := balanced([]float64{readLatency, computeWork}, 8, []int{32, 0})
	if got[0] != want[0] || got[1] != want[1] {
		t.Errorf("converged split %v, want the joint optimum %v", got, want)
	}
	if got[0] <= got[1] {
		t.Errorf("I/O-dominant load must trade compute workers for prefetch depth, got %v", got)
	}
	if eff := c.Efficiency(); eff[0] != 1 {
		t.Errorf("serial stage efficiency pinned at 1, got %v", eff)
	}
}

// TestControllerDrainedSerialStage: a serial stage whose counter never
// advances (a source that landed nothing) is measured as zero work rather
// than starving the window — the compute stages can still be rebalanced.
func TestControllerDrainedSerialStage(t *testing.T) {
	stages := []Stage{{Name: "src read", Serial: true}, {Name: "a"}, {Name: "b"}}
	c, err := NewController(Config{Interval: 2, Warmup: 2, Hysteresis: -1}, stages, []int{4, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	busy := make([]int64, 3)
	count := make([]int64, 3)
	for k := 0; k < 12; k++ {
		split := c.Split()
		// The read counter never advances: drained.
		busy[1] += int64(30e6 / float64(split[1]))
		busy[2] += int64(1e6 / float64(split[2]))
		count[1]++
		count[2]++
		c.Observe(busy, count)
	}
	got := c.Split()
	if got[0] != 1 {
		t.Errorf("drained serial stage should fall to its mandatory worker, got %v", got)
	}
	if got[1] <= got[2] {
		t.Errorf("loaded compute stage should own the reclaimed budget, got %v", got)
	}
	for _, d := range c.Trace() {
		if d.Reason == ReasonStarved {
			t.Errorf("drained serial stage must not starve the window: %+v", d)
		}
	}
}

// TestControllerIdleSerialStageKeepsItsWork: once a serial stage has
// measured its fetch latency, windows in which it lands nothing (the
// window ran ahead of consumption, or the input ended) hold that work
// instead of zeroing it, so the prefetch depth it earned is not handed
// back to compute.
func TestControllerIdleSerialStageKeepsItsWork(t *testing.T) {
	stages := []Stage{{Name: "src read", Max: 32, Serial: true}, {Name: "compute"}}
	c, err := NewController(Config{Interval: 2, Warmup: 2, Hysteresis: -1}, stages, []int{1, 7})
	if err != nil {
		t.Fatal(err)
	}
	const (
		readLatency = 3e6
		computeWork = 1e6
	)
	busy := make([]int64, 2)
	count := make([]int64, 2)
	step := func(landed bool) {
		if landed {
			busy[0] += readLatency
			count[0]++
		}
		busy[1] += int64(computeWork / float64(c.Split()[1]))
		count[1]++
		c.Observe(busy, count)
	}
	for k := 0; k < 20; k++ {
		step(true)
	}
	converged := c.Split()
	if converged[0] <= 1 {
		t.Fatalf("I/O-dominant load never grew the window: %v", converged)
	}
	before := len(c.Trace())
	for k := 0; k < 10; k++ {
		step(false)
	}
	if got := c.Split(); got[0] != converged[0] || got[1] != converged[1] {
		t.Errorf("idle windows moved the split %v -> %v", converged, got)
	}
	for _, d := range c.Trace()[before:] {
		if d.Reason == ReasonStarved {
			t.Errorf("an idle serial stage must not starve the window: %+v", d)
		}
	}
}

// simulateEff drives the controller against stages with true per-worker
// efficiencies: stage i's per-CPI busy time is work[i]/rate(eff[i], w).
func simulateEff(t *testing.T, c *Controller, work, eff []float64, cpis int) {
	t.Helper()
	n := len(work)
	busy := make([]int64, n)
	count := make([]int64, n)
	for k := 0; k < cpis; k++ {
		split := c.Split()
		for i := 0; i < n; i++ {
			busy[i] += int64(work[i] / rate(eff[i], split[i]))
			count[i]++
		}
		c.Observe(busy, count)
	}
}

// TestControllerLearnsEfficiency: a stage that scales at 50% per-worker
// efficiency must be found out once the tuner has observed it at two
// worker counts, and the learned value must pull the split toward the
// true joint optimum instead of the perfect-scaling one.
func TestControllerLearnsEfficiency(t *testing.T) {
	stages := []Stage{{Name: "memory-bound"}, {Name: "scalable"}}
	c, err := NewController(Config{Interval: 2, Warmup: 2, Hysteresis: -1}, stages, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	work := []float64{20e6, 5e6}
	trueEff := []float64{0.5, 1}
	simulateEff(t, c, work, trueEff, 40)
	eff := c.Efficiency()
	if eff[0] > 0.8 {
		t.Errorf("memory-bound stage's learned efficiency %v never dropped (true 0.5)", eff)
	}
	if eff[1] < 0.9 {
		t.Errorf("scalable stage's learned efficiency %v should stay near 1", eff)
	}
	for _, d := range c.Trace() {
		if len(d.Efficiency) == 0 && d.Reason != ReasonWarmup {
			t.Errorf("measured decision at CPI %d carries no efficiency snapshot", d.CPI)
		}
	}
}

// TestControllerJitterWithinHysteresisNoChurn: once converged, random
// measurement jitter smaller than the hysteresis margin must never flip
// the split back and forth. Seeded, so the test is deterministic.
func TestControllerJitterWithinHysteresisNoChurn(t *testing.T) {
	stages := []Stage{{Name: "dop"}, {Name: "we"}, {Name: "wh"}, {Name: "bfe"}, {Name: "bfh"}, {Name: "pc"}, {Name: "cfar"}}
	c, err := NewController(Config{Interval: 4, Hysteresis: 0.1}, stages, EvenSplit(14, 7))
	if err != nil {
		t.Fatal(err)
	}
	work := []float64{4e6, 2e6, 20e6, 2e6, 2e6, 4e6, 4e6}
	n := len(work)
	busy := make([]int64, n)
	count := make([]int64, n)
	rng := rand.New(rand.NewSource(7))
	observe := func(cpis int, jitter float64) {
		for k := 0; k < cpis; k++ {
			split := c.Split()
			for i := 0; i < n; i++ {
				scale := 1 + jitter*(2*rng.Float64()-1)
				busy[i] += int64(work[i] / float64(split[i]) * scale)
				count[i]++
			}
			c.Observe(busy, count)
		}
	}
	observe(60, 0) // converge on clean measurements
	converged := c.Split()
	before := len(c.Trace())
	observe(60, 0.03) // ±3% noise, well inside the 10% hysteresis margin
	for _, d := range c.Trace()[before:] {
		if d.Applied {
			t.Fatalf("jitter within hysteresis bounds caused churn at CPI %d: %v -> %v", d.CPI, d.Old, d.New)
		}
	}
	got := c.Split()
	for i := range got {
		if got[i] != converged[i] {
			t.Fatalf("split drifted under bounded jitter: %v -> %v", converged, got)
		}
	}
}

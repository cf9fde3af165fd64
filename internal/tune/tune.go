// Package tune implements the online pipeline auto-tuner: a controller
// that watches the measured per-stage service times of a running pipeline
// and rebalances a fixed worker budget across the stages between CPIs.
//
// The paper (and cmd/stapopt) solves the same problem offline: given the
// per-task workloads W_i and a node budget P, assign P_i to minimise the
// bottleneck service time max_i W_i/P_i (eqs. (1)-(15) reduce throughput
// to 1/max_i T_i). Both solve it with one marginal-allocation greedy,
// core.Balance, which is optimal because each task's service time is
// non-increasing in its own worker count and independent of the others'.
// The controller runs it against *measured* busy times instead of the
// analytic model: every decision window it estimates each stage's serial
// work, re-solves the split, and applies it only when the predicted
// bottleneck improvement clears a hysteresis threshold (so measurement
// noise cannot make it thrash).
//
// Two refinements extend the paper's T = W/P model:
//
//   - Serial stages (Stage.Serial) model I/O frontends whose "workers" are
//     latency-hiding slots rather than compute parallelism: a prefetch
//     window of depth D overlaps D fetches of serial latency L each, so
//     the pipeline-visible service time is L/D. Their fed busy counters
//     record per-fetch latency, which the controller uses as the stage's
//     serial work directly — depth then enters the balance condition
//     exactly like a worker count, and the tuner trades compute workers
//     for prefetch depth under the one shared budget.
//
//   - Measured per-worker efficiency replaces perfect scaling: whenever a
//     stage is observed at two different worker counts, the controller
//     fits the linear-overhead rate model rate(w) = 1 + e(w-1) (e = 1 is
//     perfect scaling) and feeds e into the height function, so stages
//     that cannot use extra workers (memory-bound kernels) stop being
//     over-credited them.
//
// The controller is deliberately pipeline-agnostic: stages are just names
// with optional worker caps, and the caller feeds cumulative (busyNS,
// cpis) counters after every completed CPI. pipexec owns the mapping onto
// its stage goroutines and the atomic worker-count swap.
package tune

import (
	"fmt"
	"time"

	"stapio/internal/core"
)

// Config parameterises the controller.
type Config struct {
	// Budget is the total worker budget distributed across the tunable
	// stages. 0 means "the sum of the initial per-stage counts".
	Budget int
	// Interval is the number of completed CPIs between decisions
	// (default 8). Shorter intervals react faster but measure noisier
	// service times.
	Interval int
	// Warmup is the number of completed CPIs ignored before the first
	// measurement window opens (default: Interval), excluding the
	// pipeline-fill transient from the first decision.
	Warmup int
	// Hysteresis is the minimum predicted relative improvement of the
	// bottleneck service time required to apply a rebalance. 0 means the
	// default (0.1); negative means none (every differing split is
	// applied — useful in tests).
	Hysteresis float64
}

func (c Config) interval() int {
	if c.Interval < 1 {
		return 8
	}
	return c.Interval
}

func (c Config) warmup() int {
	if c.Warmup < 1 {
		return c.interval()
	}
	return c.Warmup
}

func (c Config) hysteresis() float64 {
	switch {
	case c.Hysteresis < 0:
		return 0
	case c.Hysteresis == 0:
		return 0.1
	default:
		return c.Hysteresis
	}
}

// Stage describes one tunable pipeline stage.
type Stage struct {
	Name string
	// Max caps the useful worker count (0 = uncapped) — typically the
	// number of work items the stage partitions, beyond which extra
	// workers receive empty blocks.
	Max int
	// Serial marks a latency-hiding stage (an I/O frontend): its busy
	// counter records the serial latency of each operation (e.g. one
	// striped read), operations overlap freely, and assigning it w
	// "workers" (a prefetch window of depth w) divides the
	// pipeline-visible service time by w. The controller uses the
	// measured per-operation latency as the stage's serial work directly
	// instead of scaling it by the current worker count, and pins the
	// stage's efficiency at 1 (overlap is genuine concurrency, not
	// compute speedup). If the store saturates, the measured latency
	// itself rises with depth and the estimate self-corrects.
	Serial bool
}

// Reason classifies a Decision: why the tuner did (or did not) move.
type Reason string

const (
	// ReasonRebalanced: the re-solve produced a better split and it was
	// installed.
	ReasonRebalanced Reason = "rebalanced"
	// ReasonBalanced: the re-solve reproduced the current split — there
	// was nothing to move.
	ReasonBalanced Reason = "balanced"
	// ReasonHysteresis: a different split existed but its predicted gain
	// did not clear the hysteresis threshold.
	ReasonHysteresis Reason = "hysteresis"
	// ReasonWarmup: the warmup window closed and the measurement baseline
	// was snapshotted; no measurement existed yet.
	ReasonWarmup Reason = "warmup"
	// ReasonStarved: a stage recorded no CPIs in the window (a skip
	// policy dropped everything, or the window raced a drain), so the
	// service times were unmeasurable and the split was left alone.
	ReasonStarved Reason = "starved-window"
)

// Decision is one evaluation of the balance condition, recorded whether or
// not it changed the split — the trace replays how the tuner converged.
// No-op windows are recorded too (with Reason saying why nothing moved),
// so a trace with zero applied rebalances is still explainable.
type Decision struct {
	// CPI is the number of CPIs the pipeline had completed when the
	// decision was taken (timestamp-free, so traces are comparable
	// across runs and machines).
	CPI int `json:"cpi"`
	// Service is the measured mean wall-clock service time per CPI of
	// each stage over the window just closed, at the Old worker counts.
	// Nil for warmup/starved entries, which close no measured window.
	Service []time.Duration `json:"service_ns,omitempty"`
	// Old and New are the per-stage worker splits before and after the
	// decision (New == Old when not applied).
	Old []int `json:"old"`
	New []int `json:"new"`
	// Bottleneck indexes the stage with the largest measured service;
	// -1 when nothing was measured (warmup/starved entries).
	Bottleneck int `json:"bottleneck"`
	// Applied reports whether the split was actually swapped.
	Applied bool `json:"applied"`
	// Reason says why the decision moved or held still.
	Reason Reason `json:"reason"`
	// Efficiency is the per-stage learned scaling efficiency in (0, 1]
	// at decision time (1 = perfect scaling; serial stages stay 1).
	// Omitted on entries that measured nothing.
	Efficiency []float64 `json:"efficiency,omitempty"`
}

// traceCap bounds the decision trace so unbounded streaming runs cannot
// grow memory; decisions beyond it still apply, they are just not recorded.
const traceCap = 4096

// Efficiency model: measured service s(w) = W / rate(w) with
// rate(w) = 1 + e(w-1). e below effMin is clamped — a stage that appears
// to gain nothing from workers is still granted a floor so one noisy
// window cannot permanently write it off.
const (
	effMin   = 0.1
	effBlend = 0.5 // EWMA weight of a fresh efficiency estimate
)

// rate is the modelled speedup of w workers at efficiency e: 1 + e(w-1).
// e <= 0 (unknown) means perfect scaling, i.e. rate = w.
func rate(e float64, w int) float64 {
	if w < 1 {
		w = 1
	}
	if e <= 0 || e > 1 {
		return float64(w)
	}
	return 1 + e*float64(w-1)
}

// Controller holds the tuner state. It is not internally synchronised: the
// caller must invoke Observe from a single goroutine (pipexec calls it
// from the terminal pipeline stage) and read Trace/Split only after the
// run has stopped or from that same goroutine.
type Controller struct {
	cfg    Config
	stages []Stage
	budget int

	split    []int
	prevBusy []int64
	prevCPI  []int64

	seen      int  // CPIs observed so far
	lastAt    int  // seen value at the last window boundary
	baselined bool // a window baseline has been snapshotted

	trace   []Decision
	skipped int // decisions not recorded after traceCap

	// eff is the learned per-stage scaling efficiency (1 = perfect);
	// lastService/lastEffW remember the previous window's measurement so
	// a worker-count change between windows yields an efficiency sample.
	eff         []float64
	lastService []float64
	lastEffW    []int

	// work is each stage's serial work per CPI as of its last measured
	// window (a serial stage that landed nothing keeps its previous value).
	work []float64
}

// NewController validates the configuration and returns a controller
// starting from the given split.
func NewController(cfg Config, stages []Stage, initial []int) (*Controller, error) {
	n := len(stages)
	if n == 0 {
		return nil, fmt.Errorf("tune: no stages")
	}
	if len(initial) != n {
		return nil, fmt.Errorf("tune: initial split covers %d stages, have %d", len(initial), n)
	}
	sum := 0
	for i, w := range initial {
		if w < 1 {
			return nil, fmt.Errorf("tune: stage %q starts with %d workers, need >= 1", stages[i].Name, w)
		}
		sum += w
	}
	budget := cfg.Budget
	if budget == 0 {
		budget = sum
	}
	if budget != sum {
		return nil, fmt.Errorf("tune: budget %d does not match the initial split's %d workers", budget, sum)
	}
	if budget < n {
		return nil, fmt.Errorf("tune: budget %d cannot cover %d stages", budget, n)
	}
	c := &Controller{
		cfg:         cfg,
		stages:      append([]Stage(nil), stages...),
		budget:      budget,
		split:       append([]int(nil), initial...),
		prevBusy:    make([]int64, n),
		prevCPI:     make([]int64, n),
		eff:         make([]float64, n),
		lastService: make([]float64, n),
		lastEffW:    make([]int, n),
		work:        make([]float64, n),
	}
	for i := range c.eff {
		c.eff[i] = 1
	}
	return c, nil
}

// Budget returns the total worker budget.
func (c *Controller) Budget() int { return c.budget }

// Split returns a copy of the current per-stage worker split.
func (c *Controller) Split() []int { return append([]int(nil), c.split...) }

// Efficiency returns a copy of the learned per-stage scaling efficiencies
// (1 = perfect scaling; serial stages are pinned at 1).
func (c *Controller) Efficiency() []float64 { return append([]float64(nil), c.eff...) }

// StageNames returns the stage names in split order.
func (c *Controller) StageNames() []string {
	names := make([]string, len(c.stages))
	for i, s := range c.stages {
		names[i] = s.Name
	}
	return names
}

// Trace returns the recorded decisions.
func (c *Controller) Trace() []Decision { return append([]Decision(nil), c.trace...) }

// SkippedDecisions reports how many decisions were evaluated but not
// recorded because the trace hit its cap.
func (c *Controller) SkippedDecisions() int { return c.skipped }

// Observe feeds the cumulative per-stage busy time (nanoseconds) and CPI
// counts after one completed CPI. Every Interval completions (after
// Warmup) it evaluates the balance condition. The returned split is the
// current one; applied is true when this call rebalanced it — the caller
// must then install the new counts before the next CPI starts.
func (c *Controller) Observe(busyNS, cpis []int64) (split []int, applied bool) {
	c.seen++
	if !c.baselined {
		if c.seen >= c.cfg.warmup() {
			copy(c.prevBusy, busyNS)
			copy(c.prevCPI, cpis)
			c.lastAt = c.seen
			c.baselined = true
			c.recordNoop(ReasonWarmup)
		}
		return c.split, false
	}
	if c.seen-c.lastAt < c.cfg.interval() {
		return c.split, false
	}
	applied = c.decide(busyNS, cpis)
	copy(c.prevBusy, busyNS)
	copy(c.prevCPI, cpis)
	c.lastAt = c.seen
	return c.split, applied
}

// effective is the number of workers of stage i that actually carry work
// when w are assigned: the stage's cap truncates the rest.
func (c *Controller) effective(i, w int) int {
	if cap := c.stages[i].Max; cap > 0 && w > cap {
		return cap
	}
	return w
}

// recordNoop traces a window that measured nothing (warmup baseline or a
// starved stage), so quiet runs still leave an explainable trail.
func (c *Controller) recordNoop(why Reason) {
	c.record(Decision{
		CPI:        c.seen,
		Old:        append([]int(nil), c.split...),
		New:        append([]int(nil), c.split...),
		Bottleneck: -1,
		Reason:     why,
	})
}

func (c *Controller) record(d Decision) {
	if len(c.trace) < traceCap {
		c.trace = append(c.trace, d)
	} else {
		c.skipped++
	}
}

// updateEfficiency folds one window's (service, effective workers) sample
// into stage i's learned efficiency. Two windows at different worker
// counts pin the rate model down: s1/s2 = rate(w2)/rate(w1) solves to
// e = (s1/s2 - 1) / ((w2-1) - (s1/s2)(w1-1)).
func (c *Controller) updateEfficiency(i int, serviceNS float64, effW int) {
	defer func() {
		c.lastService[i] = serviceNS
		c.lastEffW[i] = effW
	}()
	s1, w1 := c.lastService[i], c.lastEffW[i]
	if s1 <= 0 || serviceNS <= 0 || w1 < 1 || w1 == effW {
		return
	}
	ratio := s1 / serviceNS
	den := float64(effW-1) - ratio*float64(w1-1)
	if den > -1e-9 && den < 1e-9 {
		return
	}
	e := (ratio - 1) / den
	if e < effMin {
		e = effMin
	}
	if e > 1 {
		e = 1
	}
	c.eff[i] = (1-effBlend)*c.eff[i] + effBlend*e
}

// decide closes the current measurement window, re-solves the split, and
// applies it if the predicted gain clears the hysteresis threshold.
func (c *Controller) decide(busyNS, cpis []int64) bool {
	n := len(c.stages)
	service := make([]time.Duration, n)
	bottleneck := -1
	for i := 0; i < n; i++ {
		dc := cpis[i] - c.prevCPI[i]
		if dc <= 0 {
			if c.stages[i].Serial {
				// A serial (I/O) stage that landed nothing this window ran
				// ahead of consumption (or its input ended): its fetches
				// did not get cheaper, so it keeps the work it last
				// measured, zero if it never measured any. Zeroing it
				// would hand its slots to compute on every window where
				// the window is already full of landed items.
				service[i] = 0
				continue
			}
			// A compute stage saw no CPIs (a skip policy dropped
			// everything, or the window raced a drain); the window is
			// unmeasurable, so hold the split and say why.
			c.recordNoop(ReasonStarved)
			return false
		}
		db := busyNS[i] - c.prevBusy[i]
		if db < 0 {
			db = 0
		}
		meas := float64(db) / float64(dc)
		if c.stages[i].Serial {
			// The busy counter records per-fetch serial latency: that IS
			// the stage's serial work; depth w hides it as work/w. The
			// pipeline-visible service is work over the current depth.
			c.work[i] = meas
			service[i] = time.Duration(meas / float64(c.effective(i, c.split[i])))
		} else {
			effW := c.effective(i, c.split[i])
			c.updateEfficiency(i, meas, effW)
			// The stage's serial work per CPI: measured wall time at the
			// current worker count, scaled back up by the modelled rate.
			// Workers beyond the cap partition empty blocks and contribute
			// nothing, so the scale factor uses the *effective* count — an
			// over-cap split's surplus is then correctly seen as free to
			// move elsewhere.
			service[i] = time.Duration(meas)
			c.work[i] = meas * rate(c.eff[i], effW)
		}
		if bottleneck < 0 || service[i] > service[bottleneck] {
			bottleneck = i
		}
	}
	// Stage i's modelled service at w workers: its serial work over the
	// rate of the workers that carry it. The same height drives the
	// re-solve and the old/new bottleneck comparison.
	svc := func(_ core.Assignment, i, w int) float64 {
		return c.work[i] / rate(c.effFor(i), c.effective(i, w))
	}
	next := core.Balance(n, c.budget, svc)

	oldMax, newMax := 0.0, 0.0
	changed := false
	for i := 0; i < n; i++ {
		oldMax = max(oldMax, svc(nil, i, c.split[i]))
		newMax = max(newMax, svc(nil, i, next[i]))
		if next[i] != c.split[i] {
			changed = true
		}
	}
	applied := changed && newMax <= oldMax*(1-c.cfg.hysteresis())

	reason := ReasonBalanced
	switch {
	case applied:
		reason = ReasonRebalanced
	case changed:
		reason = ReasonHysteresis
	}
	d := Decision{
		CPI:        c.seen,
		Service:    service,
		Old:        append([]int(nil), c.split...),
		Bottleneck: bottleneck,
		Applied:    applied,
		Reason:     reason,
		Efficiency: append([]float64(nil), c.eff...),
	}
	if applied {
		copy(c.split, next)
	}
	d.New = append([]int(nil), c.split...)
	c.record(d)
	return applied
}

// effFor is stage i's efficiency for height computations: serial stages
// overlap operations with genuine concurrency, so they scale perfectly.
func (c *Controller) effFor(i int) float64 {
	if c.stages[i].Serial {
		return 1
	}
	return c.eff[i]
}

// EvenSplit distributes budget over n stages as evenly as possible — the
// cold-start split the tuner begins from. The first budget%n stages get
// the extra worker. It panics if budget < n (every stage needs a worker).
func EvenSplit(budget, n int) []int {
	if n <= 0 || budget < n {
		panic(fmt.Sprintf("tune: EvenSplit budget %d cannot cover %d stages", budget, n))
	}
	w := make([]int, n)
	base, extra := budget/n, budget%n
	for i := range w {
		w[i] = base
		if i < extra {
			w[i]++
		}
	}
	return w
}

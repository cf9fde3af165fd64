package pipexec

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"stapio/internal/core"
	"stapio/internal/tune"
)

// Online auto-tuning: the paper balances the seven STAP tasks by hand
// against measured service times; Config.AutoTune does it live. The stage
// clocks are lock-free (atomic busy/CPI counters plus a log-scale service
// histogram), so the controller reads them without stopping the run, and
// the per-stage worker counts are atomics the stages load once per CPI —
// rebalancing is a store between CPIs, no goroutine surgery. The terminal
// stage (CFAR, or the combined PC+CFAR stage) drives the controller after
// each recorded CPI; see internal/tune for the balance condition.

// Tunable-stage indices, in pipeline order. In the combined design the
// pulse-compression slot carries the merged PC+CFAR stage and the CFAR
// slot is absent.
const (
	tsDoppler = iota
	tsEasyWeight
	tsHardWeight
	tsEasyBF
	tsHardBF
	tsPulseComp
	tsCFAR
	numTunable
)

// stageLoad injects a synthetic per-item service time into each compute
// stage (tests only, via Config.testLoad): every worker sleeps items x
// duration after processing its block, so a stage's wall time scales as
// items/workers exactly like the paper's W_i/P_i. Sleeping occupies a
// worker slot without burning CPU, which makes worker-split effects
// measurable on hosts with few cores, where pure-compute splits all
// serialise onto the same CPUs. Detections are unaffected: injection
// delays stages, it never touches data. The zero value injects nothing.
type stageLoad struct {
	// Per-item injected service times: Doppler per range gate, the weight
	// and beamforming stages per Doppler bin of their bin set, pulse
	// compression and CFAR per (beam, bin) pair.
	Doppler, EasyWeight, HardWeight, EasyBF, HardBF, PulseComp, CFAR time.Duration
}

// stageSleep blocks one worker for items x perItem of injected service
// time (see stageLoad), honouring run cancellation.
func (r *runner) stageSleep(perItem time.Duration, items int) {
	if perItem <= 0 || items <= 0 {
		return
	}
	r.sleep(time.Duration(items) * perItem)
}

// maxReadAhead caps tuner-grown readahead depth (a memory budget may cap
// it lower, see initTuning). It also clamps live depth stores from the
// test seam; the configured ReadAhead itself is not clamped.
const maxReadAhead = 32

// maxDecodeWorkers caps the tunable decode pool — decode shards per cube,
// so counts beyond this see no useful parallelism on any plausible host.
const maxDecodeWorkers = 16

// autoTuneWorkers derives the cold-start Workers split from an AutoTune
// budget: the budget spread as evenly as possible over the seven task
// slots, in pipeline order. (In the combined design the PC and CFAR slots
// merge into one stage, whose count is then their sum — the budget total
// is preserved either way.)
func autoTuneWorkers(budget int) (core.STAPNodes, error) {
	if budget < numTunable {
		return core.STAPNodes{}, fmt.Errorf("pipexec: autotune budget %d cannot cover the %d tasks", budget, numTunable)
	}
	s := tune.EvenSplit(budget, numTunable)
	return core.STAPNodes{
		Doppler: s[tsDoppler], EasyWeight: s[tsEasyWeight], HardWeight: s[tsHardWeight],
		EasyBF: s[tsEasyBF], HardBF: s[tsHardBF], PulseComp: s[tsPulseComp], CFAR: s[tsCFAR],
	}, nil
}

// withAutoTuneDefaults resolves the AutoTune cold start: a positive budget
// replaces Workers with the even split (the tuner refines it from there);
// budget 0 keeps the configured Workers as the tuner's starting split.
// With an I/O-tunable source the budget is shared with the I/O knobs: the
// configured ReadAhead and DecodeWorkers (at least 1 each) claim their
// slots and the compute stages split the rest — the tuner then moves
// budget freely across all nine.
func withAutoTuneDefaults(cfg Config, src CubeSource) (Config, error) {
	if cfg.AutoTune == nil || cfg.AutoTune.Budget == 0 {
		return cfg, nil
	}
	budget := cfg.AutoTune.Budget
	if src.Frontend() {
		cfg.ReadAhead, cfg.DecodeWorkers = max(cfg.ReadAhead, 1), max(cfg.DecodeWorkers, 1)
		budget -= cfg.ReadAhead + cfg.DecodeWorkers
		if budget < numTunable {
			return cfg, fmt.Errorf("pipexec: autotune budget %d cannot cover the %d tasks plus readahead %d and decode workers %d",
				cfg.AutoTune.Budget, numTunable, cfg.ReadAhead, cfg.DecodeWorkers)
		}
	}
	w, err := autoTuneWorkers(budget)
	if err != nil {
		return cfg, err
	}
	cfg.Workers = w
	return cfg, nil
}

// initTuning builds the live per-stage worker counts (always — stages read
// them whether or not a tuner swaps them) and, with AutoTune configured,
// the controller. clks lists the tunable stage clocks in slot order; the
// CFAR slot is nil in the combined design.
func (r *runner) initTuning(clks [numTunable]*stageClock) error {
	w := r.cfg.Workers
	counts := []int{w.Doppler, w.EasyWeight, w.HardWeight, w.EasyBF, w.HardBF, w.PulseComp, w.CFAR}
	pairs := len(r.p.Beams) * r.p.Bins()
	caps := []int{r.p.Dims.Ranges, len(r.easyBins), len(r.hardBins), len(r.easyBins), len(r.hardBins), pairs, pairs}
	if r.cfg.CombinePCCFAR {
		counts[tsPulseComp] += counts[tsCFAR]
		counts = counts[:tsCFAR]
		caps = caps[:tsCFAR]
	}
	r.wcs = make([]atomic.Int32, len(counts))
	for i, n := range counts {
		r.wcs[i].Store(int32(n))
	}
	if r.cfg.AutoTune == nil {
		return nil
	}
	stages := make([]tune.Stage, len(counts))
	for i := range stages {
		stages[i] = tune.Stage{Name: clks[i].name, Max: caps[i]}
		r.tuneClocks = append(r.tuneClocks, clks[i])
	}
	// A source frontend joins the solve: the readahead window is a serial
	// (latency-hiding) stage whose "workers" are prefetch slots, the
	// decode pool a regular compute stage. Their knobs then trade off
	// against compute workers under the one shared budget.
	if r.srcRead != nil {
		r.ioTune = true
		// A memory budget turns available bytes into a hard cap on the I/O
		// frontend: beyond (limit − minimum residency)/cube there is no
		// admissible readahead slot, so offering the tuner deeper windows
		// (or more decoders than admissible cubes) only wastes its probes
		// on budget-stalled configurations.
		maxRA := maxReadAhead
		if lim := r.budget.PathLimit(); lim > 0 && r.cubeB > 0 {
			maxRA = max(min(maxRA, int((lim-BandedMinResidency(r.p, r.bands.band))/r.cubeB)+1), 1)
		}
		maxDW := min(maxDecodeWorkers, maxRA)
		ra, dw := int(r.raDepth.Load()), int(r.decW.Load())
		if ra > maxRA {
			ra = maxRA
			r.raDepth.Store(int32(ra))
		}
		if dw > maxDW {
			dw = maxDW
			r.decW.Store(int32(dw))
			r.src.SetDecodeWorkers(dw)
		}
		stages = append(stages,
			tune.Stage{Name: r.srcRead.name, Max: maxRA, Serial: true},
			tune.Stage{Name: r.srcDecode.name, Max: maxDW},
		)
		counts = append(counts, ra, dw)
		r.tuneClocks = append(r.tuneClocks, r.srcRead, r.srcDecode)
	}
	ctl, err := tune.NewController(*r.cfg.AutoTune, stages, counts)
	if err != nil {
		return fmt.Errorf("pipexec: %w", err)
	}
	r.tuner = ctl
	r.tuneBusy = make([]int64, len(counts))
	r.tuneCPIs = make([]int64, len(counts))
	return nil
}

// workersFor loads stage slot i's live worker count (>= 1 by validation;
// a hostile store is still clamped so parallel() stays safe).
func (r *runner) workersFor(i int) int {
	return max(int(r.wcs[i].Load()), 1)
}

// applySplit installs a tuner split: the compute slots into the live
// worker counts, then — with I/O tuning — the readahead depth and the
// source's decode pool. All land between CPIs, so the next CPI sees a
// consistent assignment.
func (r *runner) applySplit(split []int) {
	for i := 0; i < len(r.wcs) && i < len(split); i++ {
		r.wcs[i].Store(int32(split[i]))
	}
	if !r.ioTune || len(split) < len(r.wcs)+2 {
		return
	}
	r.raDepth.Store(int32(split[len(r.wcs)]))
	dw := split[len(r.wcs)+1]
	r.decW.Store(int32(dw))
	r.src.SetDecodeWorkers(dw)
}

// afterCPI runs on the terminal stage's goroutine after each recorded CPI:
// it feeds the tuner the live clock counters and installs any rebalanced
// split before the next CPI's stages load their counts. Single-threaded by
// construction (one terminal stage), so the controller needs no locking.
// The test seam's setter addresses the compute slots first, then — when
// the source supports them — slot len(wcs) is the readahead depth and
// len(wcs)+1 the decode workers.
func (r *runner) afterCPI() {
	r.cpisDone++
	if r.cfg.testOnCPI != nil {
		r.cfg.testOnCPI(r.cpisDone, func(stage, n int) {
			switch {
			case stage >= 0 && stage < len(r.wcs) && n >= 1:
				r.wcs[stage].Store(int32(n))
			case stage == len(r.wcs) && n >= 1:
				r.raDepth.Store(int32(n))
			case stage == len(r.wcs)+1 && n >= 1 && r.src.Frontend():
				r.decW.Store(int32(n))
				r.src.SetDecodeWorkers(n)
			}
		})
	}
	if r.tuner == nil {
		return
	}
	for i, c := range r.tuneClocks {
		r.tuneBusy[i] = c.busy.Load()
		r.tuneCPIs[i] = c.cpis.Load()
		if i >= len(r.wcs) {
			// The frontend clocks count fetches, nb per CPI under bands:
			// busy x nb over fetches is the I/O work per CPI, the unit of
			// every compute slot.
			r.tuneBusy[i] *= int64(r.bands.nb)
		}
	}
	split, applied := r.tuner.Observe(r.tuneBusy, r.tuneCPIs)
	if applied {
		r.applySplit(split)
	}
}

// ---- service-time histograms ----

// durBuckets spans [1ns, ~3.9 days) in powers of two — bucket i holds
// durations d with bits.Len64(d) == i, i.e. [2^(i-1), 2^i).
const durBuckets = 48

// durHist is a lock-free log2-scale histogram of per-CPI stage service
// times. Recording is one atomic add plus a max CAS; quantiles are read
// after the run (or at any time, approximately).
type durHist struct {
	buckets [durBuckets]atomic.Int64
	max     atomic.Int64
}

func (h *durHist) record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	i := bits.Len64(uint64(ns))
	if i >= durBuckets {
		i = durBuckets - 1
	}
	h.buckets[i].Add(1)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// quantile returns an upper-bound estimate of the q-quantile: the upper
// edge of the bucket holding it, clamped to the exact observed maximum.
func (h *durHist) quantile(q float64) time.Duration {
	var total int64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total-1))
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > rank {
			edge := int64(1) << i // upper edge of bucket i is 2^i - 1
			if max := h.max.Load(); edge > max {
				return time.Duration(max)
			}
			return time.Duration(edge - 1)
		}
	}
	return time.Duration(h.max.Load())
}

// StageTimeStats summarises one stage's per-CPI service-time distribution
// — the tuner's input doubling as an observability surface (stapdetect
// -stagestats). P50/P90 are log-bucket upper bounds (within 2x of exact);
// Max is exact. As in StageStat, the frontend clocks ("src read", "src
// decode") count and time fetches, one per band under Config.BandRanges.
type StageTimeStats struct {
	Name          string
	CPIs          int64
	P50, P90, Max time.Duration
}

// String formats one row.
func (s StageTimeStats) String() string {
	return fmt.Sprintf("%-18s cpis=%-6d p50=%-10v p90=%-10v max=%v",
		s.Name, s.CPIs, s.P50, s.P90, s.Max)
}

// timeStats freezes the clock's histogram.
func (c *stageClock) timeStats() StageTimeStats {
	return StageTimeStats{
		Name: c.name,
		CPIs: c.cpis.Load(),
		P50:  c.hist.quantile(0.50),
		P90:  c.hist.quantile(0.90),
		Max:  time.Duration(c.hist.max.Load()),
	}
}

// FormatSplit renders a worker split against its stage names, e.g.
// "doppler=2 easy weight=1 ...". Used by CLIs printing tuner traces.
func FormatSplit(names []string, split []int) string {
	out := ""
	for i := range split {
		if i > 0 {
			out += " "
		}
		name := "?"
		if i < len(names) {
			name = names[i]
		}
		out += fmt.Sprintf("%s=%d", name, split[i])
	}
	return out
}

package pipexec

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"stapio/internal/cube"
	"stapio/internal/radar"
	"stapio/internal/tune"
)

func TestParallelEdgeCases(t *testing.T) {
	// n == 0: fn must not run at all (no empty-block call).
	called := false
	if err := parallel(4, 0, func(widx int, blk cube.Block) error {
		called = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("parallel(4, 0) invoked fn")
	}

	// w > n: truncated to n workers, every item covered exactly once, no
	// empty blocks, and every widx < the truncated count.
	var mu sync.Mutex
	seen := make(map[int]int)
	if err := parallel(10, 3, func(widx int, blk cube.Block) error {
		if widx >= 3 {
			t.Errorf("widx %d with only 3 items", widx)
		}
		if blk.Len() == 0 {
			t.Error("empty block handed to a worker")
		}
		mu.Lock()
		for i := blk.Lo; i < blk.Hi; i++ {
			seen[i]++
		}
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if seen[i] != 1 {
			t.Errorf("item %d covered %d times", i, seen[i])
		}
	}

	// w <= 0 degrades to serial, still covering everything once.
	total := 0
	if err := parallel(0, 5, func(widx int, blk cube.Block) error {
		total += blk.Len()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if total != 5 {
		t.Errorf("parallel(0, 5) covered %d items", total)
	}
}

// hardWeightLoad skews the hard-weight stage hard enough that the balanced
// split must move workers there, while keeping the test fast. The injected
// load must dominate the stages' real compute (Doppler's FFTs are the
// largest) with margin: measured service times on a contended CI core are
// noisy, and the tuner's ranking has to survive that noise.
func hardWeightLoad() stageLoad {
	return stageLoad{
		Doppler:    20 * time.Microsecond,
		HardWeight: 2 * time.Millisecond,
		PulseComp:  2 * time.Microsecond,
	}
}

func TestAutoTuneMatchesReference(t *testing.T) {
	// Rebalancing must be correctness-neutral: an autotuned run under a
	// skewed injected load produces exactly the reference chain's
	// detections, and the tuner must actually have rebalanced.
	s := radar.SmallTestScenario()
	cfg := testConfig()
	cfg.AutoTune = &tune.Config{Interval: 2, Warmup: 2, Hysteresis: -1}
	cfg.testLoad = hardWeightLoad()
	const n = 24
	want := referenceDetections(t, cfg.Params, s, n)
	res, err := Run(context.Background(), cfg, ScenarioSource(s), n)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CPIs) != n {
		t.Fatalf("got %d CPI results, want %d", len(res.CPIs), n)
	}
	for k, c := range res.CPIs {
		if !sameDetections(c.Detections, want[k]) {
			t.Errorf("CPI %d: autotuned run diverged from the reference chain", k)
		}
	}
	applied := 0
	for _, d := range res.Stats.TuneDecisions {
		if d.Applied {
			applied++
		}
	}
	if applied == 0 {
		t.Fatalf("no rebalance applied under a skewed load; trace: %+v", res.Stats.TuneDecisions)
	}
	if len(res.Stats.TuneStages) != 7 {
		t.Errorf("TuneStages = %v, want 7 stages", res.Stats.TuneStages)
	}
}

func TestAutoTuneConvergesOnSkew(t *testing.T) {
	// From a cold even split (two workers per task out of 14) the tuner
	// must shift workers toward the dominant stage while conserving the
	// budget. The pipeline streams until that shift shows in the live
	// worker counts — the event — rather than asserting on whatever split
	// a fixed CPI count ends on, which a loaded or race-instrumented host
	// can stretch.
	for _, tc := range []struct {
		name    string
		combine bool
		load    stageLoad
		slot    int // the dominant tuner slot
		slots   int // tuner slots in the design
		cold    int // the dominant slot's workers in the even split
	}{
		{name: "hardweights", load: hardWeightLoad(), slot: tsHardWeight, slots: 7, cold: 2},
		// Combined PC+CFAR design: the merged stage carries ~16ms of
		// injected work per CPI, several times Doppler's real compute even
		// under race instrumentation, and starts with both tasks' workers.
		{name: "pccfar", combine: true, load: stageLoad{
			PulseComp: 200 * time.Microsecond,
			CFAR:      150 * time.Microsecond,
		}, slot: tsPulseComp, slots: 6, cold: 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := radar.SmallTestScenario()
			cfg := testConfig()
			cfg.CombinePCCFAR = tc.combine
			cfg.AutoTune = &tune.Config{Budget: 14, Interval: 2, Warmup: 2, Hysteresis: -1}
			cfg.testLoad = tc.load
			h, err := Stream(context.Background(), cfg, ScenarioSource(s))
			if err != nil {
				t.Fatal(err)
			}
			const maxCPIs = 500
			shiftedAt := -1
			for k := 1; k <= maxCPIs && shiftedAt < 0; k++ {
				if _, ok := <-h.Results; !ok {
					break
				}
				if int(h.r.wcs[tc.slot].Load()) > tc.cold {
					shiftedAt = k
				}
			}
			res, err := h.Stop()
			if err != nil {
				t.Fatal(err)
			}
			if shiftedAt < 0 {
				t.Fatalf("slot %d never gained a worker over %d CPIs; decisions %v", tc.slot, maxCPIs, res.Stats.TuneDecisions)
			}
			final := res.Stats.TuneFinalSplit
			if len(final) != tc.slots {
				t.Fatalf("final split %v, want %d stages", final, tc.slots)
			}
			sum := 0
			for i, w := range final {
				sum += w
				if w < 1 {
					t.Errorf("stage %s ended with %d workers", res.Stats.TuneStages[i], w)
				}
			}
			if sum != 14 {
				t.Errorf("final split %v spends %d workers, budget 14", final, sum)
			}
		})
	}
}

func TestRandomRebalanceScheduleDeterminism(t *testing.T) {
	// A worker-count swap between CPIs must never re-partition a block
	// mid-CPI or skip rows: under arbitrary random swap schedules the
	// detections stay byte-identical to the reference chain.
	s := radar.SmallTestScenario()
	base := testConfig()
	const n = 12
	want := referenceDetections(t, base.Params, s, n)
	for _, combine := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := base
			cfg.CombinePCCFAR = combine
			rng := rand.New(rand.NewSource(seed))
			stages := 7
			if combine {
				stages = 6
			}
			cfg.testOnCPI = func(cpi int, set func(stage, workers int)) {
				set(rng.Intn(stages), 1+rng.Intn(4))
			}
			res, err := Run(context.Background(), cfg, ScenarioSource(s), n)
			if err != nil {
				t.Fatalf("combine=%v seed %d: %v", combine, seed, err)
			}
			if len(res.CPIs) != n {
				t.Fatalf("combine=%v seed %d: %d CPIs, want %d", combine, seed, len(res.CPIs), n)
			}
			for k, c := range res.CPIs {
				if !sameDetections(c.Detections, want[k]) {
					t.Errorf("combine=%v seed %d CPI %d: detections diverged under rebalance schedule", combine, seed, k)
				}
			}
		}
	}
	// The same schedules over banded runs: swaps land between CPIs while
	// band items of the next CPI are already in flight, and the setter's
	// readahead slot resizes the window of band reads.
	for _, band := range []int{1, 7} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := base
			cfg.BandRanges = band
			cfg.SeparateIO = true
			cfg.ReadAhead = 4
			rng := rand.New(rand.NewSource(seed))
			cfg.testOnCPI = func(cpi int, set func(stage, workers int)) {
				set(rng.Intn(8), 1+rng.Intn(4))
			}
			res, err := RunBanded(context.Background(), cfg, scenarioBandSource(t, s), n)
			if err != nil {
				t.Fatalf("band %d seed %d: %v", band, seed, err)
			}
			if len(res.CPIs) != n {
				t.Fatalf("band %d seed %d: %d CPIs, want %d", band, seed, len(res.CPIs), n)
			}
			for k, c := range res.CPIs {
				if !sameDetections(c.Detections, want[k]) {
					t.Errorf("band %d seed %d CPI %d: detections diverged under rebalance schedule", band, seed, k)
				}
			}
		}
	}
}

func TestStageTimeStats(t *testing.T) {
	s := radar.SmallTestScenario()
	cfg := testConfig()
	const n = 6
	res, err := Run(context.Background(), cfg, ScenarioSource(s), n)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats.StageTimes
	if len(st) != 8 {
		t.Fatalf("got %d stage histograms, want 8", len(st))
	}
	for _, h := range st {
		if h.CPIs != n {
			t.Errorf("stage %s histogram has %d CPIs, want %d", h.Name, h.CPIs, n)
		}
		if h.P50 <= 0 || h.P90 <= 0 || h.Max <= 0 {
			t.Errorf("stage %s has non-positive quantiles: %+v", h.Name, h)
		}
		if h.P50 > h.P90 || h.P90 > h.Max {
			t.Errorf("stage %s quantiles not monotone: %+v", h.Name, h)
		}
	}
}

func TestAutoTuneBudgetColdStart(t *testing.T) {
	// AutoTune.Budget overrides Workers with the even split; too small a
	// budget must fail before the pipeline starts.
	s := radar.SmallTestScenario()
	cfg := testConfig()
	cfg.Workers.Doppler = 1 // ignored once Budget is set
	cfg.AutoTune = &tune.Config{Budget: 14, Interval: 4}
	res, err := Run(context.Background(), cfg, ScenarioSource(s), 4)
	if err != nil {
		t.Fatal(err)
	}
	// 4 CPIs = the warmup window exactly: the trace records the warmup
	// baseline (a no-op entry, so quiet runs stay explainable) and nothing
	// else — no measured decision can have fired.
	for _, d := range res.Stats.TuneDecisions {
		if d.Applied || d.Reason != tune.ReasonWarmup {
			t.Errorf("unexpected decision before any window closed: %+v", d)
		}
	}
	cfg.AutoTune = &tune.Config{Budget: 3}
	if _, err := Run(context.Background(), cfg, ScenarioSource(s), 4); err == nil {
		t.Error("budget 3 over 7 tasks should fail validation")
	}
}

func TestDurHistQuantiles(t *testing.T) {
	var h durHist
	for i := 0; i < 90; i++ {
		h.record(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.record(10 * time.Millisecond)
	}
	p50, p90, max := h.quantile(0.5), h.quantile(0.9), time.Duration(h.max.Load())
	if max != 10*time.Millisecond {
		t.Errorf("max = %v", max)
	}
	// Log-bucket estimates are upper bounds within 2x of the true value.
	if p50 < 100*time.Microsecond || p50 > 200*time.Microsecond {
		t.Errorf("p50 = %v, want within [100us, 200us]", p50)
	}
	if p90 < 100*time.Microsecond || p90 > 20*time.Millisecond {
		t.Errorf("p90 = %v out of range", p90)
	}
	if h.quantile(0.999) != max {
		t.Errorf("tail quantile %v should clamp to max %v", h.quantile(0.999), max)
	}
	var empty durHist
	if empty.quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

package pipexec

import (
	"context"
	"errors"
	"testing"
	"time"

	"stapio/internal/cube"
	"stapio/internal/membudget"
	"stapio/internal/pfs"
	"stapio/internal/radar"
	"stapio/internal/stap"
	"stapio/internal/tune"
)

// chunkedKeepStore writes the round-robin dataset in the chunked (v3) format
// and opens a FileSource over it.
func chunkedKeepStore(t *testing.T, s *radar.Scenario, files, chunkSize int) (*pfs.RealFS, *FileSource, []*cube.Cube) {
	t.Helper()
	fs, err := pfs.CreateReal(t.TempDir(), 4, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := radar.WriteDatasetChunked(fs, s, files, files, true, chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewFileSource(fs, s.Dims, files)
	if err != nil {
		t.Fatal(err)
	}
	return fs, src, kept
}

// TestBudgetedRunByteIdentical is the spill-determinism gate: a run under
// the tightest admissible budget (one CPI's residency), with the spill
// tier armed, must produce byte-identical detections to an unlimited run
// at every readahead depth — and its tracked residency must never exceed
// the budget.
func TestBudgetedRunByteIdentical(t *testing.T) {
	s := radar.SmallTestScenario()
	cfg := testConfig()
	const n = 8
	fs, src, _ := chunkedKeepStore(t, s, n, cube.DefaultChunkSize)

	base, err := Run(context.Background(), cfg, src, n)
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.MemHighWater <= 0 {
		t.Fatal("unlimited run reported no high-water residency; accounting is dead")
	}
	if base.Stats.MemLimit != 0 {
		t.Fatalf("unlimited run reports limit %d", base.Stats.MemLimit)
	}

	// 25% of the unlimited peak, floored at the pipeline's admissibility
	// threshold (a small test scenario's peak is only a few CPIs deep).
	budgetBytes := base.Stats.MemHighWater / 4
	if min := MinResidency(&cfg.Params); budgetBytes < min {
		budgetBytes = min
	}
	for _, ra := range []int{1, 2, 4} {
		bcfg := cfg
		bcfg.ReadAhead = ra
		bcfg.MemBudget = membudget.New("test", budgetBytes)
		bcfg.Spill = &SpillConfig{FS: fs}
		res, err := Run(context.Background(), bcfg, src, n)
		if err != nil {
			t.Fatalf("readahead %d: %v", ra, err)
		}
		if len(res.CPIs) != n {
			t.Fatalf("readahead %d: %d CPIs, want %d", ra, len(res.CPIs), n)
		}
		for k := range base.CPIs {
			if !sameDetections(base.CPIs[k].Detections, res.CPIs[k].Detections) {
				t.Errorf("readahead %d, CPI %d: budgeted run diverges from unlimited", ra, k)
			}
		}
		if res.Stats.MemLimit != budgetBytes {
			t.Errorf("readahead %d: reported limit %d, want %d", ra, res.Stats.MemLimit, budgetBytes)
		}
		if res.Stats.MemHighWater > budgetBytes {
			t.Errorf("readahead %d: high water %d exceeds budget %d", ra, res.Stats.MemHighWater, budgetBytes)
		}
	}
}

// TestBudgetedRunNoSpill: the budget must pin residency without the spill
// tier armed too. At the minimum admissible budget (and with deep
// readahead begging for more) the pipeline serializes instead of
// deadlocking: the head read's admission reserves intermediates headroom,
// so the oldest CPI's Doppler charge always stays admissible.
func TestBudgetedRunNoSpill(t *testing.T) {
	s := radar.SmallTestScenario()
	cfg := testConfig()
	const n = 6
	want := referenceDetections(t, cfg.Params, s, n)
	for _, slack := range []int64{0, 4096} {
		for _, ra := range []int{1, 4} {
			bcfg := cfg
			bcfg.ReadAhead = ra
			budgetBytes := MinResidency(&cfg.Params) + slack
			bcfg.MemBudget = membudget.New("test", budgetBytes)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			res, err := Run(ctx, bcfg, ScenarioSource(s), n)
			cancel()
			if err != nil {
				t.Fatalf("slack %d readahead %d: %v", slack, ra, err)
			}
			if len(res.CPIs) != n {
				t.Fatalf("slack %d readahead %d: %d CPIs, want %d (stalled run?)", slack, ra, len(res.CPIs), n)
			}
			for k := range res.CPIs {
				if !sameDetections(res.CPIs[k].Detections, want[k]) {
					t.Errorf("slack %d readahead %d CPI %d: budgeted run diverges", slack, ra, k)
				}
			}
			if res.Stats.MemHighWater > budgetBytes {
				t.Errorf("slack %d readahead %d: high water %d exceeds budget %d",
					slack, ra, res.Stats.MemHighWater, budgetBytes)
			}
		}
	}
}

// TestBandedRunAtMinResidency: a banded run with a deep readahead window
// under exactly BandedMinResidency — with and without the spill tier —
// must complete with byte-identical detections and never exceed the
// budget; the read headroom keeps band prefetch from starving the
// Doppler stage's admissions. A few slabs of slack let prefetched bands
// land, so the spill tier evicts and reloads band slabs too.
func TestBandedRunAtMinResidency(t *testing.T) {
	s := radar.SmallTestScenario()
	cfg := testConfig()
	cfg.BandRanges = 16
	cfg.ReadAhead = 8
	const n = 8
	want := referenceDetections(t, cfg.Params, s, n)
	fs, src, _ := chunkedKeepStore(t, s, n, 256)
	slabB := cfg.Params.Dims.Bytes() / int64(cfg.Params.Dims.Ranges) * int64(cfg.BandRanges)
	for _, c := range []struct {
		slack int64
		spill bool
	}{{0, false}, {0, true}, {4 * slabB, true}} {
		bcfg := cfg
		budgetBytes := BandedMinResidency(&cfg.Params, cfg.BandRanges) + c.slack
		bcfg.MemBudget = membudget.New("test", budgetBytes)
		if c.spill {
			bcfg.Spill = &SpillConfig{FS: fs, ChunkSize: 256}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := RunBanded(ctx, bcfg, src, n)
		cancel()
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if len(res.CPIs) != n {
			t.Fatalf("%+v: %d CPIs, want %d (stalled run?)", c, len(res.CPIs), n)
		}
		for k := range res.CPIs {
			if !sameDetections(res.CPIs[k].Detections, want[k]) {
				t.Errorf("%+v CPI %d: banded budgeted run diverges", c, k)
			}
		}
		if res.Stats.MemHighWater > budgetBytes {
			t.Errorf("%+v: high water %d exceeds budget %d", c, res.Stats.MemHighWater, budgetBytes)
		}
		if inUse := bcfg.MemBudget.InUse(); inUse != 0 {
			t.Errorf("%+v: %d bytes still charged after the run", c, inUse)
		}
		t.Logf("%+v: %d spills, %d reloads", c, res.Stats.Spills, res.Stats.Reloads)
	}
}

// TestSpillerEvictReload pins the eviction machinery deterministically at
// the unit level: a landed, budget-charged cube is evicted under explicit
// pressure — transferring its charge back to the budget and writing a v3
// spill file — and the subsequent Wait transparently re-admits and reloads
// it byte-for-byte.
func TestSpillerEvictReload(t *testing.T) {
	s := radar.SmallTestScenario()
	cfg := testConfig()
	fs, err := pfs.CreateReal(t.TempDir(), 2, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MemBudget = membudget.New("test", 4*MinResidency(&cfg.Params))
	cfg.Spill = &SpillConfig{FS: fs, ChunkSize: 4096}
	r := newRunner(cfg, ScenarioSource(s), 4)
	if err := r.initBudget(); err != nil {
		t.Fatal(err)
	}
	r.ctx = context.Background()

	if err := r.acquireMem(r.cubeB, readPri(0)); err != nil {
		t.Fatal(err)
	}
	r.setCubeCharged(0)
	slot := r.spiller.track(0, r.src.Begin(0, 0))
	deadline := time.Now().Add(5 * time.Second)
	for !slot.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("fetch never landed")
		}
		time.Sleep(time.Millisecond)
	}
	if freed := r.spiller.free(1); freed != r.cubeB {
		t.Fatalf("eviction freed %d bytes, want %d", freed, r.cubeB)
	}
	if got := r.budget.InUse(); got != 0 {
		t.Fatalf("after eviction %d bytes still charged", got)
	}
	if n := r.stats.spills.Load(); n != 1 {
		t.Fatalf("spills counter %d, want 1", n)
	}
	// A second pressure pass finds nothing evictable.
	if freed := r.spiller.free(1); freed != 0 {
		t.Fatalf("second eviction pass freed %d bytes", freed)
	}

	cb, err := slot.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if n := r.stats.reloads.Load(); n != 1 {
		t.Fatalf("reloads counter %d, want 1", n)
	}
	if got := r.budget.InUse(); got != r.cubeB {
		t.Fatalf("reloaded cube charges %d bytes, want %d", got, r.cubeB)
	}
	want, err := s.Generate(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if cb.Data[i] != want.Data[i] {
			t.Fatalf("sample %d: reload %v, original %v", i, cb.Data[i], want.Data[i])
		}
	}
	if !r.releaseCubeCharge(0) {
		t.Fatal("reload did not re-register the cube charge")
	}
}

// TestSpillUnderBackpressure drives eviction end to end: a deliberately
// slow CFAR stage holds each CPI's beam slab for milliseconds, so the next
// CPI's Doppler admission blocks while freshly landed prefetches sit in
// the window — the spill tier must evict some of them, reload them when
// consumed, and the detections must stay identical to the sequential
// reference.
func TestSpillUnderBackpressure(t *testing.T) {
	s := radar.SmallTestScenario()
	cfg := testConfig()
	cubeB, dopB, beamB := MemCosts(&cfg.Params)
	// Six cubes + one CPI's intermediates. The delivery chain holds three
	// deregistered cubes (Doppler's hand, the stage channel buffer, the
	// read stage's hand), so a six-cube window keeps landed prefetches in
	// the spillable map; while CFAR k-1 sleeps on its beam slab, Doppler
	// k's admission cannot fit and pressure must evict from the tail.
	budgetBytes := 6*cubeB + dopB + beamB
	cfg.MemBudget = membudget.New("test", budgetBytes)
	cfg.ReadAhead = 8
	cfg.testLoad = stageLoad{CFAR: 100 * time.Microsecond}
	fs, err := pfs.CreateReal(t.TempDir(), 2, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Spill = &SpillConfig{FS: fs, ChunkSize: 4096}

	const n = 12
	want := referenceDetections(t, cfg.Params, s, n)
	res, err := Run(context.Background(), cfg, ScenarioSource(s), n)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]stap.Detection, 0, n)
	for _, c := range res.CPIs {
		got = append(got, c.Detections)
	}
	if res.Stats.Spills == 0 {
		t.Fatalf("no spill occurred under backpressure (budget %d)", budgetBytes)
	}
	if res.Stats.Reloads == 0 {
		t.Error("spilled cubes were never reloaded")
	}
	if res.Stats.SpillBytes <= 0 || res.Stats.ReloadBytes <= 0 {
		t.Errorf("spill byte counters dead: spill=%d reload=%d", res.Stats.SpillBytes, res.Stats.ReloadBytes)
	}
	if res.Stats.MemHighWater > budgetBytes {
		t.Errorf("high water %d exceeds budget %d", res.Stats.MemHighWater, budgetBytes)
	}
	if len(got) != n {
		t.Fatalf("drained %d CPIs, want %d", len(got), n)
	}
	for k := range got {
		if !sameDetections(got[k], want[k]) {
			t.Errorf("CPI %d: spilled run diverges from reference", k)
		}
	}
}

// TestBudgetBelowMinResidencyRejected pins the typed refusal: a budget the
// full-cube pipeline cannot fit in fails fast with ErrBudgetExceeded and
// points at the banded executor.
func TestBudgetBelowMinResidencyRejected(t *testing.T) {
	cfg := testConfig()
	cfg.MemBudget = membudget.New("tiny", MinResidency(&cfg.Params)-1)
	_, err := Run(context.Background(), cfg, ScenarioSource(radar.SmallTestScenario()), 2)
	if !errors.Is(err, membudget.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}

// TestBudgetCapsAutoTuner: with a budget that admits at most two resident
// cubes, the tuner must never be offered (nor end on) a deeper readahead
// window, however attractive the slow store makes prefetch.
func TestBudgetCapsAutoTuner(t *testing.T) {
	s := radar.SmallTestScenario()
	_, src := slowStore(t, s, 2*time.Millisecond)
	cfg := testConfig()
	cfg.SeparateIO = true
	cfg.ReadAhead = 1
	cfg.DecodeWorkers = 1
	cfg.AutoTune = &tune.Config{Budget: 12, Interval: 2, Warmup: 2, Hysteresis: -1}
	cubeB, _, _ := MemCosts(&cfg.Params)
	cfg.MemBudget = membudget.New("test", MinResidency(&cfg.Params)+cubeB)
	const maxRA = 2 // (limit - MinResidency)/cubeB + 1

	res, err := Run(context.Background(), cfg, src, 48)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FinalReadAhead > maxRA {
		t.Errorf("tuner grew readahead to %d past the budget cap %d", res.Stats.FinalReadAhead, maxRA)
	}
	if res.Stats.FinalDecodeWorkers > maxRA {
		t.Errorf("tuner grew decode workers to %d past the budget cap %d", res.Stats.FinalDecodeWorkers, maxRA)
	}
}

// TestMemChargesMatchSlabsAndPaperVolumes ties the budget's Doppler
// charge to the slab stap actually allocates and to the paper's
// Doppler-to-beamforming volume (e·R·C + h·R·K·C samples: complex128 in
// memory, complex64 on the wire), at the ledger's three geometries — so
// the high-water counter means "bytes of live slabs".
func TestMemChargesMatchSlabsAndPaperVolumes(t *testing.T) {
	for _, g := range []struct {
		s    *radar.Scenario
		band int
	}{
		{radar.PaperScenario(), 0},
		{radar.SmallTestScenario(), 0},
		{&radar.Scenario{Dims: cube.Dims{Channels: 8, Pulses: 65, Ranges: 512}, PulseLen: 16, Bandwidth: 0.85}, 64},
	} {
		p := stap.DefaultParams(g.s.Dims)
		p.PulseLen = g.s.PulseLen
		p.Bandwidth = g.s.Bandwidth
		cubeB, dopB, beamB := MemCosts(&p)
		if slab := 16 * int64(len(stap.NewDopplerCube(&p).Data)); dopB != slab {
			t.Errorf("%v: Doppler charge %d B, slab %d B", p.Dims, dopB, slab)
		}
		perGate := BandedMinResidency(&p, 1) - beamB - cubeB/int64(p.Dims.Ranges)
		if slab := 16 * int64(len(stap.NewDopplerCubeBand(&p, 1).Data)); perGate != slab {
			t.Errorf("%v: per-gate Doppler residency %d B, one-gate slab %d B", p.Dims, perGate, slab)
		}
		if g.band > 0 {
			want := beamB + cubeB/int64(p.Dims.Ranges)*int64(g.band) + 16*int64(len(stap.NewDopplerCubeBand(&p, g.band).Data))
			if got := BandedMinResidency(&p, g.band); got != want {
				t.Errorf("%v: band-%d residency %d B, slabs %d B", p.Dims, g.band, got, want)
			}
		}
		w := stap.ComputeWorkloads(&p)
		if paper := int64(2 * (w.DopplerToBF[0] + w.DopplerToBF[1])); dopB != paper {
			t.Errorf("%v: Doppler charge %d B, paper volume 2·DopplerToBF = %d B", p.Dims, dopB, paper)
		}
	}
}

package pipexec

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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

// TestBudgetedRunByteIdentical is the eviction-determinism gate: a run
// under a tight budget (¼ of the unlimited peak, floored at one CPI's
// residency), evicting landed prefetches to the store under pressure, must
// produce byte-identical detections to an unlimited run at every readahead
// depth — and its tracked residency must never exceed the budget.
func TestBudgetedRunByteIdentical(t *testing.T) {
	s := radar.SmallTestScenario()
	cfg := testConfig()
	const n = 8
	_, src, _ := chunkedKeepStore(t, s, n, cube.DefaultChunkSize)

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

// heldSource hides its source's Refetchable, so a budgeted run over it
// cannot evict.
type heldSource struct{ CubeSource }

func (heldSource) Refetchable() bool { return false }

// TestBudgetedRunNoSpill: the budget must pin residency without eviction
// too. At the minimum admissible budget (and with deep readahead begging
// for more) the pipeline serializes instead of deadlocking: the head
// read's admission reserves intermediates headroom, so the oldest CPI's
// Doppler charge always stays admissible.
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
			res, err := Run(ctx, bcfg, heldSource{ScenarioSource(s)}, n)
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
// under exactly BandedMinResidency must complete with byte-identical
// detections and never exceed the budget; the read headroom keeps band
// prefetch from starving the Doppler stage's admissions. A few slabs of
// slack let prefetched bands land, so eviction to the store hits band
// slabs too.
func TestBandedRunAtMinResidency(t *testing.T) {
	s := radar.SmallTestScenario()
	cfg := testConfig()
	cfg.BandRanges = 16
	cfg.ReadAhead = 8
	const n = 8
	want := referenceDetections(t, cfg.Params, s, n)
	_, src, _ := chunkedKeepStore(t, s, n, 256)
	slabB := cfg.Params.Dims.Bytes() / int64(cfg.Params.Dims.Ranges) * int64(cfg.BandRanges)
	for _, slack := range []int64{0, 4 * slabB} {
		bcfg := cfg
		budgetBytes := BandedMinResidency(&cfg.Params, cfg.BandRanges) + slack
		bcfg.MemBudget = membudget.New("test", budgetBytes)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := RunBanded(ctx, bcfg, src, n)
		cancel()
		if err != nil {
			t.Fatalf("slack %d: %v", slack, err)
		}
		if len(res.CPIs) != n {
			t.Fatalf("slack %d: %d CPIs, want %d (stalled run?)", slack, len(res.CPIs), n)
		}
		for k := range res.CPIs {
			if !sameDetections(res.CPIs[k].Detections, want[k]) {
				t.Errorf("slack %d CPI %d: banded budgeted run diverges", slack, k)
			}
		}
		if res.Stats.MemHighWater > budgetBytes {
			t.Errorf("slack %d: high water %d exceeds budget %d", slack, res.Stats.MemHighWater, budgetBytes)
		}
		if inUse := bcfg.MemBudget.InUse(); inUse != 0 {
			t.Errorf("slack %d: %d bytes still charged after the run", slack, inUse)
		}
		t.Logf("slack %d: %d evictions, %d bytes re-fetched", slack, res.Stats.Evictions, res.Stats.RefetchBytes)
	}
}

// TestEvictRefetch pins eviction to the source at the unit level: a
// landed, budget-charged readahead item is evicted under explicit
// pressure, handing its whole charge back, and its re-fetch at the window
// head takes the charge again and delivers the same bytes.
func TestEvictRefetch(t *testing.T) {
	s := radar.SmallTestScenario()
	cfg := testConfig()
	_, src, kept := chunkedKeepStore(t, s, 2, 4096)
	cfg.MemBudget = membudget.New("test", 4*MinResidency(&cfg.Params))
	r := newRunner(cfg, src, 2)
	if err := r.initBudget(); err != nil {
		t.Fatal(err)
	}
	r.ctx = context.Background()

	if err := r.acquireMem(r.cubeB, readPri(0)); err != nil {
		t.Fatal(err)
	}
	r.setCubeCharged(0)
	r.window = append(r.window, raSlot{item: 0, pend: r.src.Begin(0, 0)})
	deadline := time.Now().Add(5 * time.Second)
	for !r.window[0].pend.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("fetch never landed")
		}
		time.Sleep(time.Millisecond)
	}
	if freed := r.evict(1); freed != r.cubeB {
		t.Fatalf("eviction freed %d bytes, want %d", freed, r.cubeB)
	}
	if got := r.budget.InUse(); got != 0 {
		t.Fatalf("after eviction %d bytes still charged", got)
	}
	if n := r.stats.evictions.Load(); n != 1 {
		t.Fatalf("evictions counter %d, want 1", n)
	}
	// A second pressure pass finds nothing evictable.
	if freed := r.evict(1); freed != 0 {
		t.Fatalf("second eviction pass freed %d bytes", freed)
	}

	head := r.popHead()
	if !head.evicted {
		t.Fatal("window head not marked evicted")
	}
	if err := r.refetch(&head, 0); err != nil {
		t.Fatal(err)
	}
	cb, err := head.pend.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.budget.InUse(); got != r.cubeB {
		t.Fatalf("re-fetched cube charges %d bytes, want %d", got, r.cubeB)
	}
	if got := r.stats.refetchBytes.Load(); got != r.cubeB {
		t.Fatalf("refetch bytes %d, want %d", got, r.cubeB)
	}
	for i := range kept[0].Data {
		if cb.Data[i] != kept[0].Data[i] {
			t.Fatalf("sample %d: re-fetch %v, original %v", i, cb.Data[i], kept[0].Data[i])
		}
	}
	if r.releaseCubeCharge(0) != r.cubeB {
		t.Fatal("re-fetch did not re-register the cube charge")
	}
}

// TestEvictionUnderBackpressure drives eviction end to end. A slow CFAR
// stage holds each CPI's beam cube, so the next CPI's Doppler admission
// blocks while prefetched cubes sit in the window; a landingSource's
// fetches land at Begin, so the pressure handler finds them landed, and
// they are re-fetched at the head with detections identical to the
// sequential reference. A StreamSource cannot fetch a cube again: the
// same pressure on a budgeted Stream evicts nothing, and the stream still
// completes.
func TestEvictionUnderBackpressure(t *testing.T) {
	s := radar.SmallTestScenario()
	cfg := testConfig()
	cubeB, dopB, beamB := MemCosts(&cfg.Params)
	budgetBytes := 6*cubeB + dopB + beamB
	cfg.ReadAhead = 8
	cfg.testLoad = stageLoad{CFAR: 100 * time.Microsecond}
	const n = 12
	want := referenceDetections(t, cfg.Params, s, n)
	check := func(name string, got []CPIResult, st RunStats) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("%s: %d CPIs, want %d", name, len(got), n)
		}
		for _, c := range got {
			if !sameDetections(c.Detections, want[c.Seq]) {
				t.Errorf("%s CPI %d: diverges from reference", name, c.Seq)
			}
		}
		if st.MemHighWater > budgetBytes {
			t.Errorf("%s: high water %d exceeds budget %d", name, st.MemHighWater, budgetBytes)
		}
	}

	cfg.MemBudget = membudget.New("run", budgetBytes)
	res, err := Run(context.Background(), cfg, &landingSource{s: s, landed: true}, n)
	if err != nil {
		t.Fatal(err)
	}
	check("run", res.CPIs, res.Stats)
	if res.Stats.Evictions == 0 || res.Stats.RefetchBytes <= 0 {
		t.Errorf("no eviction under backpressure (budget %d): evictions=%d refetch=%d",
			budgetBytes, res.Stats.Evictions, res.Stats.RefetchBytes)
	}

	cfg.MemBudget = membudget.New("stream", budgetBytes)
	gen := NewGeneratorSource(s.Dims, cfg.ReadAhead+1, s.Generate)
	defer gen.Close()
	h, err := Stream(context.Background(), cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]CPIResult, 0, n)
	for len(got) < n {
		c, ok := <-h.Results
		if !ok {
			t.Fatal("results channel closed early")
		}
		got = append(got, c)
	}
	sres, err := h.Stop()
	if err != nil {
		t.Fatal(err)
	}
	check("stream", got, sres.Stats)
	if sres.Stats.Evictions != 0 || sres.Stats.RefetchBytes != 0 {
		t.Errorf("stream source evicted: evictions=%d refetch=%d", sres.Stats.Evictions, sres.Stats.RefetchBytes)
	}
}

// storeFiles lists every file under a striped store's root with its size.
func storeFiles(t *testing.T, root string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		out = append(out, fmt.Sprintf("%s %d", path, info.Size()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEvictionKeepsFaultOutcomes pins the fault rule of eviction: a
// re-fetch replays the attempt-0 fetch that landed, so under a fault plan
// a budgeted run that evicts drops exactly the CPIs an unbudgeted run
// drops and detects the same, whole cubes and bands alike, and it writes
// nothing to the store. Both I/O designs run the same read driver, so the
// separate design's runs must match the embedded ones too.
func TestEvictionKeepsFaultOutcomes(t *testing.T) {
	s := radar.SmallTestScenario()
	const n = 16
	root := t.TempDir()
	fs, err := pfs.CreateReal(root, 4, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := radar.WriteDatasetChunked(fs, s, n, n, false, 256); err != nil {
		t.Fatal(err)
	}
	src, err := NewFileSource(fs, s.Dims, n)
	if err != nil {
		t.Fatal(err)
	}
	files := storeFiles(t, root)
	// A band read is dozens of striped reads, so bands see a lower rate.
	for _, c := range []struct {
		band int
		fail float64
	}{{0, 0.15}, {16, 0.005}} {
		band := c.band
		cfg := testConfig()
		cfg.BandRanges = band
		cfg.ReadAhead = 8
		cfg.Retry = RetryPolicy{MaxAttempts: 2, BaseBackoff: 50 * time.Microsecond, MaxBackoff: time.Millisecond}
		cfg.Degrade = DegradeSkipCPI
		cfg.testLoad = stageLoad{CFAR: 100 * time.Microsecond}
		run := func(b *membudget.Budget, separate bool) *Result {
			t.Helper()
			fs.SetFaults(&pfs.FaultPlan{Seed: 2, FailRate: c.fail, CorruptRate: 0.02})
			c := cfg
			c.MemBudget = b
			c.SeparateIO = separate
			var res *Result
			var err error
			if band == 0 {
				res, err = Run(context.Background(), c, src, n)
			} else {
				res, err = RunBanded(context.Background(), c, src, n)
			}
			if err != nil {
				t.Fatalf("band %d separate %v: %v", band, separate, err)
			}
			return res
		}
		same := func(label string, got, want *Result) {
			t.Helper()
			if !slices.Equal(want.Stats.DroppedSeqs, got.Stats.DroppedSeqs) {
				t.Errorf("band %d: dropped %v %s, %v embedded without eviction", band, got.Stats.DroppedSeqs, label, want.Stats.DroppedSeqs)
			}
			if len(want.CPIs) != len(got.CPIs) {
				t.Fatalf("band %d: %d CPIs %s, %d embedded without eviction", band, len(got.CPIs), label, len(want.CPIs))
			}
			for k := range want.CPIs {
				if want.CPIs[k].Seq != got.CPIs[k].Seq || !sameDetections(want.CPIs[k].Detections, got.CPIs[k].Detections) {
					t.Errorf("band %d CPI %d: detections differ %s", band, want.CPIs[k].Seq, label)
				}
			}
		}
		slabB := cfg.Params.Dims.Bytes() / int64(cfg.Params.Dims.Ranges) * int64(newBands(s.Dims.Ranges, band).band)
		limit := BandedMinResidency(&cfg.Params, band) + 10*slabB
		free := run(nil, false)
		if len(free.Stats.DroppedSeqs) == 0 {
			t.Errorf("band %d: the fault plan dropped no CPI", band)
		}
		for _, separate := range []bool{false, true} {
			design := "embedded"
			if separate {
				design = "separate"
				same("separate without eviction", run(nil, true), free)
			}
			tight := run(membudget.New("tight", limit), separate)
			if tight.Stats.Evictions == 0 {
				t.Errorf("band %d: budgeted %s run never evicted", band, design)
			}
			same(design+" with eviction", tight, free)
		}
	}
	if got := storeFiles(t, root); !slices.Equal(files, got) {
		t.Errorf("the store changed during the runs:\nbefore %v\nafter  %v", files, got)
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

package pipexec

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"stapio/internal/cube"
	"stapio/internal/pfs"
	"stapio/internal/radar"
	"stapio/internal/tune"
)

// slowStore writes the round-robin dataset to a striped store whose every
// read carries an injected latency — the I/O-bound regime where prefetch
// depth, not compute workers, decides throughput.
func slowStore(t *testing.T, s *radar.Scenario, delay time.Duration) (*pfs.RealFS, *FileSource) {
	t.Helper()
	fs, err := pfs.CreateReal(t.TempDir(), 4, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := radar.WriteDataset(fs, s, radar.DefaultFileCount, radar.DefaultFileCount, false); err != nil {
		t.Fatal(err)
	}
	fs.SetFaults(&pfs.FaultPlan{Seed: 1, SlowRate: 1, SlowDelay: delay})
	src, err := NewFileSource(fs, s.Dims, radar.DefaultFileCount)
	if err != nil {
		t.Fatal(err)
	}
	return fs, src
}

// TestAutoTuneGrowsReadaheadOnSlowStore is the tentpole's end-to-end
// check: against a slow store, an autotuned run starting from a cold
// ReadAhead=1, DecodeWorkers=1 frontend must measure the read path as the
// bottleneck, make at least one I/O rebalance decision (growing the
// prefetch window out of the shared budget), and still deliver detections
// byte-identical to an untuned run off the same store.
func TestAutoTuneGrowsReadaheadOnSlowStore(t *testing.T) {
	s := radar.SmallTestScenario()
	// The store must stay the bottleneck, or the tuner rightly hands the
	// window's slots back to compute. Race instrumentation inflates
	// Doppler's per-CPI compute several-fold (~8ms on a 2-vCPU host), past
	// a 3ms read, so the race build gets a store slower than that.
	delay := 3 * time.Millisecond
	if raceEnabled {
		delay = 30 * time.Millisecond
	}
	_, src := slowStore(t, s, delay)
	cfg := testConfig()
	cfg.SeparateIO = true
	cfg.ReadAhead = 1
	cfg.DecodeWorkers = 1
	const n = 48

	base, err := Run(context.Background(), cfg, src, n)
	if err != nil {
		t.Fatal(err)
	}

	cfg.AutoTune = &tune.Config{Budget: 12, Interval: 2, Warmup: 2, Hysteresis: -1}
	res, err := Run(context.Background(), cfg, src, n)
	if err != nil {
		t.Fatal(err)
	}

	// The solve spans nine slots: seven compute stages plus the frontend.
	names := res.Stats.TuneStages
	if len(names) != numTunable+2 {
		t.Fatalf("TuneStages = %v, want %d compute + 2 I/O slots", names, numTunable)
	}
	if names[numTunable] != "src read" || names[numTunable+1] != "src decode" {
		t.Fatalf("I/O slots missing from the solve: %v", names)
	}

	// At least one applied decision must have moved an I/O knob.
	ioRebalances := 0
	for _, d := range res.Stats.TuneDecisions {
		if !d.Applied {
			continue
		}
		for i := numTunable; i < len(d.New); i++ {
			if d.New[i] != d.Old[i] {
				ioRebalances++
				break
			}
		}
	}
	if ioRebalances == 0 {
		t.Errorf("slow store never triggered an I/O rebalance; trace: %+v", res.Stats.TuneDecisions)
	}
	if res.Stats.FinalReadAhead <= 1 {
		t.Errorf("tuner left the readahead window at %d against a %v store", res.Stats.FinalReadAhead, delay)
	}

	// The budget is conserved across compute and I/O slots.
	sum := 0
	for _, w := range res.Stats.TuneFinalSplit {
		sum += w
	}
	if sum != 12 {
		t.Errorf("final split %v spends %d slots, budget 12", res.Stats.TuneFinalSplit, sum)
	}

	// Rebalancing the frontend is correctness-neutral.
	if len(res.CPIs) != n {
		t.Fatalf("got %d CPIs, want %d", len(res.CPIs), n)
	}
	for k := range res.CPIs {
		if !sameDetections(res.CPIs[k].Detections, base.CPIs[k].Detections) {
			t.Errorf("CPI %d: autotuned I/O run diverged from the untuned baseline", k)
		}
	}
}

// landingSource serves scenario cubes whose fetches land on the test's
// terms instead of a store's timing: with landed set a fetch is complete
// before Begin returns; otherwise it lands only once the pipeline waits on
// it, so the window head is never ready when the read stage checks.
type landingSource struct {
	NoFrontend
	s      *radar.Scenario
	landed bool
}

// landingPending is a landingSource fetch.
type landingPending struct {
	s     *radar.Scenario
	seq   uint64
	ready bool
	cb    *cube.Cube
	err   error
}

func (p *landingPending) Ready() bool { return p.ready }

func (p *landingPending) Wait() (*cube.Cube, error) {
	if !p.ready {
		p.cb, p.err = p.s.Generate(p.seq)
	}
	return p.cb, p.err
}

func (l *landingSource) Begin(seq uint64, attempt int) PendingCube {
	p := &landingPending{s: l.s, seq: seq, ready: l.landed}
	if l.landed {
		p.cb, p.err = l.s.Generate(seq)
	}
	return p
}

func (l *landingSource) Recycle(*cube.Cube) {}

func (l *landingSource) Refetchable() bool { return true }

// TestSourceStallObservability: the stall counters and the occupancy
// gauge follow the fetches' landing events, not wall-clock luck. A window
// whose head never lands before the pipeline asks stalls on every CPI; a
// depth-8 window of fetches that land at issue never stalls and shows the
// whole window landed. A slow-store run then checks that the frontend
// clocks count every fetch.
func TestSourceStallObservability(t *testing.T) {
	s := radar.SmallTestScenario()
	cfg := testConfig()
	cfg.SeparateIO = true
	cfg.ReadAhead = 1
	const n = 24

	shallow, err := Run(context.Background(), cfg, &landingSource{s: s}, n)
	if err != nil {
		t.Fatal(err)
	}
	if st := shallow.Stats; st.SourceStalls != n || st.ReadaheadReady != 0 {
		t.Errorf("unlanded heads: %d stalls at occupancy %.2f, want %d at 0", st.SourceStalls, st.ReadaheadReady, n)
	}
	if shallow.Stats.SourceStall <= 0 {
		t.Error("stalled run reports zero source-stall time")
	}
	if shallow.Stats.FinalReadAhead != 1 || shallow.Stats.FinalDecodeWorkers != 1 {
		t.Errorf("untuned run must end on its configured knobs, got readahead=%d decode=%d",
			shallow.Stats.FinalReadAhead, shallow.Stats.FinalDecodeWorkers)
	}

	cfg.ReadAhead = 8
	deep, err := Run(context.Background(), cfg, &landingSource{s: s, landed: true}, n)
	if err != nil {
		t.Fatal(err)
	}
	// At CPI k the window holds every issued fetch up to k+8, all landed.
	var occ float64
	for k := 0; k < n; k++ {
		occ += float64(min(k+cfg.ReadAhead+1, n) - k)
	}
	if st := deep.Stats; st.SourceStalls != 0 || st.ReadaheadReady != occ/n {
		t.Errorf("landed window: %d stalls at occupancy %.3f, want 0 at %.3f", st.SourceStalls, st.ReadaheadReady, occ/n)
	}

	// The frontend clocks surface through StageTimes like compute stages.
	_, src := slowStore(t, s, 2*time.Millisecond)
	slow, err := Run(context.Background(), cfg, src, n)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]int64{}
	for _, st := range slow.Stats.StageTimes {
		found[st.Name] = st.CPIs
	}
	if found["src read"] < int64(n) || found["src decode"] < int64(n) {
		t.Errorf("frontend stage clocks missing or undercounting: %v", found)
	}
}

// TestRandomIOKnobScheduleDeterminism extends the rebalance-determinism
// guarantee to the I/O knobs: arbitrary live readahead-depth and
// decode-worker swaps (the seam slots after the compute stages) must never
// reorder CPIs or change a detection.
func TestRandomIOKnobScheduleDeterminism(t *testing.T) {
	s := radar.SmallTestScenario()
	fs, err := pfs.CreateReal(t.TempDir(), 4, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := radar.WriteDataset(fs, s, radar.DefaultFileCount, radar.DefaultFileCount, false); err != nil {
		t.Fatal(err)
	}
	src, err := NewFileSource(fs, s.Dims, radar.DefaultFileCount)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.SeparateIO = true
	const n = 16

	base, err := Run(context.Background(), cfg, src, n)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		vcfg := cfg
		rng := rand.New(rand.NewSource(seed))
		vcfg.testOnCPI = func(cpi int, set func(stage, workers int)) {
			set(numTunable, 1+rng.Intn(6))   // readahead depth
			set(numTunable+1, 1+rng.Intn(4)) // decode workers
		}
		res, err := Run(context.Background(), vcfg, src, n)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.CPIs) != n {
			t.Fatalf("seed %d: %d CPIs, want %d", seed, len(res.CPIs), n)
		}
		for k := range res.CPIs {
			if res.CPIs[k].Seq != base.CPIs[k].Seq {
				t.Fatalf("seed %d: CPI order diverged at %d", seed, k)
			}
			if !sameDetections(res.CPIs[k].Detections, base.CPIs[k].Detections) {
				t.Errorf("seed %d CPI %d: detections diverged under I/O knob schedule", seed, k)
			}
		}
	}
}

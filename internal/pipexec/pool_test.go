package pipexec

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"stapio/internal/cube"
	"stapio/internal/pfs"
	"stapio/internal/radar"
)

// The pools must turn per-CPI allocation of the big intermediates — read
// buffers, decoded cubes, Doppler cubes, beam cubes — into steady-state
// reuse: the number of buffers ever built ("news") is bounded by how many
// CPIs the pipeline holds in flight, not by how many it processes. Run far
// more CPIs than the pipeline depth and pin that bound.
func TestPoolsBoundedByPipelineDepth(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items deliberately under the race detector; the news bound holds only without it")
	}
	s := radar.SmallTestScenario()
	fs, err := pfs.CreateReal(t.TempDir(), 4, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	const files = 4
	if _, err := radar.WriteDataset(fs, s, files, files, false); err != nil {
		t.Fatal(err)
	}
	src, err := NewFileSource(fs, s.Dims, files)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()

	const cpis = 64
	h, err := Stream(context.Background(), cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cpis; i++ {
		if _, ok := <-h.Results; !ok {
			t.Fatal("results channel closed early")
		}
	}
	if _, err := h.Stop(); err != nil {
		t.Fatal(err)
	}

	// The in-flight bound: every channel slot plus every stage actively
	// holding a CPI. At channel depth 1 that is well under 20; the point is
	// that it does not scale with the 64 CPIs completed.
	const bound = 20
	doppler := h.r.pools.dopplerNews.Load()
	beam := h.r.pools.beamNews.Load()
	bufs, cubes := src.PoolNews()
	for _, c := range []struct {
		name string
		news int64
	}{
		{"doppler cubes", doppler},
		{"beam cubes", beam},
		{"read buffers", bufs},
		{"decoded cubes", cubes},
	} {
		if c.news < 1 {
			t.Errorf("%s: pool never allocated, expected at least one", c.name)
		}
		if c.news > bound {
			t.Errorf("%s: %d allocated over %d CPIs, want <= %d (per-CPI allocation has crept back in)",
				c.name, c.news, cpis, bound)
		}
	}
}

// Dropped CPIs must recycle their read buffers rather than leak them: under
// a skip policy with injected read faults, buffer news stays bounded even
// though many reads fail and retry.
// A source's pools outlive one Run: a service restarting its pipeline over
// the same source must neither re-allocate the working set per restart nor
// hand one pooled cube to two runs at once. The news bound pins the first;
// identical detections across restarts pin the second — a double-returned
// cube would be overwritten mid-flight and change what CFAR sees.
func TestPoolsBoundedAcrossBackToBackRuns(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items deliberately under the race detector; the news bound holds only without it")
	}
	s := radar.SmallTestScenario()
	fs, err := pfs.CreateReal(t.TempDir(), 4, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	const files = 4
	if _, err := radar.WriteDataset(fs, s, files, files, false); err != nil {
		t.Fatal(err)
	}
	src, err := NewFileSource(fs, s.Dims, files)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()

	const rounds, cpis = 6, 8
	var first []CPIResult
	for round := 0; round < rounds; round++ {
		res, err := Run(context.Background(), cfg, src, cpis)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(res.CPIs) != cpis {
			t.Fatalf("round %d: %d CPIs, want %d", round, len(res.CPIs), cpis)
		}
		if round == 0 {
			first = res.CPIs
			continue
		}
		for i := range res.CPIs {
			if !sameDetections(res.CPIs[i].Detections, first[i].Detections) {
				t.Errorf("round %d CPI %d: detections diverge from round 0 (pooled cube shared across runs?)",
					round, i)
			}
		}
	}
	bufs, cubes := src.PoolNews()
	// The bound covers one run's in-flight depth, not rounds * depth.
	const bound = 20
	if bufs > bound || cubes > bound {
		t.Errorf("source pools: %d buffers, %d cubes allocated over %d back-to-back runs, want <= %d each",
			bufs, cubes, rounds, bound)
	}
}

func TestPoolsRecycleOnDrops(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items deliberately under the race detector; the news bound holds only without it")
	}
	s := radar.SmallTestScenario()
	fs, err := pfs.CreateReal(t.TempDir(), 4, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	const files = 4
	if _, err := radar.WriteDataset(fs, s, files, files, false); err != nil {
		t.Fatal(err)
	}
	fs.SetFaults(&pfs.FaultPlan{Seed: 7, FailRate: 0.3})
	src, err := NewFileSource(fs, s.Dims, files)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Degrade = DegradeSkipCPI
	cfg.Retry = RetryPolicy{MaxAttempts: 2}

	const cpis = 48
	res, err := Run(context.Background(), cfg, src, cpis)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Retries == 0 {
		t.Fatal("fault plan injected no retries; the test exercises nothing")
	}
	bufs, _ := src.PoolNews()
	// Every attempt (first tries and retries) leases a buffer and must give
	// it back when the read resolves; the news count is therefore bounded
	// by concurrent reads, not by the attempt count.
	const bound = 20
	if bufs > bound {
		t.Errorf("read buffers: %d allocated across %d CPIs with faults, want <= %d (drop/retry paths leak buffers)",
			bufs, cpis, bound)
	}
}

// Weight sets circulate between each weight stage and its beamforming
// stage: the beamformer hands back the set it replaces, and the weight
// stage solves the next CPI into it. Over a long run the sets ever built
// stay within the weight channel's depth — also when solves fail and
// DegradeLastGoodWeights copies the last good set into a recycled one, and
// when a random schedule changes the worker counts between CPIs. The
// detections must match a fixed-worker run over the same poisoned input,
// so a set handed back while still in use would show up as a diff.
func TestWeightSetsRecycledUnderFallbackAndRebalance(t *testing.T) {
	s := radar.SmallTestScenario()
	poisoned := &MemSource{Generate: func(seq uint64) (*cube.Cube, error) {
		cb, err := s.Generate(seq)
		if err != nil {
			return nil, err
		}
		if seq%7 == 3 {
			nan := float32(math.NaN())
			for i := range cb.Data {
				cb.Data[i] = complex(nan, nan)
			}
		}
		return cb, nil
	}}
	const cpis = 48
	cfg := testConfig()
	cfg.Degrade = DegradeLastGoodWeights
	want, err := Run(context.Background(), cfg, poisoned, cpis)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(5))
	cfg.testOnCPI = func(cpi int, set func(stage, workers int)) {
		set(rng.Intn(7), 1+rng.Intn(4))
	}
	h, err := Stream(context.Background(), cfg, poisoned)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]CPIResult, cpis)
	for i := range got {
		res, ok := <-h.Results
		if !ok {
			t.Fatal("results channel closed early")
		}
		got[i] = res
	}
	res, err := h.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if fb := res.Stats.WeightFallbacks; fb < 2*(cpis/7) {
		t.Errorf("%d weight fallbacks, want at least %d (two per poisoned CPI)", fb, 2*(cpis/7))
	}
	for i, c := range got {
		if c.Seq != want.CPIs[i].Seq || !sameDetections(c.Detections, want.CPIs[i].Detections) {
			t.Errorf("CPI %d: detections diverge from the fixed-worker run", i)
		}
	}
	// Channel slots (chanDepth+1), the set being solved and the set being
	// beamformed with; the initial conventional set joins the circulation.
	bound := int64(chanDepth + 3)
	for _, wp := range []*weightPool{h.r.pools.easyW, h.r.pools.hardW} {
		if n := wp.news.Load(); n < 1 || n > bound {
			t.Errorf("%d weight sets built over %d CPIs, want 1..%d", n, cpis, bound)
		}
	}
}

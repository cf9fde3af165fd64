package pipexec

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"stapio/internal/cube"
	"stapio/internal/membudget"
	"stapio/internal/pfs"
	"stapio/internal/radar"
	"stapio/internal/stap"
)

// fastRetry keeps test retries from sleeping noticeably.
var fastRetry = RetryPolicy{MaxAttempts: 6, BaseBackoff: 50 * time.Microsecond, MaxBackoff: time.Millisecond}

// faultedStore writes the round-robin dataset to a fresh striped store and
// returns the store plus a source over it.
func faultedStore(t *testing.T, s *radar.Scenario) (*pfs.RealFS, *FileSource) {
	t.Helper()
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
	return fs, src
}

func TestFaultedRunSkipCPIMatchesCleanRun(t *testing.T) {
	// The acceptance scenario: a 32-CPI run off the striped store with 5%
	// per-stripe read failures and injected payload corruption, under the
	// skip-CPI policy with enough retry budget that every CPI eventually
	// reads clean. The run must complete, report exact (reproducible)
	// retry and checksum counters, and produce detections identical to the
	// fault-free run for every delivered CPI.
	s := radar.SmallTestScenario()
	fs, src := faultedStore(t, s)
	cfg := testConfig()
	cfg.Retry = fastRetry
	cfg.Degrade = DegradeSkipCPI
	const n = 32

	clean, err := Run(context.Background(), cfg, src, n)
	if err != nil {
		t.Fatal(err)
	}
	if got := clean.Stats; got.Retries != 0 || got.ChecksumFailures != 0 || got.Drops != 0 ||
		got.ChunkRereads != 0 || got.RepairedReads != 0 {
		t.Fatalf("fault-free run reported resilience activity: %v", got)
	}

	// One chunk re-read round: a chunk still corrupt after it fails the
	// fetch with a checksum error, which the retry layer answers with a
	// whole new fetch.
	src.ChunkRetries = 1
	plan := &pfs.FaultPlan{Seed: 1, FailRate: 0.05, CorruptRate: 0.05}
	fs.SetFaults(plan)
	faulted, err := Run(context.Background(), cfg, src, n)
	if err != nil {
		t.Fatal(err)
	}
	st := faulted.Stats
	if st.Drops != 0 || len(st.DroppedSeqs) != 0 {
		t.Fatalf("seed 1 should retry through every fault, got drops: %v", st)
	}
	if st.Retries == 0 {
		t.Error("expected injected failures to force retries")
	}
	// Payload corruption is absorbed by chunk-level repair (the dataset is
	// chunked v3); a chunk the one re-read round cannot repair surfaces as
	// a checksum failure and a whole-fetch retry. Seed 1 exercises both.
	if st.ChunkRereads == 0 || st.RepairedReads == 0 {
		t.Errorf("expected injected payload corruption to be chunk-repaired: %v", st)
	}
	if st.ChecksumFailures == 0 {
		t.Error("expected an unrepaired chunk to trip the cube checksum")
	}
	if len(faulted.CPIs) != n {
		t.Fatalf("got %d CPIs, want %d", len(faulted.CPIs), n)
	}
	for k := range clean.CPIs {
		if faulted.CPIs[k].Seq != clean.CPIs[k].Seq {
			t.Fatalf("CPI order diverged at %d", k)
		}
		if !sameDetections(faulted.CPIs[k].Detections, clean.CPIs[k].Detections) {
			t.Errorf("CPI %d: faulted run's detections differ from the clean run", k)
		}
	}

	// Determinism: the same seed must reproduce the same counters exactly,
	// whatever the goroutine interleaving.
	fs.SetFaults(&pfs.FaultPlan{Seed: 1, FailRate: 0.05, CorruptRate: 0.05})
	again, err := Run(context.Background(), cfg, src, n)
	if err != nil {
		t.Fatal(err)
	}
	if a := again.Stats; a.Retries != st.Retries || a.ChecksumFailures != st.ChecksumFailures ||
		a.Drops != st.Drops || a.ChunkRereads != st.ChunkRereads ||
		a.ChunkRereadBytes != st.ChunkRereadBytes || a.RepairedReads != st.RepairedReads {
		t.Errorf("counters not reproducible: first %v, second %v", st, a)
	}

	// Banded leg: FileSource band reads through a readahead window under
	// a fault plan, with too little retry budget to read every band. A CPI
	// whose band read stays failed is dropped whole — also when earlier
	// bands were already filtered, accumulated and beamformed — and every
	// delivered CPI must match the sequential chain over the delivered CPIs
	// alone (weights train on the previous delivered CPI).
	bfs, bsrc, _ := chunkedKeepStore(t, s, n, 256)
	bcfg := cfg
	bcfg.BandRanges = 16
	bcfg.ReadAhead = 4
	bcfg.Retry = RetryPolicy{MaxAttempts: 2, BaseBackoff: 50 * time.Microsecond, MaxBackoff: time.Millisecond}
	bandPlan := func() *pfs.FaultPlan { return &pfs.FaultPlan{Seed: 7, FailRate: 0.05, CorruptRate: 0.02} }
	bfs.SetFaults(bandPlan())
	bcfg.MemBudget = membudget.New("banded", 0)
	banded, err := Run(context.Background(), bcfg, bsrc, n)
	if err != nil {
		t.Fatal(err)
	}
	bst := banded.Stats
	if bst.Retries == 0 || bst.Drops == 0 || bst.ChunkRereads == 0 {
		t.Fatalf("banded leg should retry, repair and drop: %v", bst)
	}
	if got := len(banded.CPIs) + len(bst.DroppedSeqs); got != n {
		t.Fatalf("banded leg: %d delivered + %d dropped CPIs, want %d", len(banded.CPIs), len(bst.DroppedSeqs), n)
	}
	// The Doppler clock counts every CPI it filtered a band of; CPIs it
	// counted beyond the delivered ones were dropped after their first band.
	if partial := banded.Stages[1].CPIs - len(banded.CPIs); partial < 1 {
		t.Errorf("banded leg dropped no CPI mid-way (doppler clock %d CPIs, %d delivered)", banded.Stages[1].CPIs, len(banded.CPIs))
	}
	want := referenceSkipping(t, cfg.Params, s, n, bst.DroppedSeqs)
	for _, c := range banded.CPIs {
		if !sameDetections(c.Detections, want[c.Seq]) {
			t.Errorf("banded CPI %d: detections differ from the clean chain over the delivered CPIs", c.Seq)
		}
	}
	if inUse := bcfg.MemBudget.InUse(); inUse != 0 {
		t.Errorf("banded leg left %d bytes charged: dropped CPIs leaked slabs or beam cubes", inUse)
	}

	// Fail-fast: the same failures abort the banded run with the typed
	// read error.
	bcfg.Degrade = DegradeFailFast
	bcfg.MemBudget = nil
	bfs.SetFaults(&pfs.FaultPlan{Seed: 7, FailRate: 0.05})
	_, err = Run(context.Background(), bcfg, bsrc, n)
	var fe *pfs.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("fail-fast banded run: got %v, want a *pfs.FaultError", err)
	}
}

// referenceSkipping runs the sequential chain over CPIs 0..n-1 minus the
// skipped ones, keyed by sequence number.
func referenceSkipping(t *testing.T, p stap.Params, s *radar.Scenario, n int, skip []uint64) map[uint64][]stap.Detection {
	t.Helper()
	pr, err := stap.NewProcessor(p)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64][]stap.Detection)
	for k := uint64(0); k < uint64(n); k++ {
		if slices.Contains(skip, k) {
			continue
		}
		cb, err := s.Generate(k)
		if err != nil {
			t.Fatal(err)
		}
		if out[k], err = pr.Process(cb, k); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// stuckSource wraps a source and makes one CPI permanently unreadable.
type stuckSource struct {
	NoFrontend
	inner CubeSource
	seq   uint64
}

type errPending struct{ err error }

func (p errPending) Wait() (*cube.Cube, error) { return nil, p.err }
func (p errPending) Ready() bool               { return true }

func (s *stuckSource) Begin(seq uint64, lo, hi, attempt int) PendingCube {
	if seq == s.seq {
		return errPending{err: errors.New("stripe server offline")}
	}
	return s.inner.Begin(seq, lo, hi, attempt)
}

func (s *stuckSource) Recycle(cb *cube.Cube) { s.inner.Recycle(cb) }

func (s *stuckSource) Refetchable() bool { return s.inner.Refetchable() }

func TestSkipCPIDropsStuckRead(t *testing.T) {
	s := radar.SmallTestScenario()
	cfg := testConfig()
	cfg.Retry = RetryPolicy{MaxAttempts: 3, BaseBackoff: 10 * time.Microsecond, MaxBackoff: 100 * time.Microsecond}
	cfg.Degrade = DegradeSkipCPI
	const n = 5
	src := &stuckSource{inner: ScenarioSource(s), seq: 2}
	res, err := Run(context.Background(), cfg, src, n)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Drops != 1 || len(st.DroppedSeqs) != 1 || st.DroppedSeqs[0] != 2 {
		t.Fatalf("want exactly CPI 2 dropped, got %v (dropped %v)", st, st.DroppedSeqs)
	}
	if st.Retries != 2 {
		t.Errorf("3 attempts should record 2 retries, got %d", st.Retries)
	}
	if len(res.CPIs) != n-1 {
		t.Fatalf("got %d CPIs, want %d", len(res.CPIs), n-1)
	}
	for _, c := range res.CPIs {
		if c.Seq == 2 {
			t.Fatal("dropped CPI appeared in the results")
		}
	}
	// CPIs before the drop are untouched by it and must match the
	// reference chain; CPI 3 legitimately differs (its weights come from
	// CPI 1, the previous delivered CPI).
	want := referenceDetections(t, cfg.Params, s, 2)
	for k := 0; k < 2; k++ {
		if !sameDetections(res.CPIs[k].Detections, want[k]) {
			t.Errorf("CPI %d diverged from reference before the drop", k)
		}
	}
}

func TestFailFastAbortsOnStuckRead(t *testing.T) {
	s := radar.SmallTestScenario()
	cfg := testConfig()
	cfg.Retry = RetryPolicy{MaxAttempts: 2, BaseBackoff: 10 * time.Microsecond}
	src := &stuckSource{inner: ScenarioSource(s), seq: 1}
	if _, err := Run(context.Background(), cfg, src, 3); err == nil {
		t.Fatal("fail-fast run should abort on an unreadable CPI")
	}
}

func TestLastGoodWeightsSurvivesSolveFailure(t *testing.T) {
	// NaN samples make the covariance non-positive-definite, so both
	// weight stages fail their solve for that CPI. Under the last-good
	// policy each falls back to its previous weight set and the run
	// completes; under fail-fast it aborts.
	s := radar.SmallTestScenario()
	poisoned := &MemSource{Generate: func(seq uint64) (*cube.Cube, error) {
		cb, err := s.Generate(seq)
		if err != nil {
			return nil, err
		}
		if seq == 2 {
			nan := float32(math.NaN())
			for i := range cb.Data {
				cb.Data[i] = complex(nan, nan)
			}
		}
		return cb, nil
	}}
	cfg := testConfig()
	if _, err := Run(context.Background(), cfg, poisoned, 4); err == nil {
		t.Fatal("fail-fast run should abort on a failed weight solve")
	}
	cfg.Degrade = DegradeLastGoodWeights
	res, err := Run(context.Background(), cfg, poisoned, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.WeightFallbacks != 2 {
		t.Errorf("want one fallback per weight stage (2), got %d", res.Stats.WeightFallbacks)
	}
	if len(res.CPIs) != 4 {
		t.Fatalf("got %d CPIs, want 4", len(res.CPIs))
	}
	want := referenceDetections(t, cfg.Params, s, 2)
	for k := 0; k < 2; k++ {
		if !sameDetections(res.CPIs[k].Detections, want[k]) {
			t.Errorf("CPI %d diverged from reference before the poisoned CPI", k)
		}
	}
}

func TestCancellationDrainsWorkers(t *testing.T) {
	// Cancelling a run mid-flight must unwind every stage and worker
	// goroutine promptly — no stage may stay blocked on a channel send.
	before := runtime.NumGoroutine()
	s := radar.SmallTestScenario()
	slow := &MemSource{Generate: func(seq uint64) (*cube.Cube, error) {
		time.Sleep(2 * time.Millisecond)
		return s.Generate(seq)
	}}
	cfg := testConfig()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond) // a few CPIs deep
		cancel()
	}()
	if _, err := Run(ctx, cfg, slow, 10000); err != nil {
		t.Fatalf("cancellation is a clean stop, not an error: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			return // allow a little slack for runtime/test goroutines
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after cancellation: %d -> %d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestStreamReportsStats(t *testing.T) {
	s := radar.SmallTestScenario()
	cfg := testConfig()
	cfg.Retry = RetryPolicy{MaxAttempts: 2, BaseBackoff: 10 * time.Microsecond}
	cfg.Degrade = DegradeSkipCPI
	src := &stuckSource{inner: ScenarioSource(s), seq: 1}
	h, err := Stream(context.Background(), cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	for c := range h.Results {
		if c.Seq >= 4 {
			break
		}
	}
	res, err := h.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Drops < 1 || res.Stats.Retries < 1 {
		t.Errorf("stream summary missing resilience counters: %v", res.Stats)
	}
}

func TestRetryPolicyDefaults(t *testing.T) {
	var p RetryPolicy
	if p.attempts() != 3 {
		t.Errorf("zero-value attempts = %d, want 3", p.attempts())
	}
	if d := p.backoff(1); d != 2*time.Millisecond {
		t.Errorf("first backoff = %v, want 2ms", d)
	}
	if d := p.backoff(2); d != 4*time.Millisecond {
		t.Errorf("second backoff = %v, want 4ms", d)
	}
	if d := p.backoff(30); d != 100*time.Millisecond {
		t.Errorf("late backoff = %v, want the 100ms cap", d)
	}
	q := RetryPolicy{MaxAttempts: 7, BaseBackoff: time.Second, MaxBackoff: 3 * time.Second}
	if q.attempts() != 7 {
		t.Errorf("attempts = %d, want 7", q.attempts())
	}
	if d := q.backoff(2); d != 2*time.Second {
		t.Errorf("backoff = %v, want 2s", d)
	}
	if d := q.backoff(5); d != 3*time.Second {
		t.Errorf("backoff = %v, want the 3s cap", d)
	}
}

func TestParseDegradePolicy(t *testing.T) {
	cases := map[string]DegradePolicy{
		"failfast": DegradeFailFast, "fail-fast": DegradeFailFast,
		"skip": DegradeSkipCPI, "skip-cpi": DegradeSkipCPI,
		"lastgood": DegradeLastGoodWeights, "last-good-weights": DegradeLastGoodWeights,
	}
	for s, want := range cases {
		got, err := ParseDegradePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseDegradePolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseDegradePolicy("yolo"); err == nil {
		t.Error("unknown policy should fail to parse")
	}
	for _, p := range []DegradePolicy{DegradeFailFast, DegradeSkipCPI, DegradeLastGoodWeights, DegradePolicy(9)} {
		if p.String() == "" {
			t.Errorf("empty String() for %d", int(p))
		}
	}
}

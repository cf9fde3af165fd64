package pipexec

import (
	"context"
	"runtime"
	"testing"
	"time"

	"stapio/internal/radar"
)

func TestStreamDeliversSequentialResults(t *testing.T) {
	s := radar.SmallTestScenario()
	cfg := testConfig()
	h, err := Stream(context.Background(), cfg, ScenarioSource(s))
	if err != nil {
		t.Fatal(err)
	}
	const want = 7
	var got []CPIResult
	for res := range h.Results {
		got = append(got, res)
		if len(got) == want {
			break
		}
	}
	res, err := h.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != want {
		t.Fatalf("consumed %d results, want %d", len(got), want)
	}
	for i, c := range got {
		if c.Seq != uint64(i) {
			t.Errorf("result %d has seq %d — stream must be in order", i, c.Seq)
		}
		if c.Latency <= 0 {
			t.Errorf("result %d has non-positive latency", i)
		}
	}
	// Stream detections match a bounded Run over the same source.
	ref, err := Run(context.Background(), cfg, ScenarioSource(s), want)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !sameDetections(got[i].Detections, ref.CPIs[i].Detections) {
			t.Errorf("CPI %d: stream and Run disagree", i)
		}
	}
	if res.Throughput <= 0 {
		t.Error("summary throughput should be positive")
	}
	if len(res.Stages) == 0 {
		t.Error("summary missing stage stats")
	}
	// Stop is idempotent.
	if _, err := h.Stop(); err != nil {
		t.Errorf("second Stop errored: %v", err)
	}
}

func TestStreamStopWithoutConsuming(t *testing.T) {
	s := radar.SmallTestScenario()
	cfg := testConfig()
	h, err := Stream(context.Background(), cfg, ScenarioSource(s))
	if err != nil {
		t.Fatal(err)
	}
	// Give the pipeline a moment to fill its buffers, then stop without
	// ever reading Results — Stop must not deadlock.
	time.Sleep(20 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		if _, err := h.Stop(); err != nil {
			t.Errorf("Stop: %v", err)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop deadlocked")
	}
}

// Stop must be safe before a single result has been consumed, and it must
// actually unwind every pipeline goroutine — not just return while stage or
// drain goroutines linger. A leak here is invisible to the deadlock test
// above but fatal to a server that starts and stops many streams.
func TestStreamStopBeforeFirstResultLeaksNoGoroutines(t *testing.T) {
	s := radar.SmallTestScenario()
	cfg := testConfig()
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		h, err := Stream(context.Background(), cfg, ScenarioSource(s))
		if err != nil {
			t.Fatal(err)
		}
		// No sleep, no consume: stop races the pipeline's own spin-up.
		if _, err := h.Stop(); err != nil {
			t.Fatalf("round %d: Stop: %v", i, err)
		}
	}
	// Goroutine counts settle asynchronously (closers, drainers); poll
	// rather than assert instantly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d before, %d after 5 stream start/stop rounds\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestStreamParentContextCancel(t *testing.T) {
	s := radar.SmallTestScenario()
	cfg := testConfig()
	ctx, cancel := context.WithCancel(context.Background())
	h, err := Stream(ctx, cfg, ScenarioSource(s))
	if err != nil {
		t.Fatal(err)
	}
	<-h.Results // at least one CPI flows
	cancel()
	// The results channel must close shortly after cancellation.
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-h.Results:
			if !ok {
				if _, err := h.Stop(); err != nil {
					t.Errorf("Stop after cancel: %v", err)
				}
				return
			}
		case <-deadline:
			t.Fatal("results channel did not close after context cancel")
		}
	}
}

func TestStreamRejectsBadConfig(t *testing.T) {
	cfg := testConfig()
	cfg.Workers.Doppler = 0
	if _, err := Stream(context.Background(), cfg, ScenarioSource(radar.SmallTestScenario())); err == nil {
		t.Error("expected config validation error")
	}
}

// Stream honours Config.BandRanges like Run: a banded stream off a file
// source delivers Run's detections in order, and its summary throughput
// counts CPIs, not the frontend clocks' band fetches.
func TestStreamHonoursBandRanges(t *testing.T) {
	s := radar.SmallTestScenario()
	const n = 8
	_, src, _ := chunkedKeepStore(t, s, n, 256)
	cfg := testConfig()
	want, err := Run(context.Background(), cfg, src, n)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BandRanges = 16
	h, err := Stream(context.Background(), cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	var got []CPIResult
	for c := range h.Results {
		if got = append(got, c); len(got) == n {
			break
		}
	}
	res, err := h.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("consumed %d results, want %d", len(got), n)
	}
	for i, c := range got {
		if c.Seq != uint64(i) || !sameDetections(c.Detections, want.CPIs[i].Detections) {
			t.Errorf("result %d (CPI %d): banded stream diverges from Run", i, c.Seq)
		}
	}
	served := 0
	for _, st := range res.Stages {
		if st.Name != "src read" && st.Name != "src decode" {
			served = max(served, st.CPIs)
		}
	}
	if cpis := res.Throughput * res.Elapsed.Seconds(); cpis > float64(served)+0.5 {
		t.Errorf("summary throughput counts %.1f CPIs, but no compute stage served more than %d", cpis, served)
	}
}

package pipexec

import (
	"testing"
	"time"

	"stapio/internal/cube"
	"stapio/internal/pfs"
	"stapio/internal/radar"
)

// fileSourceOn writes a small four-file dataset to a fresh striped store
// and opens a FileSource over it.
func fileSourceOn(t *testing.T, async bool, chunk int) (*FileSource, *pfs.RealFS, *radar.Scenario) {
	t.Helper()
	s := radar.SmallTestScenario()
	fs, err := pfs.CreateReal(t.TempDir(), 4, 4096, async)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	if _, err := radar.WriteDatasetChunked(fs, s, 4, 4, false, chunk); err != nil {
		t.Fatal(err)
	}
	src, err := NewFileSource(fs, s.Dims, 4)
	if err != nil {
		t.Fatal(err)
	}
	return src, fs, s
}

// Begin is the paper's iread(): on an async store it returns at once and
// the striped read lands in the fetch goroutine; on a sync-only store
// (PIOFS semantics) the read lands before Begin returns. A latency spike
// on every stripe read makes the difference visible, and both deliver the
// same cube.
func TestFileSourceBeginSyncAsync(t *testing.T) {
	const delay = 200 * time.Millisecond
	var got [2]*cube.Cube
	for i, async := range []bool{false, true} {
		src, fs, _ := fileSourceOn(t, async, cube.DefaultChunkSize)
		fs.SetFaults(&pfs.FaultPlan{Seed: 1, SlowRate: 1, SlowDelay: delay})
		t0 := time.Now()
		p := src.Begin(1, 0)
		issued := time.Since(t0)
		if !async && issued < delay {
			t.Errorf("sync store: Begin returned after %v, before the %v read landed", issued, delay)
		}
		if async && issued >= delay/2 {
			t.Errorf("async store: Begin took %v, want it to return before the %v read lands", issued, delay)
		}
		cb, err := p.Wait()
		if err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		if waited := time.Since(t0); waited < delay {
			t.Errorf("async=%v: cube delivered after %v, before the %v read landed", async, waited, delay)
		}
		got[i] = cb
	}
	for k := range got[0].Data {
		if got[0].Data[k] != got[1].Data[k] {
			t.Fatalf("sync and async fetches of CPI 1 differ at sample %d", k)
		}
	}
}

// A warm band read — staging-file header cached, band scratch pooled, the
// store's sub-file handles open and a fan-out request free — allocates
// nothing.
func TestFileSourceReadBandAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items deliberately under the race detector; the zero pin holds only without it")
	}
	src, _, s := fileSourceOn(t, true, 256)
	d := s.Dims
	const lo, hi = 16, 40
	dst := cube.New(cube.Dims{Channels: d.Channels, Pulses: d.Pulses, Ranges: hi - lo})
	read := func() {
		if err := src.ReadBand(2, lo, hi, dst); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if n := testing.AllocsPerRun(20, read); n != 0 {
		t.Fatalf("warm ReadBand allocates %.1f times per call", n)
	}
}

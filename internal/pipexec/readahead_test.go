package pipexec

import (
	"context"
	"sync"
	"testing"
	"time"

	"stapio/internal/cube"
	"stapio/internal/pfs"
	"stapio/internal/radar"
)

// chunkedStore writes the round-robin dataset at an explicit chunk size —
// small enough that the small test cube spans many chunks, so partial
// re-read is actually partial.
func chunkedStore(t *testing.T, s *radar.Scenario, chunkSize int) (*pfs.RealFS, *FileSource) {
	t.Helper()
	fs, err := pfs.CreateReal(t.TempDir(), 4, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := radar.WriteDatasetChunked(fs, s, radar.DefaultFileCount, radar.DefaultFileCount, false, chunkSize); err != nil {
		t.Fatal(err)
	}
	src, err := NewFileSource(fs, s.Dims, radar.DefaultFileCount)
	if err != nil {
		t.Fatal(err)
	}
	return fs, src
}

// Readahead depth and decode parallelism are performance knobs, not
// semantic ones: every (depth, workers) combination must deliver CPIs in
// order with detections identical to the depth-1 serial-decode baseline.
func TestReadaheadDepthsMatchBaseline(t *testing.T) {
	s := radar.SmallTestScenario()
	_, src := chunkedStore(t, s, 1024)
	cfg := testConfig()
	cfg.SeparateIO = true
	const n = 12

	base, err := Run(context.Background(), cfg, src, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.CPIs) != n {
		t.Fatalf("baseline delivered %d CPIs, want %d", len(base.CPIs), n)
	}
	for _, depth := range []int{2, 4, 8} {
		for _, workers := range []int{1, 4} {
			cfg := cfg
			cfg.ReadAhead = depth
			cfg.DecodeWorkers = workers
			res, err := Run(context.Background(), cfg, src, n)
			if err != nil {
				t.Fatalf("depth %d workers %d: %v", depth, workers, err)
			}
			if len(res.CPIs) != n {
				t.Fatalf("depth %d workers %d: %d CPIs, want %d", depth, workers, len(res.CPIs), n)
			}
			for k := range res.CPIs {
				if res.CPIs[k].Seq != base.CPIs[k].Seq {
					t.Fatalf("depth %d workers %d: CPI order diverged at %d", depth, workers, k)
				}
				if !sameDetections(res.CPIs[k].Detections, base.CPIs[k].Detections) {
					t.Errorf("depth %d workers %d: CPI %d detections differ from baseline", depth, workers, k)
				}
			}
		}
	}
}

// Injected corruption on a chunked dataset must be repaired by re-reading
// only the damaged chunks — not the whole file — and the repair must be
// invisible to the pipeline: no drops, detections identical to the
// fault-free run, and counters that are pure functions of the fault seed,
// so identical across readahead depths and decode-worker counts.
func TestPartialRereadRepairsCorruptChunks(t *testing.T) {
	s := radar.SmallTestScenario()
	const chunkSize = 1024
	fs, src := chunkedStore(t, s, chunkSize)
	cfg := testConfig()
	cfg.SeparateIO = true
	cfg.Retry = fastRetry
	cfg.Degrade = DegradeSkipCPI
	const n = 24

	clean, err := Run(context.Background(), cfg, src, n)
	if err != nil {
		t.Fatal(err)
	}

	run := func(depth, workers int) RunStats {
		t.Helper()
		fs.SetFaults(&pfs.FaultPlan{Seed: 3, CorruptRate: 0.2})
		defer fs.SetFaults(nil)
		cfg := cfg
		cfg.ReadAhead = depth
		cfg.DecodeWorkers = workers
		res, err := Run(context.Background(), cfg, src, n)
		if err != nil {
			t.Fatalf("depth %d workers %d: %v", depth, workers, err)
		}
		st := res.Stats
		if st.Drops != 0 {
			t.Fatalf("depth %d workers %d: repairs should leave nothing to drop, got %v", depth, workers, st)
		}
		if len(res.CPIs) != n {
			t.Fatalf("depth %d workers %d: %d CPIs, want %d", depth, workers, len(res.CPIs), n)
		}
		for k := range res.CPIs {
			if !sameDetections(res.CPIs[k].Detections, clean.CPIs[k].Detections) {
				t.Errorf("depth %d workers %d: CPI %d detections differ from the fault-free run", depth, workers, k)
			}
		}
		return st
	}

	st := run(1, 1)
	if st.RepairedReads == 0 || st.ChunkRereads == 0 {
		t.Fatalf("fault plan injected no repairable corruption; the test exercises nothing: %v", st)
	}
	// Partial means partial: each re-read fetches at most one chunk, and
	// the total re-read traffic stays far below re-reading whole files
	// (the pre-chunking behaviour re-fetched FileBytes per corruption).
	if st.ChunkRereadBytes > st.ChunkRereads*chunkSize {
		t.Errorf("chunk re-reads fetched %d bytes over %d re-reads, more than %d bytes each",
			st.ChunkRereadBytes, st.ChunkRereads, chunkSize)
	}
	wholeFile := radar.DatasetFileBytes(s.Dims)
	if st.ChunkRereadBytes >= st.RepairedReads*wholeFile {
		t.Errorf("re-read traffic %d bytes is no better than %d whole-file re-reads (%d bytes)",
			st.ChunkRereadBytes, st.RepairedReads, st.RepairedReads*wholeFile)
	}

	// The fault draws are pure functions of (file, offset, stripe dir,
	// attempt) — never of timing — so deeper readahead and parallel decode
	// must reproduce the exact same repair counters.
	for _, c := range []struct{ depth, workers int }{{4, 1}, {1, 4}, {4, 4}} {
		a := run(c.depth, c.workers)
		if a.ChunkRereads != st.ChunkRereads || a.ChunkRereadBytes != st.ChunkRereadBytes ||
			a.RepairedReads != st.RepairedReads || a.ChecksumFailures != st.ChecksumFailures ||
			a.Retries != st.Retries {
			t.Errorf("depth %d workers %d: counters diverged from depth-1 baseline: %v vs %v",
				c.depth, c.workers, a, st)
		}
	}
}

// Deeper readahead holds more reads in flight, but the pool-news bound
// must still scale with the window, not with the CPI count.
func TestPoolsBoundedAtDeepReadahead(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items deliberately under the race detector; the news bound holds only without it")
	}
	s := radar.SmallTestScenario()
	_, src := chunkedStore(t, s, 1024)
	cfg := testConfig()
	cfg.SeparateIO = true
	cfg.ReadAhead = 4
	cfg.DecodeWorkers = 2

	const cpis = 64
	res, err := Run(context.Background(), cfg, src, cpis)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CPIs) != cpis {
		t.Fatalf("got %d CPIs, want %d", len(res.CPIs), cpis)
	}
	bufs, cubes := src.PoolNews()
	// Depth 4 keeps at most 5 reads in flight; with channel slots and
	// stage-held CPIs the bound has headroom, but it must not scale with
	// the 64 CPIs completed.
	const bound = 24
	if bufs > bound || cubes > bound {
		t.Errorf("pool news bufs=%d cubes=%d over %d CPIs at depth 4, want <= %d (readahead leaks pool items)",
			bufs, cubes, cpis, bound)
	}
}

// residencySource counts the cubes its MemSource has live — begun and not
// yet recycled — and records the maximum.
type residencySource struct {
	*MemSource
	mu        sync.Mutex
	live, max int
}

func (s *residencySource) Begin(seq uint64, attempt int) PendingCube {
	s.mu.Lock()
	s.live++
	s.max = max(s.max, s.live)
	s.mu.Unlock()
	return s.MemSource.Begin(seq, attempt)
}

func (s *residencySource) Recycle(cb *cube.Cube) {
	if cb == nil {
		return
	}
	s.mu.Lock()
	s.live--
	s.mu.Unlock()
	s.MemSource.Recycle(cb)
}

// TestReadaheadResidency pins how many input cubes a ReadAhead D run
// holds. Embedded, the Doppler task drives the window itself and recycles
// the cube it filtered before asking for the next, so exactly D+1 are
// live: the one in hand and D in the window. The separate design's
// read-stage hand-off adds the cube in the channel slot and the one
// blocked in send, D+3 at most. A Doppler-bound load keeps the window
// full, so the bound is reached, not just respected.
func TestReadaheadResidency(t *testing.T) {
	s := radar.SmallTestScenario()
	const n = 24
	for _, separate := range []bool{false, true} {
		for _, depth := range []int{1, 2, 4} {
			src := &residencySource{MemSource: ScenarioSource(s)}
			cfg := testConfig()
			cfg.SeparateIO = separate
			cfg.ReadAhead = depth
			cfg.testLoad = stageLoad{Doppler: 20 * time.Microsecond}
			res, err := Run(context.Background(), cfg, src, n)
			if err != nil {
				t.Fatalf("separate %v depth %d: %v", separate, depth, err)
			}
			if len(res.CPIs) != n {
				t.Fatalf("separate %v depth %d: %d CPIs, want %d", separate, depth, len(res.CPIs), n)
			}
			if src.live != 0 {
				t.Errorf("separate %v depth %d: %d cubes never recycled", separate, depth, src.live)
			}
			t.Logf("separate %v depth %d: max %d live cubes", separate, depth, src.max)
			if !separate && src.max != depth+1 {
				t.Errorf("embedded depth %d: max %d live cubes, want exactly %d", depth, src.max, depth+1)
			}
			if separate && src.max > depth+3 {
				t.Errorf("separate depth %d: max %d live cubes, want <= %d", depth, src.max, depth+3)
			}
		}
	}
}

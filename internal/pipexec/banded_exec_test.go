package pipexec

import (
	"context"
	"errors"
	"sync"
	"testing"

	"stapio/internal/cube"
	"stapio/internal/membudget"
	"stapio/internal/pfs"
	"stapio/internal/radar"
	"stapio/internal/stap"
)

// scenarioBandSource adapts a generator scenario to BandedSource: the full
// cube is built once per CPI and bands are copied out of it. Band reads
// overlap under readahead, so the cached cube is guarded.
func scenarioBandSource(t *testing.T, s *radar.Scenario) BandedSource {
	t.Helper()
	var (
		mu   sync.Mutex
		seq  = ^uint64(0)
		full *cube.Cube
	)
	return FuncBandSource(func(k uint64, lo, hi int, dst *cube.Cube) error {
		mu.Lock()
		defer mu.Unlock()
		if k != seq {
			cb, err := s.Generate(k)
			if err != nil {
				return err
			}
			full, seq = cb, k
		}
		return stap.CopyBand(dst, full, lo)
	})
}

// TestRunBandedMatchesReference: the banded executor must reproduce the
// sequential chain's detections bit-exactly at every band size — including
// bands that do not divide the range extent — and with covariance
// smoothing on.
func TestRunBandedMatchesReference(t *testing.T) {
	s := radar.SmallTestScenario()
	for _, forgetting := range []float64{0, 0.6} {
		cfg := testConfig()
		cfg.Params.Forgetting = forgetting
		const n = 4
		want := referenceDetections(t, cfg.Params, s, n)
		for _, band := range []int{1, 7, 16, s.Dims.Ranges - 1, s.Dims.Ranges, 0} {
			cfg.BandRanges = band
			res, err := RunBanded(context.Background(), cfg, scenarioBandSource(t, s), n)
			if err != nil {
				t.Fatalf("band %d forgetting %v: %v", band, forgetting, err)
			}
			if len(res.CPIs) != n {
				t.Fatalf("band %d: %d CPIs, want %d", band, len(res.CPIs), n)
			}
			for k := range res.CPIs {
				if !sameDetections(res.CPIs[k].Detections, want[k]) {
					t.Errorf("band %d forgetting %v CPI %d: banded run diverges from reference",
						band, forgetting, k)
				}
			}
			if len(res.Stages) == 0 || res.Stages[0].Name != "read" || res.Stages[0].CPIs != n {
				t.Errorf("band %d: read stage accounting %+v, want %d CPIs on \"read\"", band, res.Stages, n)
			}
		}
	}
}

// TestRunBandedFromFiles drives the whole out-of-core path: chunk-granular
// band reads from a striped v3 store through the banded chain, under a
// budget a full cube could never fit in, with byte-identical detections —
// serial and with each band fetch's decode sharded across workers.
func TestRunBandedFromFiles(t *testing.T) {
	s := radar.SmallTestScenario()
	const n = 4
	// 256-byte chunks: each (channel, pulse) row spans two chunks, so band
	// reads genuinely subset the file.
	_, src, _ := chunkedKeepStore(t, s, n, 256)
	cfg := testConfig()
	cfg.BandRanges = 16
	want := referenceDetections(t, cfg.Params, s, n)

	budgetBytes := BandedMinResidency(&cfg.Params, cfg.BandRanges)
	if full := MinResidency(&cfg.Params); budgetBytes >= full {
		t.Fatalf("banded working set %d is not smaller than full residency %d; the mode is pointless", budgetBytes, full)
	}
	for _, dw := range []int{1, 3} {
		cfg.DecodeWorkers = dw
		cfg.MemBudget = membudget.New("test", budgetBytes)
		res, err := RunBanded(context.Background(), cfg, src, n)
		if err != nil {
			t.Fatal(err)
		}
		for k := range res.CPIs {
			if !sameDetections(res.CPIs[k].Detections, want[k]) {
				t.Errorf("decode workers %d CPI %d: file-banded run diverges from reference", dw, k)
			}
		}
		if res.Stats.MemHighWater > budgetBytes {
			t.Errorf("decode workers %d: high water %d exceeds budget %d", dw, res.Stats.MemHighWater, budgetBytes)
		}
		if res.Stats.MemLimit != budgetBytes {
			t.Errorf("decode workers %d: reported limit %d, want %d", dw, res.Stats.MemLimit, budgetBytes)
		}
		if got := src.decodeWorkers(); got != dw {
			t.Errorf("Config.DecodeWorkers %d left the band fetches' decode pool at %d", dw, got)
		}
	}
}

// TestReadBandMatchesCube pins FileSource.ReadBand sample-for-sample
// against the staged cubes, across band positions, sizes, and chunk
// geometries (bands inside one chunk, spanning chunks, and chunk-aligned).
func TestReadBandMatchesCube(t *testing.T) {
	s := radar.SmallTestScenario()
	const files = 3
	for _, chunkSize := range []int{200, 256, 1024, cube.DefaultChunkSize} {
		_, src, kept := chunkedKeepStore(t, s, files, chunkSize)
		d := s.Dims
		for _, band := range [][2]int{{0, 1}, {0, d.Ranges}, {5, 12}, {31, 33}, {d.Ranges - 1, d.Ranges}} {
			lo, hi := band[0], band[1]
			dst := cube.New(cube.Dims{Channels: d.Channels, Pulses: d.Pulses, Ranges: hi - lo})
			for seq := 0; seq < files; seq++ {
				if err := src.ReadBand(uint64(seq), lo, hi, dst); err != nil {
					t.Fatalf("chunk %d band [%d,%d) seq %d: %v", chunkSize, lo, hi, seq, err)
				}
				full := kept[seq]
				for row := 0; row < d.Channels*d.Pulses; row++ {
					for r := lo; r < hi; r++ {
						if got, want := dst.Data[row*(hi-lo)+(r-lo)], full.Data[row*d.Ranges+r]; got != want {
							t.Fatalf("chunk %d band [%d,%d) seq %d row %d range %d: got %v want %v",
								chunkSize, lo, hi, seq, row, r, got, want)
						}
					}
				}
			}
		}
	}
}

// writeFlatFile stages a cube in the retired flat v2 layout: the fixed
// header straight followed by the samples, no chunk table.
func writeFlatFile(t *testing.T, fs *pfs.RealFS, name string, cb *cube.Cube, seq uint64) {
	t.Helper()
	buf := make([]byte, cube.HeaderSize+cb.Bytes())
	cube.EncodeSamples(cb, buf[cube.HeaderSize:])
	cube.EncodeHeader(cube.Header{Dims: cb.Dims, Seq: seq, Version: 2, Checksum: cube.Checksum(buf[cube.HeaderSize:])}, buf)
	if err := fs.WriteFile(name, buf); err != nil {
		t.Fatal(err)
	}
}

// TestReadBandRejectsFlatFiles: flat (v1/v2) staging files are no longer
// read. A flat dataset, and a flat file behind a chunked first one, fail
// NewFileSource's probe with cube.ErrVersion rather than being silently
// misdecoded.
func TestReadBandRejectsFlatFiles(t *testing.T) {
	s := radar.SmallTestScenario()
	cb, err := s.Generate(0)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := pfs.CreateReal(t.TempDir(), 2, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	writeFlatFile(t, flat, radar.FileName(0), cb, 0)
	if _, err := NewFileSource(flat, s.Dims, 1); !errors.Is(err, cube.ErrVersion) {
		t.Fatalf("flat dataset probe: got %v, want cube.ErrVersion", err)
	}

	fs, err := pfs.CreateReal(t.TempDir(), 2, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := radar.WriteDataset(fs, s, 2, 2, false); err != nil {
		t.Fatal(err)
	}
	writeFlatFile(t, fs, radar.FileName(1), cb, 1)
	if _, err := NewFileSource(fs, s.Dims, 2); !errors.Is(err, cube.ErrVersion) {
		t.Fatalf("flat second file probe: got %v, want cube.ErrVersion", err)
	}
}

// TestRunBandedBudgetTooSmall pins the banded mode's own admissibility
// check and its error type.
func TestRunBandedBudgetTooSmall(t *testing.T) {
	s := radar.SmallTestScenario()
	cfg := testConfig()
	cfg.BandRanges = 8
	cfg.MemBudget = membudget.New("tiny", BandedMinResidency(&cfg.Params, 8)-1)
	_, err := RunBanded(context.Background(), cfg, scenarioBandSource(t, s), 1)
	if !errors.Is(err, membudget.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}

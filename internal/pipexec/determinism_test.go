package pipexec

import (
	"context"
	"fmt"
	"testing"

	"stapio/internal/core"
	"stapio/internal/radar"
	"stapio/internal/stap"
)

// TestDetectionDeterminism pins the blocked-kernel determinism contract:
// every reduction in the Doppler→covariance→beamform→compression chain
// runs in a fixed, platform-independent order, so detections must be
// byte-identical — full struct equality, Power and Threshold included,
// not just the (beam, bin, range) triple — across repeat runs, per-stage
// worker counts, readahead depths, and banded range-band sizes. Worker
// counts and band geometry only change which goroutine computes a value,
// never the order a value is reduced in.
func TestDetectionDeterminism(t *testing.T) {
	s := radar.SmallTestScenario()
	const n = 5

	exact := func(label string, got, want [][]stap.Detection) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d CPIs, want %d", label, len(got), len(want))
		}
		for k := range want {
			if len(got[k]) != len(want[k]) {
				t.Fatalf("%s: CPI %d has %d detections, want %d", label, k, len(got[k]), len(want[k]))
			}
			for i := range want[k] {
				if got[k][i] != want[k][i] {
					t.Fatalf("%s: CPI %d detection %d = %+v, want byte-identical %+v",
						label, k, i, got[k][i], want[k][i])
				}
			}
		}
	}
	collect := func(res *Result) [][]stap.Detection {
		out := make([][]stap.Detection, len(res.CPIs))
		for k := range res.CPIs {
			out[k] = res.CPIs[k].Detections
		}
		return out
	}
	run := func(cfg Config) [][]stap.Detection {
		t.Helper()
		res, err := Run(context.Background(), cfg, ScenarioSource(s), n)
		if err != nil {
			t.Fatal(err)
		}
		return collect(res)
	}

	want := run(testConfig())

	// The sequential Processor shares every kernel with the pipeline, so
	// even it must agree to the byte.
	exact("sequential reference", referenceDetections(t, testConfig().Params, s, n), want)

	// Repeat runs of the identical configuration.
	exact("repeat run", run(testConfig()), want)

	// Per-stage worker counts: serial, the default mix again, and an
	// oversubscribed mix. Workers only partition (bin, beam) work items.
	for _, w := range []core.STAPNodes{
		{Doppler: 1, EasyWeight: 1, HardWeight: 1, EasyBF: 1, HardBF: 1, PulseComp: 1, CFAR: 1},
		{Doppler: 4, EasyWeight: 3, HardWeight: 3, EasyBF: 4, HardBF: 3, PulseComp: 4, CFAR: 3},
	} {
		cfg := testConfig()
		cfg.Workers = w
		exact("worker mix", run(cfg), want)
	}

	// Readahead depths behind a separate read stage, and driven by the
	// Doppler task itself (embedded): prefetch reorders reads, never
	// compute.
	for _, separate := range []bool{true, false} {
		for _, depth := range []int{1, 2, 4} {
			cfg := testConfig()
			cfg.SeparateIO = separate
			cfg.ReadAhead = depth
			exact(fmt.Sprintf("separate %v readahead depth %d", separate, depth), run(cfg), want)
		}
	}

	// Banded execution: partial Doppler tiles, covariance panels carried
	// across band boundaries, and per-band beamform strips must land on
	// the same bytes as the full-cube path.
	for _, band := range []int{1, 7, s.Dims.Ranges} {
		cfg := testConfig()
		cfg.BandRanges = band
		res, err := Run(context.Background(), cfg, scenarioBandSource(t, s), n)
		if err != nil {
			t.Fatalf("band %d: %v", band, err)
		}
		exact("band size", collect(res), want)
	}

	// Bands behind a separate read stage, and embedded, with a readahead
	// window of band reads, under a live worker-swap schedule: overlapping
	// band fetches and mid-run re-partitioning never reorder a reduction.
	for _, separate := range []bool{true, false} {
		for _, band := range []int{1, 7} {
			for _, depth := range []int{1, 4} {
				cfg := testConfig()
				cfg.BandRanges = band
				cfg.SeparateIO = separate
				cfg.ReadAhead = depth
				cfg.testOnCPI = func(cpi int, set func(stage, workers int)) {
					set(cpi%7, 1+cpi%3)
				}
				res, err := Run(context.Background(), cfg, scenarioBandSource(t, s), n)
				if err != nil {
					t.Fatalf("separate %v band %d readahead %d: %v", separate, band, depth, err)
				}
				exact(fmt.Sprintf("separate %v band %d readahead %d swap", separate, band, depth), collect(res), want)
			}
		}
	}
}

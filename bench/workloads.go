package main

import (
	"time"

	"stapio/internal/core"
	"stapio/internal/cube"
	"stapio/internal/pfs"
	"stapio/internal/pipexec"
	"stapio/internal/radar"
	"stapio/internal/stap"
)

// workload is one row of the ledger: a geometry, a dataset layout and the
// way the system is driven over it. Each exists to load a different layer;
// the why strings are the record of that choice (BENCHMARK.json repeats
// them).
type workload struct {
	name string
	why  string

	scenario func() *radar.Scenario
	// files is the dataset cycle: staging files for the file workloads,
	// replayed frames for the service.
	files int
	chunk int
	// stripeDirs/stripeUnit lay out the striped store (file workloads).
	stripeDirs int
	stripeUnit int64
	// faults builds the store's fault plan from the run seed (nil: none).
	faults func(seed int64) *pfs.FaultPlan
	// config is the pipeline configuration of every measured block.
	config func(p stap.Params) pipexec.Config
	// banded runs pipexec.RunBanded under the BandedMinResidency budget;
	// reports adds the harness's report sink on the same store; served
	// drives the in-process service instead of the file executors.
	banded  bool
	reports bool
	served  bool

	// setupReps is how often set-up runs for the setup_s median (more often
	// the shorter it is: a 0.2 s set-up is at the mercy of one host stall),
	// warmup the discarded warm-up block (on the service, the size of the
	// blocks that fill serveWarmFor), walkK the CPIs of the traced walk.
	setupReps int
	warmup    int
	walkK     int
}

// bandRanges is the range-band size of the mid-banded workload.
const bandRanges = 64

// reportSlots is how many report files the report sink cycles through.
const reportSlots = 64

// Closed- and open-loop shape of the service workload.
const (
	serveWindow   = 8   // closed loop: CPIs kept in flight
	serveMaxQueue = 24  // open loop: CPIs in flight before the generator blocks
	serveRate     = 300 // open loop: CPIs per second
	serveLimitMs  = 10  // latency limit the rate ladder is judged against
	// serveWarmFor is how long the warm-up's closed-loop blocks go on.
	serveWarmFor = 150 * time.Millisecond
)

func workers(doppler int) core.STAPNodes {
	return core.STAPNodes{Doppler: doppler, EasyWeight: 1, HardWeight: 1, EasyBF: 1, HardBF: 1, PulseComp: 1, CFAR: 1}
}

func midScenario() *radar.Scenario {
	return &radar.Scenario{
		Dims:       cube.Dims{Channels: 8, Pulses: 65, Ranges: 512},
		PulseLen:   16,
		Bandwidth:  0.85,
		NoisePower: 1,
		Targets: []radar.Target{
			{Angle: 0.2, Doppler: 0.2, Range: 150, SNR: 8},
			{Angle: -0.3, Doppler: -0.3, Range: 380, SNR: 6},
		},
		Clutter: radar.Clutter{Patches: 12, CNR: 25, Beta: 1},
	}
}

var workloads = []*workload{
	{
		name:     "paper-file",
		why:      "the paper's 16x128x1024 cubes through pipexec.Run with embedded I/O: compute- and memory-bound, so kernel, allocation and stage-balance work shows here and I/O-frontend work must not",
		scenario: radar.PaperScenario,
		files:    4, chunk: 65536, stripeDirs: 4, stripeUnit: 65536,
		config: func(p stap.Params) pipexec.Config {
			return pipexec.Config{Params: p, Workers: workers(2), ReadAhead: 2}
		},
		setupReps: 2, warmup: 6, walkK: 4,
	},
	{
		name:     "slowstore-file",
		why:      "small cubes on a store taking 10 ms per stripe read and corrupting 0.2% of them, reports written beside the reads: read time exceeds compute, so pfs, FileSource, readahead and repair do the work",
		scenario: radar.SmallTestScenario,
		files:    8, chunk: 4096, stripeDirs: 4, stripeUnit: 4096,
		faults: func(seed int64) *pfs.FaultPlan {
			return &pfs.FaultPlan{Seed: seed, SlowRate: 1, SlowDelay: 10 * time.Millisecond, CorruptRate: 0.002}
		},
		config: func(p stap.Params) pipexec.Config {
			return pipexec.Config{Params: p, Workers: workers(1), SeparateIO: true, ReadAhead: 4, DecodeWorkers: 2}
		},
		reports:   true,
		setupReps: 5, warmup: 96, walkK: 32,
	},
	{
		name:     "mid-banded",
		why:      "8x65x512 cubes through pipexec.RunBanded in 64-gate bands under the minimum-residency budget, one worker per stage: band kernels and chunk-subset reads run in sequence, so every ms of either counts",
		scenario: midScenario,
		files:    8, chunk: 65536, stripeDirs: 4, stripeUnit: 65536,
		config: func(p stap.Params) pipexec.Config {
			return pipexec.Config{Params: p, Workers: workers(1), BandRanges: bandRanges}
		},
		banded:    true,
		setupReps: 5, warmup: 12, walkK: 32,
	},
	{
		name:     "small-serve",
		why:      "small cubes chunk-streamed over loopback TCP to the in-process service, closed loop for rate then a fixed 300/s cadence for latency: wire, admission, ingest and result return dominate the compute",
		scenario: radar.SmallTestScenario,
		files:    8, chunk: 4096,
		config: func(p stap.Params) pipexec.Config {
			return pipexec.Config{Params: p, Workers: workers(1)}
		},
		served:    true,
		setupReps: 9, warmup: 32, walkK: 400,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// params derives the processing parameters every layer of a workload
// shares from its scenario.
func params(s *radar.Scenario) stap.Params {
	p := stap.DefaultParams(s.Dims)
	p.PulseLen = s.PulseLen
	p.Bandwidth = s.Bandwidth
	return p
}

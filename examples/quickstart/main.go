// Quickstart: build a small radar scenario, run the real parallel
// pipelined STAP system over a few CPIs, and print the detections next to
// the ground truth.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"stapio/internal/core"
	"stapio/internal/cube"
	"stapio/internal/pipexec"
	"stapio/internal/radar"
	"stapio/internal/stap"
)

func main() {
	// 1. Describe the scene: a 6-channel, 33-pulse, 128-gate radar with
	// two targets buried in clutter and noise.
	scenario := &radar.Scenario{
		Dims:       cube.Dims{Channels: 6, Pulses: 33, Ranges: 128},
		PulseLen:   16,
		Bandwidth:  0.8,
		NoisePower: 1,
		Targets: []radar.Target{
			{Angle: 0, Doppler: 0.25, Range: 40, SNR: 8},
			{Angle: -0.5, Doppler: -0.31, Range: 90, SNR: 8},
		},
		Clutter: radar.Clutter{Patches: 10, CNR: 25, Beta: 1},
		Seed:    2026,
	}

	// 2. Configure the STAP chain to match the transmitted waveform.
	params := stap.DefaultParams(scenario.Dims)
	params.PulseLen = scenario.PulseLen
	params.Bandwidth = scenario.Bandwidth
	params.TrainHard = 64
	params.CFAR.ThresholdDB = 15

	// 3. Run the pipeline: each task gets a small pool of worker
	// goroutines (the analogue of the paper's compute-node assignments).
	cfg := pipexec.Config{
		Params: params,
		Workers: core.STAPNodes{
			Doppler: 2, EasyWeight: 1, HardWeight: 2,
			EasyBF: 2, HardBF: 2, PulseComp: 2, CFAR: 1,
		},
	}
	res, err := pipexec.Run(context.Background(), cfg, pipexec.ScenarioSource(scenario), 4)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Inspect the reports. The first CPI uses non-adaptive weights
	// (nothing to train on yet); later CPIs use weights trained on the
	// previous CPI and suppress the clutter ridge. Wall-clock timing goes
	// to stderr; stdout is deterministic.
	fmt.Fprintf(os.Stderr, "processed %d CPIs in %v (%.1f CPIs/s)\n",
		len(res.CPIs), res.Elapsed.Round(1e6), res.Throughput)
	fmt.Println("ground truth:")
	for _, tg := range scenario.Targets {
		fmt.Printf("  angle=%+.2f doppler=%+.3f -> doppler bin %d, range gate %d\n",
			tg.Angle, tg.Doppler, params.BinForDoppler(tg.Doppler), tg.Range)
	}
	last := res.CPIs[len(res.CPIs)-1]
	for _, d := range stap.ClusterDetections(last.Detections, 4) {
		fmt.Printf("CPI %d detection: beam=%d doppler-bin=%d range=%d (%.1f dB)\n",
			last.Seq, d.Beam, d.Bin, d.Range, d.SNR(&params))
	}
}

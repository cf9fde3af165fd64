// Real striped I/O: write a round-robin CPI dataset onto a striped local
// store (the working stand-in for the Paragon PFS stripe directories),
// then run the real pipeline twice — asynchronous reads overlapping
// computation versus synchronous PIOFS-style reads — and compare wall
// clock.
//
//	go run ./examples/realio
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"stapio/internal/core"
	"stapio/internal/cube"
	"stapio/internal/pfs"
	"stapio/internal/pipexec"
	"stapio/internal/radar"
	"stapio/internal/stap"
)

func main() {
	scenario := &radar.Scenario{
		Dims:       cube.Dims{Channels: 8, Pulses: 65, Ranges: 512},
		PulseLen:   32,
		Bandwidth:  0.85,
		NoisePower: 1,
		Targets: []radar.Target{
			{Angle: 0.2, Doppler: 0.2, Range: 150, SNR: 8},
		},
		Clutter: radar.Clutter{Patches: 12, CNR: 25, Beta: 1},
		Seed:    7,
	}
	root, err := os.MkdirTemp("", "stapio-realio-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	const files = radar.DefaultFileCount
	const stripeDirs = 8

	run := func(async bool) float64 {
		fs, err := pfs.CreateReal(root, stripeDirs, 64<<10, async)
		if err != nil {
			log.Fatal(err)
		}
		defer fs.Close()
		if _, err := radar.WriteDataset(fs, scenario, files, files, false); err != nil {
			log.Fatal(err)
		}
		src, err := pipexec.NewFileSource(fs, scenario.Dims, files)
		if err != nil {
			log.Fatal(err)
		}
		params := stap.DefaultParams(scenario.Dims)
		params.PulseLen = scenario.PulseLen
		params.Bandwidth = scenario.Bandwidth
		cfg := pipexec.Config{
			Params: params,
			Workers: core.STAPNodes{
				Doppler: 2, EasyWeight: 1, HardWeight: 1,
				EasyBF: 2, HardBF: 1, PulseComp: 2, CFAR: 1,
			},
		}
		res, err := pipexec.Run(context.Background(), cfg, src, files)
		if err != nil {
			log.Fatal(err)
		}
		mode := "sync (PIOFS-style)"
		if async {
			mode = "async (PFS iread/iowait-style)"
		}
		var dets int
		for _, c := range res.CPIs {
			dets += len(stap.ClusterDetections(c.Detections, 4))
		}
		fmt.Printf("%-32s %d CPIs of %d bytes: %.2f CPIs/s, mean latency %v, %d detections\n",
			mode, len(res.CPIs), radar.DatasetFileBytes(scenario.Dims), res.Throughput,
			res.MeanLatency().Round(1e5), dets)
		return res.Throughput
	}

	fmt.Printf("dataset: %d round-robin files striped across %d directories under %s\n\n",
		files, stripeDirs, root)
	async := run(true)
	sync := run(false)
	fmt.Printf("\nasync/sync wall-clock throughput ratio: %.2fx\n", async/sync)
	fmt.Println("(the paper's PIOFS result: without asynchronous reads the I/O cannot hide")
	fmt.Println(" behind computation, so the first task's service time grows by the read.)")
}

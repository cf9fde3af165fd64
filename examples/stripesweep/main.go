// Stripe sweep: locate the point where the parallel file system stops
// being the pipeline bottleneck by sweeping the stripe factor at the
// largest node case — the design question behind the paper's PFS-16 vs
// PFS-64 comparison — and visualise one bottlenecked schedule.
//
//	go run ./examples/stripesweep
package main

import (
	"fmt"
	"log"
	"os"

	"stapio/internal/experiments"
	"stapio/internal/machine"
	"stapio/internal/pfs"
	"stapio/internal/pipesim"
	"stapio/internal/report"
)

func main() {
	p, err := experiments.Build(experiments.Embedded, 4) // 200 compute nodes
	if err != nil {
		log.Fatal(err)
	}
	prof := machine.Paragon()
	opts := pipesim.DefaultOptions()

	chart := &report.BarChart{
		Title: "Throughput at 200 nodes vs stripe factor (Paragon PFS)",
		Unit:  "CPIs/s",
	}
	group := report.BarGroup{Label: "stripe factor sweep"}
	// The knee is the last stripe factor that still raised throughput.
	var prev float64
	knee := 0
	for _, sf := range []int{4, 8, 16, 32, 64, 128} {
		res, err := pipesim.Measure(p, prof, pfs.ParagonPFS(sf), opts)
		if err != nil {
			log.Fatal(err)
		}
		group.Bars = append(group.Bars, report.Bar{
			Label: fmt.Sprintf("stripe=%3d", sf),
			Value: res.Throughput,
		})
		if res.Throughput >= prev*1.05 {
			knee = sf
		}
		prev = res.Throughput
	}
	chart.Group = []report.BarGroup{group}
	chart.Render(os.Stdout)
	fmt.Printf("\nthroughput stops improving after stripe factor %d — beyond that the\n", knee)
	fmt.Println("Doppler task's compute time, not the file system, limits the pipeline.")

	// Show the bottlenecked schedule at stripe factor 8.
	fmt.Println()
	traceOpts := pipesim.Options{CPIs: 24, Warmup: 8, PrefetchDepth: 1, BufferDepth: 2, Trace: true}
	res, err := pipesim.Run(p, prof, pfs.ParagonPFS(8), traceOpts)
	if err != nil {
		log.Fatal(err)
	}
	period := 1 / res.Throughput
	g := experiments.TimelineChart(res,
		"Schedule at stripe=8 (r=read-wait = recv # compute > send . idle)",
		res.Horizon-5*period, res.Horizon)
	g.Width = 100
	g.Render(os.Stdout)
}

// Monte-Carlo detection performance: sweep target SNR and measure the full
// chain's probability of detection and false-alarm rate over independent
// noise realisations, comparing CFAR variants.
//
//	go run ./examples/montecarlo
package main

import (
	"fmt"
	"log"
	"os"

	"stapio/internal/cube"
	"stapio/internal/radar"
	"stapio/internal/report"
	"stapio/internal/stap"
)

func main() {
	dims := cube.Dims{Channels: 4, Pulses: 17, Ranges: 64}
	base := &radar.Scenario{
		Dims:       dims,
		PulseLen:   8,
		Bandwidth:  0.8,
		NoisePower: 1,
		Targets:    []radar.Target{{Angle: 0, Doppler: 0.25, Range: 20}},
		Clutter:    radar.Clutter{Patches: 8, CNR: 20, Beta: 1},
		Seed:       2026_07_06,
	}
	cfg := stap.DefaultMCConfig()
	cfg.Trials = 12

	t := &report.Table{
		Title:   fmt.Sprintf("Detection performance, %d Monte-Carlo trials per cell", cfg.Trials),
		Columns: []string{"SNR (dB)", "CA Pd", "CA Pfa", "OS Pd", "OS Pfa"},
	}
	// False alarms and scored cells per CFAR variant, over every SNR row.
	kinds := []stap.CFARKind{stap.CFARCellAveraging, stap.CFAROrderedStatistic}
	var falseAlarms, cells [2]int
	// The chain has ~27 dB of processing gain (Doppler integration, pulse
	// compression, beamforming), so the interesting region is well below
	// 0 dB per-sample SNR.
	for _, snr := range []float64{-12, -10, -8, -6, -4} {
		sc := *base
		sc.Targets = []radar.Target{{Angle: 0, Doppler: 0.25, Range: 20, SNR: snr}}
		row := []string{fmt.Sprintf("%.0f", snr)}
		for i, kind := range kinds {
			p := stap.DefaultParams(dims)
			p.PulseLen = sc.PulseLen
			p.Bandwidth = sc.Bandwidth
			p.CFAR.Kind = kind
			p.CFAR.ThresholdDB = 13
			stats, err := stap.MonteCarlo(&sc, p, cfg)
			if err != nil {
				log.Fatal(err)
			}
			row = append(row, fmt.Sprintf("%.2f", stats.Pd()), fmt.Sprintf("%.1e", stats.Pfa()))
			falseAlarms[i] += stats.FalseAlarms
			cells[i] += stats.Trials * stats.CellsPerTrial
		}
		t.AddRow(row...)
	}
	t.Render(os.Stdout)
	fmt.Println()
	fmt.Println("Pd rises with SNR along the classic detection curve. False alarms over all")
	fmt.Println("SNR rows:")
	for i, name := range []string{"CA", "OS"} {
		if falseAlarms[i] == 0 {
			fmt.Printf("  %s: none in %d cells: observed Pfa < 1/%d = %.1e\n", name, cells[i], cells[i], 1/float64(cells[i]))
		} else {
			fmt.Printf("  %s: %d in %d cells: observed Pfa = %.1e\n", name, falseAlarms[i], cells[i], float64(falseAlarms[i])/float64(cells[i]))
		}
	}
}

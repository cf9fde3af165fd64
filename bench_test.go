// Benchmark harness: one benchmark per paper table and figure, plus the
// ablation studies called out in DESIGN.md and the two end-to-end records
// the ledger (bench/) has no row for.
//
//	go test -bench=. -benchmem
//
// The table/figure benchmarks time a full regeneration of the artifact on
// the simulated machines and report the headline throughput/latency (or
// improvement) as custom metrics, so `-bench` output doubles as a compact
// results summary. Kernel, pipeline, tuner and memory-budget costs are
// ledger rows (make ledger); scripts/ab.sh compares two commits.
package stapio_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	"stapio/internal/core"
	"stapio/internal/cube"
	"stapio/internal/experiments"
	"stapio/internal/machine"
	"stapio/internal/pfs"
	"stapio/internal/pipesim"
	"stapio/internal/pipexec"
	"stapio/internal/radar"
	"stapio/internal/stap"
)

func benchOpts() pipesim.Options {
	return pipesim.Options{CPIs: 40, Warmup: 10, PrefetchDepth: 1, BufferDepth: 2}
}

// benchGrid measures one (design, setup, case) cell b.N times and reports
// throughput and latency metrics.
func benchGrid(b *testing.B, d experiments.Design) {
	for _, s := range experiments.Setups() {
		for _, c := range experiments.Cases() {
			name := fmt.Sprintf("%s/scale%d", s.FS.Name, c.Scale)
			b.Run(name, func(b *testing.B) {
				p, err := experiments.Build(d, c.Scale)
				if err != nil {
					b.Fatal(err)
				}
				var last *pipesim.Result
				for i := 0; i < b.N; i++ {
					last, err = pipesim.Measure(p, s.Prof, s.FS, benchOpts())
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(last.Throughput, "CPIs/s")
				b.ReportMetric(last.Latency*1e3, "latency-ms")
			})
		}
	}
}

// BenchmarkTable1EmbeddedIO regenerates Table 1: the seven-task pipeline
// with the parallel read embedded in the Doppler filter task.
func BenchmarkTable1EmbeddedIO(b *testing.B) { benchGrid(b, experiments.Embedded) }

// BenchmarkTable2SeparateIO regenerates Table 2: the eight-task pipeline
// with a dedicated parallel-read task.
func BenchmarkTable2SeparateIO(b *testing.B) { benchGrid(b, experiments.Separate) }

// BenchmarkTable3TaskCombining regenerates Table 3: pulse compression and
// CFAR merged into a single task.
func BenchmarkTable3TaskCombining(b *testing.B) { benchGrid(b, experiments.Combined) }

// BenchmarkTable4LatencyImprovement regenerates Table 4: the percentage
// latency improvement of combining, reported per cell as a metric.
func BenchmarkTable4LatencyImprovement(b *testing.B) {
	for _, s := range experiments.Setups() {
		for _, c := range experiments.Cases() {
			name := fmt.Sprintf("%s/scale%d", s.FS.Name, c.Scale)
			b.Run(name, func(b *testing.B) {
				emb, err := experiments.Build(experiments.Embedded, c.Scale)
				if err != nil {
					b.Fatal(err)
				}
				comb, err := experiments.Build(experiments.Combined, c.Scale)
				if err != nil {
					b.Fatal(err)
				}
				var imp float64
				for i := 0; i < b.N; i++ {
					re, err := pipesim.Measure(emb, s.Prof, s.FS, benchOpts())
					if err != nil {
						b.Fatal(err)
					}
					rc, err := pipesim.Measure(comb, s.Prof, s.FS, benchOpts())
					if err != nil {
						b.Fatal(err)
					}
					imp = 100 * (re.Latency - rc.Latency) / re.Latency
				}
				b.ReportMetric(imp, "improv-%")
			})
		}
	}
}

// benchFigure regenerates one of the bar-chart figures (5-7) — grid run
// plus chart rendering.
func benchFigure(b *testing.B, d experiments.Design, title string) {
	for i := 0; i < b.N; i++ {
		g, err := experiments.RunGrid(d, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		thr, lat := experiments.Figure(g, title)
		thr.Render(io.Discard)
		lat.Render(io.Discard)
	}
}

// BenchmarkFigure5 regenerates Figure 5 (embedded-I/O bar charts).
func BenchmarkFigure5(b *testing.B) { benchFigure(b, experiments.Embedded, "Figure 5") }

// BenchmarkFigure6 regenerates Figure 6 (separate-I/O bar charts).
func BenchmarkFigure6(b *testing.B) { benchFigure(b, experiments.Separate, "Figure 6") }

// BenchmarkFigure7 regenerates Figure 7 (combined-task bar charts).
func BenchmarkFigure7(b *testing.B) { benchFigure(b, experiments.Combined, "Figure 7") }

// BenchmarkFigure8 regenerates Figure 8 (7-task vs 6-task comparison).
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emb, err := experiments.RunGrid(experiments.Embedded, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		comb, err := experiments.RunGrid(experiments.Combined, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		thr, lat := experiments.Figure8(emb, comb)
		thr.Render(io.Discard)
		lat.Render(io.Discard)
	}
}

// ---- Ablations (DESIGN.md Section 4) ----

// BenchmarkAblationPrefetchDepth sweeps the asynchronous read prefetch
// window on the bottlenecked configuration.
func BenchmarkAblationPrefetchDepth(b *testing.B) {
	p, err := experiments.Build(experiments.Embedded, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			opts := benchOpts()
			opts.PrefetchDepth = depth
			var last *pipesim.Result
			for i := 0; i < b.N; i++ {
				last, err = pipesim.Measure(p, machine.Paragon(), pfs.ParagonPFS(16), opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.Throughput, "CPIs/s")
		})
	}
}

// BenchmarkAblationStripeFactor sweeps the stripe factor at the largest
// node case, locating the point where the file system stops being the
// bottleneck.
func BenchmarkAblationStripeFactor(b *testing.B) {
	p, err := experiments.Build(experiments.Embedded, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, sf := range []int{4, 8, 16, 32, 64, 128, 256} {
		b.Run(fmt.Sprintf("stripe%d", sf), func(b *testing.B) {
			var last *pipesim.Result
			for i := 0; i < b.N; i++ {
				last, err = pipesim.Measure(p, machine.Paragon(), pfs.ParagonPFS(sf), benchOpts())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.Throughput, "CPIs/s")
		})
	}
}

// BenchmarkAblationMergePairs tries combining other spatially adjacent
// task pairs, confirming the paper's choice of PC+CFAR and that the
// read+Doppler merge is exactly the embedded design.
func BenchmarkAblationMergePairs(b *testing.B) {
	prof := machine.Paragon()
	fsCfg := pfs.ParagonPFS(64)
	sep, err := experiments.Build(experiments.Separate, 1)
	if err != nil {
		b.Fatal(err)
	}
	pairs := []struct {
		name string
		i, j int
	}{
		{"read+doppler", 0, 1},
		{"doppler+easyweight", 1, 2},
		{"pc+cfar", 6, 7},
	}
	for _, pr := range pairs {
		b.Run(pr.name, func(b *testing.B) {
			m, err := sep.Merge(pr.i, pr.j)
			if err != nil {
				b.Fatal(err)
			}
			var last *pipesim.Result
			for i := 0; i < b.N; i++ {
				last, err = pipesim.Measure(m, prof, fsCfg, benchOpts())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.Latency*1e3, "latency-ms")
			b.ReportMetric(last.Throughput, "CPIs/s")
		})
	}
}

// BenchmarkAblationStripeUnit sweeps the stripe unit size at a fixed
// stripe factor: smaller units raise per-request overhead, larger ones
// reduce parallel spread for partial reads.
func BenchmarkAblationStripeUnit(b *testing.B) {
	p, err := experiments.Build(experiments.Embedded, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, unit := range []int64{16 << 10, 64 << 10, 256 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("unit%dKiB", unit>>10), func(b *testing.B) {
			cfg := pfs.ParagonPFS(16)
			cfg.StripeUnit = unit
			var last *pipesim.Result
			for i := 0; i < b.N; i++ {
				last, err = pipesim.Measure(p, machine.Paragon(), cfg, benchOpts())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.Throughput, "CPIs/s")
		})
	}
}

// BenchmarkAblationRadarWriter measures the cost of the radar concurrently
// refilling the staging files while the pipeline reads them (the paper's
// round-robin staggering scenario), per stripe factor.
func BenchmarkAblationRadarWriter(b *testing.B) {
	p, err := experiments.Build(experiments.Embedded, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, sf := range []int{16, 64} {
		for _, writer := range []bool{false, true} {
			name := fmt.Sprintf("stripe%d/writer=%v", sf, writer)
			b.Run(name, func(b *testing.B) {
				opts := benchOpts()
				if writer {
					opts.RadarWriteBytes = 16 << 20
				}
				var last *pipesim.Result
				for i := 0; i < b.N; i++ {
					last, err = pipesim.Run(p, machine.Paragon(), pfs.ParagonPFS(sf), opts)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(last.Throughput, "CPIs/s")
			})
		}
	}
}

// BenchmarkAblationReportOutput measures the cost of persisting detection
// reports from the CFAR task, async vs sync file systems.
func BenchmarkAblationReportOutput(b *testing.B) {
	base, err := experiments.Build(experiments.Embedded, 2)
	if err != nil {
		b.Fatal(err)
	}
	withOut, err := core.AttachReportOutput(base, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	async := pfs.ParagonPFS(64)
	sync := async
	sync.Async = false
	sync.Name = "PFS-64-sync"
	for _, cfg := range []struct {
		name string
		p    *core.Pipeline
		fs   pfs.Config
	}{
		{"async/no-reports", base, async},
		{"async/reports", withOut, async},
		{"sync/no-reports", base, sync},
		{"sync/reports", withOut, sync},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var last *pipesim.Result
			for i := 0; i < b.N; i++ {
				var err error
				last, err = pipesim.Measure(cfg.p, machine.Paragon(), cfg.fs, benchOpts())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.Throughput, "CPIs/s")
			b.ReportMetric(last.Latency*1e3, "latency-ms")
		})
	}
}

// BenchmarkAblationStaggers sweeps the PRI-stagger count: more staggers
// raise the hard bins' adaptive degrees of freedom (and the Doppler and
// weight workloads with them).
func BenchmarkAblationStaggers(b *testing.B) {
	for _, k := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("staggers%d", k), func(b *testing.B) {
			p := experiments.PaperParams()
			p.Staggers = k
			w := stap.ComputeWorkloads(&p)
			pipe, err := core.BuildEmbedded(w, experiments.BaseNodes().Scale(2))
			if err != nil {
				b.Fatal(err)
			}
			var last *pipesim.Result
			for i := 0; i < b.N; i++ {
				last, err = pipesim.Measure(pipe, machine.Paragon(), pfs.ParagonPFS(64), benchOpts())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.Throughput, "CPIs/s")
			b.ReportMetric(last.Latency*1e3, "latency-ms")
		})
	}
}

// ---- End-to-end records the ledger does not cover ----

// BenchmarkDetectionPerformance measures end-to-end Pd/Pfa of the full
// chain per CFAR variant via Monte-Carlo trials (reported as metrics).
func BenchmarkDetectionPerformance(b *testing.B) {
	sc := &radar.Scenario{
		Dims:       cube.Dims{Channels: 4, Pulses: 17, Ranges: 64},
		PulseLen:   8,
		Bandwidth:  0.8,
		NoisePower: 1,
		Targets:    []radar.Target{{Angle: 0, Doppler: 0.25, Range: 20, SNR: 12}},
		Clutter:    radar.Clutter{Patches: 8, CNR: 20, Beta: 1},
		Seed:       99,
	}
	for _, kind := range []stap.CFARKind{stap.CFARCellAveraging, stap.CFARGreatestOf, stap.CFAROrderedStatistic} {
		b.Run(kind.String(), func(b *testing.B) {
			p := stap.DefaultParams(sc.Dims)
			p.PulseLen = sc.PulseLen
			p.Bandwidth = sc.Bandwidth
			p.CFAR.Kind = kind
			p.CFAR.ThresholdDB = 13
			cfg := stap.DefaultMCConfig()
			cfg.Trials = 6
			var stats stap.MCStats
			for i := 0; i < b.N; i++ {
				var err error
				stats, err = stap.MonteCarlo(sc, p, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(stats.Pd(), "Pd")
			b.ReportMetric(stats.Pfa()*1e6, "Pfa-ppm")
		})
	}
}

// BenchmarkRealPipelineIODesigns compares the two I/O designs and task
// combination on the real executor with real striped files — the
// wall-clock analogue of Tables 1-3.
func BenchmarkRealPipelineIODesigns(b *testing.B) {
	s := radar.SmallTestScenario()
	root := b.TempDir()
	fs, err := pfs.CreateReal(root, 4, 4096, true)
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	const files = 4
	if _, err := radar.WriteDataset(fs, s, files, files, false); err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name     string
		separate bool
		combine  bool
	}{
		{"embedded", false, false},
		{"separate", true, false},
		{"combined", false, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			p := stap.DefaultParams(s.Dims)
			p.PulseLen = s.PulseLen
			p.Bandwidth = s.Bandwidth
			pc := pipexec.Config{
				Params: p,
				Workers: core.STAPNodes{
					Doppler: 2, EasyWeight: 1, HardWeight: 1,
					EasyBF: 2, HardBF: 1, PulseComp: 2, CFAR: 1,
				},
				SeparateIO:    cfg.separate,
				CombinePCCFAR: cfg.combine,
			}
			src, err := pipexec.NewFileSource(fs, s.Dims, files)
			if err != nil {
				b.Fatal(err)
			}
			var last *pipexec.Result
			for i := 0; i < b.N; i++ {
				last, err = pipexec.Run(context.Background(), pc, src, 8)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.SteadyThroughput(), "CPIs/s")
			b.ReportMetric(float64(last.MeanLatency().Microseconds())/1e3, "latency-ms")
		})
	}
}

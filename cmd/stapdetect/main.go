// Command stapdetect runs the real parallel pipelined STAP system — actual
// Doppler filtering, adaptive beamforming, pulse compression, and CFAR on
// synthetic radar data — and prints the detection reports.
//
//	stapdetect -small -cpis 4                     # in-memory small scenario
//	stapdetect -cpis 3                            # paper-scale, in-memory
//	stapdetect -data /tmp/stap-data -stripedirs 16 -cpis 4   # from striped files
//	stapdetect -separate-io -combine-pc-cfar ...  # pipeline variants
//	stapdetect -data ... -faults fail=0.05,corrupt=0.01,seed=42 -degrade skip
//	                                              # fault injection + resilience
//	stapdetect -data ... -separate-io -readahead 4 -decodeworkers 4
//	                                              # deep readahead, parallel decode/verify
//	stapdetect -small -cpis 200 -autotune -budget 14 -stagestats
//	                                              # online worker rebalancing + histograms
//	stapdetect -small -workers-per-stage dop=3,wh=4,cfar=1
//	                                              # hand-picked per-stage split
//	stapdetect -data ... -membudget 256M -readahead 8
//	                                              # hard residency budget, evicting to the source
//	stapdetect -data ... -membudget 16M -band 64  # out-of-core banded execution
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"

	"stapio/internal/core"
	"stapio/internal/cube"
	"stapio/internal/membudget"
	"stapio/internal/pfs"
	"stapio/internal/pipexec"
	"stapio/internal/radar"
	"stapio/internal/stap"
	"stapio/internal/tune"
)

func main() {
	var (
		small    = flag.Bool("small", false, "use the small test scenario")
		cpis     = flag.Int("cpis", 4, "CPIs to process")
		data     = flag.String("data", "", "read CPIs from this striped dataset root (see pfsgen) instead of memory")
		dirs     = flag.Int("stripedirs", 16, "stripe factor of the dataset")
		unit     = flag.Int64("unit", 64<<10, "stripe unit of the dataset")
		files    = flag.Int("files", radar.DefaultFileCount, "round-robin staging files in the dataset")
		sepIO    = flag.Bool("separate-io", false, "use the separate I/O task design")
		combine  = flag.Bool("combine-pc-cfar", false, "combine pulse compression and CFAR into one task")
		workers  = flag.Int("workers", 2, "worker goroutines per task (uniform split)")
		perStage = flag.String("workers-per-stage", "", `per-stage worker counts overriding -workers, e.g. "dop=3,wh=4,cfar=1" (dop we wh bfe bfh pc cfar io)`)
		autotune = flag.Bool("autotune", false, "rebalance the worker budget online against measured per-stage service times")
		budget   = flag.Int("budget", 0, "autotune worker budget; 0 keeps the sum of the configured per-stage counts")
		stats    = flag.Bool("stagestats", false, "print per-stage service-time histograms (p50/p90/max)")
		maxPrint = flag.Int("max-print", 12, "maximum detections printed per CPI")
		cfarKind = flag.String("cfar", "ca", "CFAR variant: ca | goca | soca | os")
		staggers = flag.Int("staggers", 0, "PRI stagger count (0 = the paper's 2)")
		faults   = flag.String("faults", "", `inject faults into the striped reads, e.g. "fail=0.05,corrupt=0.01,seed=42" (requires -data)`)
		degrade  = flag.String("degrade", "failfast", "degradation policy once retries are exhausted: failfast | skip | lastgood")
		retries  = flag.Int("retries", 3, "read attempts per CPI before the degradation policy applies")
		stream   = flag.Bool("stream", false, "feed the pipeline through the streaming CubeSource (pooled slabs, credit-windowed producer) instead of per-CPI generation")
		rdAhead  = flag.Int("readahead", 1, "readahead depth: striped reads kept in flight beyond the CPI being consumed")
		decodeW  = flag.Int("decodeworkers", 1, "goroutines sharding each cube's checksum verify and decode")
		memBud   = flag.String("membudget", "", `hard byte budget for cube + intermediate residency, e.g. "256M" or "1G" (empty = unlimited; residency is still tracked). Under pressure, prefetched cubes are evicted and re-read from the dataset or generator when needed (not with -stream)`)
		band     = flag.Int("band", 0, "out-of-core banded execution: stream each CPI through the pipeline as range-bin bands of this many bins, peak residency O(band) instead of O(cube); every pipeline option applies, with -readahead counted in bands (0 = whole cubes)")
		traceOut = flag.String("tunetrace", "", "write the auto-tuner's full decision log (no-op windows included) as JSON to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		memProf  = flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fatal(err)
			}
		}()
	}

	sc := radar.PaperScenario()
	if *small {
		sc = radar.SmallTestScenario()
	}
	params := stap.DefaultParams(sc.Dims)
	params.PulseLen = sc.PulseLen
	params.Bandwidth = sc.Bandwidth
	params.Staggers = *staggers
	switch *cfarKind {
	case "ca":
		params.CFAR.Kind = stap.CFARCellAveraging
	case "goca":
		params.CFAR.Kind = stap.CFARGreatestOf
	case "soca":
		params.CFAR.Kind = stap.CFARSmallestOf
	case "os":
		params.CFAR.Kind = stap.CFAROrderedStatistic
	default:
		fatal(fmt.Errorf("unknown CFAR variant %q", *cfarKind))
	}

	policy, err := pipexec.ParseDegradePolicy(*degrade)
	if err != nil {
		fatal(err)
	}
	w := *workers
	split := core.STAPNodes{
		Doppler: w, EasyWeight: w, HardWeight: w,
		EasyBF: w, HardBF: w, PulseComp: w, CFAR: w,
	}
	if *perStage != "" {
		split, err = core.ParseWorkerSpec(*perStage, split)
		if err != nil {
			fatal(err)
		}
	}
	cfg := pipexec.Config{
		Params:        params,
		Workers:       split,
		SeparateIO:    *sepIO,
		CombinePCCFAR: *combine,
		Degrade:       policy,
		Retry:         pipexec.RetryPolicy{MaxAttempts: *retries},
		ReadAhead:     *rdAhead,
		DecodeWorkers: *decodeW,
	}
	if *autotune {
		cfg.AutoTune = &tune.Config{Budget: *budget}
	} else if *budget != 0 {
		fatal(fmt.Errorf("-budget needs -autotune"))
	}
	if *traceOut != "" && !*autotune {
		fatal(fmt.Errorf("-tunetrace needs -autotune"))
	}
	if *memBud != "" {
		n, err := membudget.ParseBytes(*memBud)
		if err != nil {
			fatal(err)
		}
		cfg.MemBudget = membudget.New("stapdetect", n)
	}
	cfg.BandRanges = *band

	var (
		src     pipexec.CubeSource
		fileSrc *pipexec.FileSource
	)
	if *data != "" {
		fs, err := pfs.CreateReal(*data, *dirs, *unit, true)
		if err != nil {
			fatal(err)
		}
		defer fs.Close()
		if *faults != "" {
			plan, err := pfs.ParseFaultSpec(*faults)
			if err != nil {
				fatal(err)
			}
			fs.SetFaults(plan)
			fmt.Printf("injecting faults: %v; degradation policy %v, %d read attempts\n",
				plan, policy, cfg.Retry.MaxAttempts)
		}
		fsrc, err := pipexec.NewFileSource(fs, sc.Dims, *files)
		if err != nil {
			fatal(err)
		}
		src, fileSrc = fsrc, fsrc
		fmt.Printf("reading %v CPIs from striped dataset %s (stripe factor %d)\n", sc.Dims, *data, *dirs)
	} else {
		if *faults != "" {
			fatal(fmt.Errorf("-faults injects into the striped file system and needs -data"))
		}
		if *stream {
			// The streaming frontend: a credit-windowed producer publishes
			// into pooled slabs, the same source the detection service feeds
			// from the network. The window tracks the (possibly autotuned)
			// readahead depth so the producer stays ahead of the pipeline.
			window := cfg.ReadAhead + 1
			gen := pipexec.NewGeneratorSource(sc.Dims, window, sc.Generate)
			defer gen.Close()
			src = gen
			fmt.Printf("streaming %v CPIs through pooled slabs (producer window %d)\n", sc.Dims, window)
		} else {
			src = pipexec.ScenarioSource(sc)
			fmt.Printf("generating %v CPIs in memory\n", sc.Dims)
		}
	}

	var res *pipexec.Result
	if *band > 0 {
		if *stream {
			fatal(fmt.Errorf("-band reads range bands from -data or the generator; -stream delivers whole cubes"))
		}
		bsrc := pipexec.BandedSource(fileSrc)
		if fileSrc == nil {
			bsrc = bandedScenarioSource(sc)
		}
		fmt.Printf("banded execution: %d range bins per band\n", *band)
		res, err = pipexec.RunBanded(context.Background(), cfg, bsrc, *cpis)
	} else {
		res, err = pipexec.Run(context.Background(), cfg, src, *cpis)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("processed %d CPIs in %v — throughput %.2f CPIs/s, mean latency %v\n",
		len(res.CPIs), res.Elapsed.Round(1e6), res.Throughput, res.MeanLatency().Round(1e6))
	st := res.Stats
	if *faults != "" || st.Retries+st.Drops+st.ChecksumFailures+st.WeightFallbacks+st.ChunkRereads > 0 {
		fmt.Printf("resilience: %v\n", st)
		if len(st.DroppedSeqs) > 0 {
			fmt.Printf("  dropped CPIs: %v\n", st.DroppedSeqs)
		}
	}
	if *data != "" {
		fmt.Printf("I/O frontend: readahead=%d decode-workers=%d source-stalls=%d (%v stalled) window-occupancy %.2f\n",
			st.FinalReadAhead, st.FinalDecodeWorkers, st.SourceStalls, st.SourceStall.Round(1e6), st.ReadaheadReady)
	}
	if *memBud != "" {
		lim := "unlimited"
		if st.MemLimit > 0 {
			lim = membudget.FormatBytes(st.MemLimit)
		}
		fmt.Printf("memory: budget %s, high water %s, budget stalls %d (%v stalled), evictions %d (%s re-fetched)\n",
			lim, membudget.FormatBytes(st.MemHighWater), st.MemStalls, st.MemStall.Round(1e6),
			st.Evictions, membudget.FormatBytes(st.RefetchBytes))
	}
	fmt.Println("per-stage busy time (mean per CPI):")
	for _, st := range res.Stages {
		fmt.Printf("  %-18s %v\n", st.Name, st.MeanBusy().Round(1e5))
	}
	if *stats {
		fmt.Println("per-stage service-time histograms:")
		for _, h := range res.Stats.StageTimes {
			fmt.Printf("  %v\n", h)
		}
	}
	if *autotune {
		applied := 0
		for _, d := range res.Stats.TuneDecisions {
			if d.Applied {
				applied++
			}
		}
		fmt.Printf("autotune: %d decisions (%d applied), final split %s\n",
			len(res.Stats.TuneDecisions), applied, pipexec.FormatSplit(res.Stats.TuneStages, res.Stats.TuneFinalSplit))
		for _, d := range res.Stats.TuneDecisions {
			if !d.Applied {
				continue
			}
			fmt.Printf("  CPI %-5d %s -> %s (bottleneck %s, %v/CPI)\n",
				d.CPI, pipexec.FormatSplit(res.Stats.TuneStages, d.Old),
				pipexec.FormatSplit(res.Stats.TuneStages, d.New),
				res.Stats.TuneStages[d.Bottleneck], d.Service[d.Bottleneck].Round(1e4))
		}
		if *traceOut != "" {
			// The full log, no-op windows included — a trace showing zero
			// applied rebalances still explains itself (warmup, hysteresis,
			// starved windows) instead of being silently empty.
			trace := struct {
				Stages     []string        `json:"stages"`
				FinalSplit []int           `json:"final_split"`
				MemBudget  int64           `json:"mem_budget"`
				Decisions  []tune.Decision `json:"decisions"`
			}{res.Stats.TuneStages, res.Stats.TuneFinalSplit, res.Stats.MemLimit, res.Stats.TuneDecisions}
			b, err := json.MarshalIndent(trace, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*traceOut, append(b, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("decision log (%d entries) written to %s\n", len(res.Stats.TuneDecisions), *traceOut)
		}
	}
	fmt.Printf("ground truth: %d injected targets\n", len(sc.Targets))
	for _, tg := range sc.Targets {
		fmt.Printf("  angle=%.2f doppler=%.3f range=%d snr=%.1fdB -> expected bin %d\n",
			tg.Angle, tg.Doppler, tg.Range, tg.SNR, params.BinForDoppler(tg.Doppler))
	}
	for _, c := range res.CPIs {
		dets := stap.ClusterDetections(c.Detections, 4)
		fmt.Printf("CPI %d: %d detections (%d clustered), latency %v\n",
			c.Seq, len(c.Detections), len(dets), c.Latency.Round(1e6))
		for i, d := range dets {
			if i >= *maxPrint {
				fmt.Printf("  ... %d more\n", len(dets)-i)
				break
			}
			fmt.Printf("  beam=%d doppler-bin=%-3d range=%-4d power=%8.1f snr=%.1fdB\n",
				d.Beam, d.Bin, d.Range, d.Power, d.SNR(&params))
		}
	}
}

// bandedScenarioSource adapts an in-memory generator scenario to banded
// execution: the full cube is synthesised once per CPI and bands are copied
// out of it. Real out-of-core runs come from -data, where ReadBand fetches
// only the band's chunks; this adapter exists so -band is demonstrable
// without staging a dataset.
func bandedScenarioSource(sc *radar.Scenario) pipexec.BandedSource {
	var (
		mu   sync.Mutex // band reads overlap under readahead
		seq  = ^uint64(0)
		full *cube.Cube
	)
	return pipexec.FuncBandSource(func(k uint64, lo, hi int, dst *cube.Cube) error {
		mu.Lock()
		defer mu.Unlock()
		if k != seq {
			cb, err := sc.Generate(k)
			if err != nil {
				return err
			}
			full, seq = cb, k
		}
		return stap.CopyBand(dst, full, lo)
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stapdetect:", err)
	os.Exit(1)
}

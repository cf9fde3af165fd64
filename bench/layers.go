package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"syscall"
	"time"

	"stapio/internal/core"
	"stapio/internal/fleet"
	"stapio/internal/machine"
	"stapio/internal/pfs"
	"stapio/internal/pipexec"
	"stapio/internal/serve"
	"stapio/internal/stap"
	"stapio/internal/tune"
)

// Shares of --seconds a traced run gives its alternating blocks and each
// of its extra legs (the walk is a fixed CPI count).
const (
	tracedBlocks     = 6 // untraced, traced, untraced, ...
	tracedBlockShare = 0.5
	legShare         = 0.25 // the file workloads' one extra leg
	serveLegShare    = 0.07 // each of the service's six extra legs
)

// ladder is the fixed open-loop rates the service is measured at.
var ladder = []int{150, 300, 600}

// stageAgg sums per-stage busy time over several runs. Busy time is divided
// by the CPIs the runs completed (cpis), not by StageStat.CPIs: the banded
// executor's clocks tick once per band, and the source clocks once per
// fetch.
type stageAgg struct {
	busy map[string]time.Duration
	cpis int
}

func (a *stageAgg) add(res *pipexec.Result) {
	if a.busy == nil {
		a.busy = make(map[string]time.Duration)
	}
	for _, st := range res.Stages {
		if key, ok := stageKey[st.Name]; ok {
			a.busy[key] += st.Busy
		}
	}
}

// perCPI is the stage's mean busy time per CPI in seconds.
func (a *stageAgg) perCPI(key string) float64 {
	if a.cpis == 0 {
		return 0
	}
	return a.busy[key].Seconds() / float64(a.cpis)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runTraced is the --trace 1 run: the walk, alternating untraced/traced
// blocks whose exported statistics are read afterwards, and the workload's
// extra legs. Spans are written out when the run ends.
func runTraced(ctx context.Context, o options, tl *tally, log io.Writer) (map[string]float64, error) {
	w := o.w
	tr := newTracer()
	e, err := setUp(ctx, w, o.seed, tl, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.tearDown()
	m := make(map[string]float64)

	// Leg 1: the walk.
	ws, err := e.walk(tr, w.walkK, tl)
	if err != nil {
		return nil, err
	}
	kernelSum, chainMs := e.walkMetrics(m, tr, ws)

	// Leg 2: alternating untraced/traced blocks.
	n := blockSize(e.warmRate, time.Duration(tracedBlockShare*float64(o.seconds))/tracedBlocks)
	var (
		plain, traced []float64
		runs          []*pipexec.Result
		lat           []time.Duration
		load          loadStats
		cpis          int
		wall, cpu     time.Duration
		reportBusy    time.Duration
		reports       int64
	)
	for i := 0; i < tracedBlocks; i++ {
		if i%2 == 1 {
			b := e.block(ctx, n, tl, tr)
			traced = append(traced, b.rate())
			continue
		}
		c0 := cpuTime()
		b := e.block(ctx, n, tl, nil)
		cpu += cpuTime() - c0
		if b.err != nil {
			fmt.Fprintf(log, "stapledger: block %d: %v\n", i, b.err)
		}
		plain = append(plain, b.rate())
		cpis += b.n
		wall += b.elapsed
		lat = append(lat, b.lat...)
		reportBusy, reports = reportBusy+b.reportBusy, reports+b.reports
		if b.res != nil {
			runs = append(runs, b.res)
		}
		if b.load != nil {
			load.clientLat = append(load.clientLat, b.load.clientLat...)
			load.serverLat = append(load.serverLat, b.load.serverLat...)
			load.submitBusy += b.load.submitBusy
		}
	}
	rate := median(plain)
	m["trace.overhead_ratio"] = ratio(median(traced), rate)
	m["proc.cpu_ms_per_cpi"] = ratio(ms(cpu), float64(cpis))
	m["pfs.report_write_ms"] = ratio(ms(reportBusy), float64(reports))
	sorted := sortedMs(lat)
	m["diag.cpis_per_s"] = rate
	m["diag.latency_p50_ms"] = percentile(sorted, 50)
	m["diag.tail_percentile"] = float64(pickTail(len(sorted)))
	m["diag.latency_p90_ms"] = percentile(sorted, pickTail(len(sorted)))
	m["diag.latency_p99_ms"] = percentile(sorted, 99)
	m["pipexec.speedup_vs_chain"] = ratio(rate*chainMs, 1000)

	// Leg 3: the workload's extra legs.
	leg := time.Duration(legShare * float64(o.seconds))
	switch {
	case w.served:
		if err := e.serveLegs(ctx, o, rate, &load, tl, m); err != nil {
			return nil, err
		}
		// The replica's pipeline summary only exists once it has stopped.
		e.stop()
		st := e.srv.Stats()
		for _, c := range st.Rejected {
			m["serve.rejected"] += float64(c)
		}
		m["serve.repair_reqs"] = float64(st.RepairReqs)
		if len(st.Replicas) > 0 && st.Replicas[0].Pipeline != nil {
			runs = []*pipexec.Result{st.Replicas[0].Pipeline}
			cpis, wall = int(st.Completed), st.Replicas[0].Pipeline.Elapsed
		}
	case w.banded:
		full := w.config(e.params)
		full.BandRanges = 0
		b := e.fileBlock(ctx, full, blockSize(e.warmRate, leg), tl, nil)
		if b.err != nil {
			return nil, fmt.Errorf("full-cube leg: %w", b.err)
		}
		m["pipexec.banded_over_full_ratio"] = ratio(rate, b.rate())
	case w.faults != nil:
		cold := w.config(e.params)
		cold.ReadAhead, cold.DecodeWorkers = 1, 1
		cold.AutoTune = &tune.Config{Interval: 4, Warmup: 4, Budget: 16}
		nt := blockSize(e.warmRate, leg)
		b := e.fileBlock(ctx, cold, nt, tl, nil)
		if b.err != nil {
			return nil, fmt.Errorf("autotune leg: %w", b.err)
		}
		for _, d := range b.res.Stats.TuneDecisions {
			if d.Applied {
				m["tune.rebalances"]++
			}
		}
		m["tune.final_readahead"] = float64(b.res.Stats.FinalReadAhead)
		m["tune.final_decode_workers"] = float64(b.res.Stats.FinalDecodeWorkers)
		m["tune.whole_over_tail_ratio"] = ratio(b.res.SteadyThroughput(), b.res.SteadyTail(nt/3))
	}

	agg := execMetrics(m, runs, cpis, wall, kernelSum)
	if thr, latency, err := model(w, &e.params, agg); err != nil {
		fmt.Fprintf(log, "stapledger: model: %v\n", err)
	} else {
		// The stage times are means over the untraced blocks, so the rate
		// they are compared with is too (the service's cover its whole
		// life; there the closed-loop median stands).
		observed := rate
		if !w.served {
			observed = ratio(float64(cpis), wall.Seconds())
		}
		m["pipexec.model_throughput_ratio"] = ratio(observed, thr)
		if !w.served { // the service's latencies include the wire; the model's do not
			m["pipexec.model_latency_ratio"] = ratio(percentile(sorted, 50)/1000, latency)
		}
	}
	if e.plan != nil {
		fs := e.plan.Stats()
		m["pfs.slow_injected"] = float64(fs.Slowdowns)
		m["pfs.corrupt_injected"] = float64(fs.Corruptions)
	}
	m["diag.failed_share"] = ratio(float64(tl.failed.Load()), float64(tl.attempted.Load()))

	if o.outDir != "" {
		path := filepath.Join(o.outDir, "trace-"+w.name+".json")
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(log, "stapledger: %d spans written to %s\n", len(tr.spans), path)
	}
	return m, nil
}

// walkMetrics turns the walk's spans (and the set-up's) into the per-call
// layer metrics. It returns the kernel sum and the chain time per CPI in
// milliseconds, which later ratios are taken against.
func (e *env) walkMetrics(m map[string]float64, tr *tracer, ws walkStats) (kernelSum, chainMs float64) {
	sum, count := tr.totals()
	per := func(name string, div int) float64 {
		if div == 0 {
			return 0
		}
		return ms(sum[name]) / float64(div)
	}
	m["radar.generate_ms_per_cube"] = per("radar.generate", count["radar.generate"])
	m["radar.encode_ms_per_cube"] = ms(e.encodeCPIs) / float64(e.w.files)
	m["pfs.read_ms_per_cube"] = per("pfs.read", count["pfs.read"])
	m["pfs.read_mib_per_s"] = ratio(float64(ws.readBytes)/(1<<20), sum["pfs.read"].Seconds())
	m["pfs.write_ms_per_cube"] = per("pfs.write", count["pfs.write"])
	m["cube.verify_ms_per_cube"] = per("cube.verify", count["cube.verify"])
	m["cube.decode_ms_per_cube"] = per("cube.decode", ws.k)
	m["cube.encode_ms_per_cube"] = per("cube.encode", count["cube.encode"])
	m["cube.bytes_per_cube"] = float64(len(e.frames[0]))
	m["signal.fft_doppler_us"] = us(ws.fftDoppler)
	m["signal.fft_pulsecomp_us"] = us(ws.fftPulse)
	m["linalg.solve_hard_us"] = us(ws.solveHard)
	for _, k := range []string{"doppler", "cov_easy", "cov_hard", "weights_easy", "weights_hard",
		"beamform_easy", "beamform_hard", "pulsecomp", "cfar"} {
		v := per("stap."+k, ws.k)
		m["stap."+k+"_ms"] = v
		kernelSum += v
	}
	chainMs = per("stap.chain", ws.k)
	m["stap.kernel_sum_ms"] = kernelSum
	m["stap.chain_ms"] = chainMs
	m["stap.chain_allocs_per_cpi"] = float64(ws.chainAllocs) / float64(ws.k)
	m["stap.flops_per_cpi"] = stap.ComputeWorkloads(&e.params).TotalFlops() // computed from the kernels' structure, not counted
	m["stap.doppler_band_ms"] = per("stap.doppler_band", ws.k)
	m["stap.cov_band_ms"] = per("stap.cov_band", ws.k)
	m["stap.beamform_band_ms"] = per("stap.beamform_band", ws.k)
	m["pipexec.readband_ms_per_cpi"] = per("pipexec.readband", ws.k)
	return kernelSum, chainMs
}

// execMetrics reads what the executor's own statistics say about runs (the
// untraced blocks; on the service the replica's whole life), which
// completed cpis CPIs in wall.
func execMetrics(m map[string]float64, runs []*pipexec.Result, cpis int, wall time.Duration, kernelSum float64) *stageAgg {
	agg := stageAgg{cpis: cpis}
	var stall, memStall time.Duration
	var ready, peak, limit float64
	for _, r := range runs {
		agg.add(r)
		s := r.Stats
		stall += s.SourceStall
		memStall += s.MemStall
		ready += s.ReadaheadReady / float64(len(runs))
		m["pipexec.retries"] += float64(s.Retries)
		m["pipexec.chunk_rereads"] += float64(s.ChunkRereads)
		m["pipexec.repaired_reads"] += float64(s.RepairedReads)
		m["pipexec.drops"] += float64(s.Drops)
		m["membudget.stalls"] += float64(s.MemStalls)
		if hw := float64(s.MemHighWater); hw > peak {
			peak = hw
		}
		limit = float64(s.MemLimit)
	}
	var stageSum float64
	for key := range agg.busy {
		v := agg.perCPI(key) * 1000
		m["pipexec.stage."+key+".busy_ms"] = v
		if key != "read" && key != "src_read" && key != "src_decode" {
			stageSum += v
		}
	}
	m["pipexec.stage_over_kernel_ratio"] = ratio(stageSum, kernelSum)
	m["pipexec.source_stall_ms_per_cpi"] = ratio(ms(stall), float64(cpis))
	m["pipexec.source_stall_share"] = ratio(stall.Seconds(), wall.Seconds())
	m["pipexec.readahead_ready"] = ready
	m["membudget.stall_ms_per_cpi"] = ratio(ms(memStall), float64(cpis))
	m["membudget.high_water_over_limit"] = ratio(peak, limit)
	return &agg
}

// model feeds the measured per-CPI stage times through the paper's
// equations: throughput = 1/max T_i and latency along the critical path
// (core.Analyze on the workload's own task graph, each task's work set to
// its measured seconds on a one-flop-per-second machine with free
// communication). The banded executor runs its stages one after another,
// so there the model is the sum.
func model(w *workload, p *stap.Params, a *stageAgg) (throughput, latency float64, err error) {
	t := a.perCPI
	stages := []float64{t("doppler"), t("easy_weight"), t("hard_weight"), t("easy_bf"), t("hard_bf"), t("pulse_compr"), t("cfar")}
	if w.banded {
		total := t("read")
		for _, s := range stages {
			total += s
		}
		if total == 0 {
			return 0, 0, fmt.Errorf("no stage times")
		}
		return 1 / total, total, nil
	}
	cfg := w.config(*p)
	one := core.STAPNodes{Doppler: 1, EasyWeight: 1, HardWeight: 1, EasyBF: 1, HardBF: 1, PulseComp: 1, CFAR: 1, IO: 1}
	var pl *core.Pipeline
	if cfg.SeparateIO {
		pl, err = core.BuildSeparate(stap.ComputeWorkloads(p), one)
		stages = append([]float64{t("read")}, stages...)
	} else {
		// Embedded I/O: the head task both waits for the read and filters.
		// On the service that wait is the closed-loop producer's think
		// time, not I/O service, and stays out.
		pl, err = core.BuildEmbedded(stap.ComputeWorkloads(p), one)
		if !w.served {
			stages[0] += t("read")
		}
	}
	if err != nil {
		return 0, 0, err
	}
	if len(pl.Tasks) != len(stages) {
		return 0, 0, fmt.Errorf("task graph has %d tasks, measured %d stages", len(pl.Tasks), len(stages))
	}
	for i := range pl.Tasks {
		task := &pl.Tasks[i]
		task.Flops, task.ReadBytes, task.WriteBytes = stages[i]*1e6, 0, 0
		for j := range task.Deps {
			task.Deps[j].Bytes = 0
		}
	}
	an, err := core.Analyze(pl, machine.Profile{Name: "measured", NodeMFlops: 1, NodeBandwidth: 1}, pfs.Config{})
	if err != nil {
		return 0, 0, err
	}
	return an.Throughput, an.Latency, nil
}

// serveLegs runs the service workload's extra legs: the framed submit
// path, the open-loop rate ladder, the same cadence through a fleet client
// over the one server, and the pipeline fed in-process. rate is the
// streamed closed-loop rate of the untraced blocks, load their pooled
// generator accounting.
func (e *env) serveLegs(ctx context.Context, o options, rate float64, load *loadStats, tl *tally, m map[string]float64) error {
	leg := time.Duration(serveLegShare * float64(o.seconds))
	m["serve.submit_call_us"] = ratio(us(load.submitBusy), float64(len(load.clientLat)))
	m["serve.client_p50_ms"] = percentile(sortedMs(load.clientLat), 50)
	m["serve.server_p50_ms"] = percentile(sortedMs(load.serverLat), 50)
	wire := make([]time.Duration, len(load.clientLat))
	for i := range wire {
		wire[i] = load.clientLat[i] - load.serverLat[i]
	}
	m["serve.wire_p50_ms"] = percentile(sortedMs(wire), 50)

	framed, err := serve.Dial(e.srv.Addr().String(), serve.Options{Dims: e.scen.Dims})
	if err != nil {
		return fmt.Errorf("framed leg: %w", err)
	}
	b := e.serveBlock(directConn(framed), blockSize(rate, leg), serveWindow, 0, tl, nil)
	framed.Close()
	if b.err != nil {
		return fmt.Errorf("framed leg: %w", b.err)
	}
	m["serve.framed_over_streamed_ratio"] = ratio(b.rate(), rate)

	var directP50 float64
	m["serve.max_rate_under_limit"] = 0 // when even the lowest rate misses the limit
	for _, r := range ladder {
		b := e.serveBlock(directConn(e.cl), blockSize(float64(r), leg), serveMaxQueue, time.Second/time.Duration(r), tl, nil)
		if b.err != nil {
			return fmt.Errorf("ladder %d/s: %w", r, b.err)
		}
		sorted := sortedMs(b.lat)
		p90 := percentile(sorted, pickTail(len(sorted)))
		m[fmt.Sprintf("serve.rate%d_p90_ms", r)] = p90
		if p90 <= serveLimitMs && b.failed == 0 && !b.load.growing {
			m["serve.max_rate_under_limit"] = float64(r)
		}
		if r == serveRate {
			directP50 = percentile(sorted, 50)
			// The service's latencies are the open loop's, due to answer.
			m["diag.latency_p50_ms"] = directP50
			m["diag.tail_percentile"] = float64(pickTail(len(sorted)))
			m["diag.latency_p90_ms"] = p90
			m["diag.latency_p99_ms"] = percentile(sorted, 99)
			m["gen.late_share"] = ratio(float64(b.load.late), float64(b.n))
			m["gen.max_late_ms"] = ms(b.load.maxLate)
		}
	}

	fc, err := fleet.New(fleet.Options{
		Dims:    e.scen.Dims,
		Servers: []fleet.ServerSpec{{Addr: e.srv.Addr().String()}},
		Dial:    serve.Options{Streaming: true},
	})
	if err != nil {
		return fmt.Errorf("fleet leg: %w", err)
	}
	if _, err := fc.Connect(); err != nil {
		closeFleet(fc)
		return fmt.Errorf("fleet leg: %w", err)
	}
	if e.pairs, err = e.pairReference(); err != nil {
		closeFleet(fc)
		return fmt.Errorf("fleet leg: %w", err)
	}
	b = e.serveBlock(fleetConn(fc), blockSize(serveRate, leg), serveMaxQueue, time.Second/serveRate, tl, nil)
	e.pairs = nil
	m["fleet.failovers"] = float64(fc.Stats().Failovers)
	closeFleet(fc)
	if b.err != nil {
		return fmt.Errorf("fleet leg: %w", b.err)
	}
	m["fleet.hop_p50_ms"] = percentile(sortedMs(b.lat), 50) - directP50

	inproc, err := e.inprocStream(ctx, blockSize(rate, leg), tl)
	if err != nil {
		return fmt.Errorf("in-process leg: %w", err)
	}
	m["pipexec.inproc_stream_cpis_per_s"] = inproc
	m["serve.over_inproc_ratio"] = ratio(rate, inproc)
	return nil
}

// closeFleet closes fc; Close needs Results drained until it closes.
func closeFleet(fc *fleet.Client) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range fc.Results() {
		}
	}()
	fc.Close()
	<-done
}

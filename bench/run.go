package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"
)

// options are one invocation's arguments.
type options struct {
	w       *workload
	seed    int64
	seconds time.Duration
	trace   bool
	// outDir receives trace-<workload>.json on a traced run.
	outDir string
}

// result is what one run prints as its last line.
type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]float64
}

// measuredBlocks is how many blocks fill --seconds on a --trace 0 run.
const measuredBlocks = 5

// Share of --seconds the service workload gives its closed loop (the rest
// goes to the open loop).
const closedShare = 0.6

// blockSize is the CPI count that fills d at the warm-up rate.
func blockSize(rate float64, d time.Duration) int {
	n := int(math.Round(rate * d.Seconds()))
	if n < 2 {
		n = 2
	}
	return n
}

// runOnce sets the workload up, measures it and tears it down. The error
// reports a run that could not produce its metrics; wrong or missing CPIs
// are not errors but counts in the result.
func runOnce(ctx context.Context, o options, tl *tally, log io.Writer) (result, error) {
	var (
		m   map[string]float64
		err error
	)
	if o.trace {
		m, err = runTraced(ctx, o, tl, log)
	} else {
		m, err = runMeasured(ctx, o, tl, log)
	}
	r := result{Attempted: tl.attempted.Load(), Failed: tl.failed.Load(), Metrics: m}
	r.Correct = err == nil && r.Failed == 0 && r.Attempted > 0
	return r, err
}

// runMeasured is the --trace 0 run: set-up (repeated, for the setup_s
// median), then five measured blocks with spans off.
func runMeasured(ctx context.Context, o options, tl *tally, log io.Writer) (map[string]float64, error) {
	w := o.w
	var (
		e      *env
		setups []float64
	)
	for rep := 0; rep < w.setupReps; rep++ {
		if e != nil {
			e.tearDown()
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(ctx, w, o.seed, tl, nil); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.tearDown()

	budget := o.seconds
	if w.served {
		budget = time.Duration(closedShare * float64(o.seconds))
	}
	n := blockSize(e.warmRate, budget/measuredBlocks)

	var (
		rates, peaks []float64
		lat          []time.Duration
		cpis         int
		m0, m1       runtime.MemStats
	)
	runtime.ReadMemStats(&m0)
	for i := 0; i < measuredBlocks; i++ {
		b := e.block(ctx, n, tl, nil)
		if b.err != nil {
			fmt.Fprintf(log, "stapledger: block %d: %v\n", i, b.err)
		}
		cpis += b.n
		rates = append(rates, b.rate())
		if b.res != nil {
			peaks = append(peaks, float64(b.res.Stats.MemHighWater))
		}
		if !w.served {
			lat = append(lat, b.lat...)
		}
	}
	if w.served {
		// Phase B: the radar emits on a schedule; latency is measured from
		// when each CPI was due.
		nb := blockSize(serveRate, o.seconds-budget)
		b := e.serveBlock(directConn(e.cl), nb, serveMaxQueue, time.Second/serveRate, tl, nil)
		if b.err != nil {
			fmt.Fprintf(log, "stapledger: open-loop phase: %v\n", b.err)
		}
		cpis += b.n
		lat = b.lat
		fmt.Fprintf(log, "stapledger: open loop %d CPIs at %d/s: %d sent late, worst %.3f ms\n",
			nb, serveRate, b.load.late, ms(b.load.maxLate))
		peaks = []float64{float64(e.srv.Stats().MemHighWater)}
	}
	runtime.ReadMemStats(&m1)

	sorted := sortedMs(lat)
	tail := pickTail(len(sorted))
	fmt.Fprintf(log, "stapledger: %s seed %d: %d blocks of %d CPIs at %.4g CPIs/s, %d latencies, p50 %.6g ms, p%d %.6g ms, high water %.0f B\n",
		w.name, o.seed, measuredBlocks, n, rates, len(sorted), percentile(sorted, 50), tail, percentile(sorted, tail), peaks)
	return map[string]float64{
		"allocs_per_cpi": ratio(float64(m1.Mallocs-m0.Mallocs), float64(cpis)),
		// The mean, not the median: on slowstore-file the blocks' marks sit
		// on two levels one cube apart, and a median of five flips between
		// them from run to run.
		"mem_high_water_mib": mean(peaks) / (1 << 20),
		"setup_s":            median(setups),
	}, nil
}

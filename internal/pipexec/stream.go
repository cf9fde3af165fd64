package pipexec

import (
	"context"
	"math"
	"sync"
	"time"
)

// Streaming operation: a radar does not deliver a fixed number of CPIs and
// stop — it runs until shut down. Stream starts the same pipeline as Run
// without a CPI bound and delivers each CPI's results on a channel as CFAR
// completes it; Stop shuts the pipeline down and returns the summary.

// StreamHandle controls a streaming pipeline.
type StreamHandle struct {
	// Results delivers CPI results in completion order. The pipeline
	// applies backpressure through it: a slow consumer slows the
	// pipeline rather than growing a queue. It is closed once the
	// pipeline has fully stopped.
	Results <-chan CPIResult

	r       *runner
	results chan CPIResult
	cancel  context.CancelFunc
	start   time.Time
	done    chan struct{}
	stop    sync.Once
}

// Stream starts the pipeline against src and returns immediately. The
// caller must drain Results and call Stop exactly once when finished.
func Stream(ctx context.Context, cfg Config, src CubeSource) (*StreamHandle, error) {
	cfg.BandRanges = 0 // a CubeSource delivers whole cubes
	r, err := prepare(ctx, cfg, src, math.MaxInt32)
	if err != nil {
		return nil, err
	}
	h := &StreamHandle{
		r:       r,
		results: make(chan CPIResult, chanDepth),
		cancel:  r.cancel,
		start:   time.Now(),
		done:    make(chan struct{}),
	}
	h.Results = h.results
	r.streamOut = h.results

	wg := r.launch()
	go func() {
		wg.Wait()
		close(h.results)
		close(h.done)
	}()
	return h, nil
}

// IOStats returns a live snapshot of the pipeline's I/O frontend state —
// current readahead depth and decode workers (which the auto-tuner may
// have moved), source-stall counters, and readahead-window occupancy.
// Safe to call at any time, including while the pipeline is running.
func (h *StreamHandle) IOStats() IOSnapshot { return h.r.ioSnapshot() }

// Stop shuts the pipeline down, waits for every stage to exit, and
// returns the run summary (stage statistics; per-CPI results were already
// delivered through Results). The error is nil for a clean shutdown and
// the first stage error otherwise. Stop is idempotent.
func (h *StreamHandle) Stop() (*Result, error) {
	h.stop.Do(func() {
		h.cancel()
		// Drain anything the stages manage to emit while unwinding so
		// their sends cannot deadlock against a caller that stopped
		// consuming.
		go func() {
			for range h.results {
			}
		}()
	})
	<-h.done
	res := &Result{Elapsed: time.Since(h.start), Stats: h.r.snapshotStats()}
	var served int
	for _, c := range h.r.clocks {
		st := c.stat()
		res.Stages = append(res.Stages, st)
		if st.CPIs > served {
			served = st.CPIs
		}
	}
	if res.Elapsed > 0 {
		res.Throughput = float64(served) / res.Elapsed.Seconds()
	}
	return res, h.r.err
}

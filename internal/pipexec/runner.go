package pipexec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stapio/internal/core"
	"stapio/internal/cube"
	"stapio/internal/membudget"
	"stapio/internal/stap"
	"stapio/internal/tune"
)

// Config describes a real pipeline execution.
type Config struct {
	// Params are the STAP processing parameters.
	Params stap.Params
	// Workers assigns goroutine counts to the tasks (the analogue of the
	// paper's node assignments; IO is unused — striped reads parallelise
	// internally across stripe directories).
	Workers core.STAPNodes
	// SeparateIO inserts a dedicated read stage in front of the Doppler
	// stage (the paper's second I/O design), which hands it items over a
	// depth-1 channel. When false the Doppler stage drives the readahead
	// window itself (embedded I/O) and there is no read goroutine.
	SeparateIO bool
	// CombinePCCFAR merges pulse compression and CFAR into a single stage
	// (the paper's Section 6 task combination).
	CombinePCCFAR bool
	// Reports, when non-nil, receives every CPI's detection reports from
	// the CFAR stage (the output-side I/O strategy).
	Reports ReportSink
	// Retry bounds re-reads of a CPI whose striped read fails or whose
	// payload fails its checksum (zero value: 3 attempts, exponential
	// backoff).
	Retry RetryPolicy
	// Degrade selects what happens when a read stays failed after Retry
	// is exhausted. The default, DegradeFailFast, aborts the run (the
	// pre-resilience behaviour).
	Degrade DegradePolicy
	// ReadAhead is the readahead depth D: how many reads are kept in
	// flight beyond the item currently being consumed (a CPI, or one
	// range band of it under BandRanges). Embedded, a run holds D+1 input
	// items (the one the Doppler stage filters and D in the window); the
	// separate design's hand-off adds the item in the channel slot and
	// the one blocked in send, D+3. Values < 1 mean 1, the classic
	// one-deep prefetch (double buffering); deeper windows hide multi-CPI
	// read latency the same way pipesim's PrefetchDepth does in the model.
	ReadAhead int
	// DecodeWorkers shards each fetch's checksum verification and decode
	// — of a whole cube or of a band — across this many goroutines when
	// the source has a frontend (CubeSource.Frontend). Values < 1 mean 1,
	// the serial behaviour.
	DecodeWorkers int
	// AutoTune, when non-nil, enables the online worker rebalancer: a
	// tune.Controller watches the live per-stage busy counters and swaps
	// the per-stage worker counts between CPIs to equalise busy/workers
	// (the paper's balance condition). With AutoTune.Budget > 0 the
	// configured Workers are replaced by an even split of the budget (the
	// cold start the tuner refines); with Budget 0 the tuner starts from
	// Workers and keeps their sum as the budget. When the source is an
	// instrumentable file frontend the budget additionally covers the I/O
	// knobs — readahead depth and decode workers join the solve as tunable
	// stages, so a source-bound run trades compute workers for prefetch
	// depth (see DESIGN.md §12); under BandRanges the tuner reads their
	// work per CPI, the sum over the CPI's band fetches. Decisions are
	// traced in RunStats.TuneDecisions.
	AutoTune *tune.Config
	// MemBudget, when non-nil, charges every large slab — input cube or
	// band slab, Doppler cube or band, beam cube — against a hierarchical byte budget:
	// reads and compute admissions block (deadlock-free, oldest CPI
	// first) until bytes are available, and the tracked residency never
	// exceeds the budget's path limit. nil means unlimited; the runner
	// still accounts against a private unlimited budget so
	// RunStats.MemHighWater works on unbudgeted runs too. Budgets should
	// be per-run (or per-replica children of a shared root): an aborted
	// run may leak charges into a budget that outlives it.
	// Under a limit, a source that can fetch an item again
	// (CubeSource.Refetchable) has landed readahead items evicted to it
	// under pressure and re-fetched when the window reaches them.
	MemBudget *membudget.Budget
	// BandRanges is the range-band size: each CPI flows through the
	// stages as ceil(Ranges/BandRanges) items, each fetched as its own
	// gate span (CubeSource.Begin), so peak residency is O(band) instead of
	// O(cube) (see BandedMinResidency). Values < 1 or beyond the range
	// extent mean the full extent, one item per CPI. Every other knob
	// applies: ReadAhead counts bands, a CPI whose band read stays failed
	// is dropped whole, and a source that serves only whole cubes
	// (StreamSource) fails the run with a *SpanError.
	BandRanges int
	// testOnCPI, when set (tests only), runs on the terminal stage's
	// goroutine after each recorded CPI with a setter that swaps live
	// per-stage worker counts — the seam rebalance-determinism tests use
	// to exercise arbitrary swap schedules.
	testOnCPI func(cpi int, set func(stage, workers int))
	// testLoad (tests only) injects synthetic per-item service time into
	// the compute stages (see stageLoad) — the workload shaping tuner
	// tests use to skew the per-stage loads.
	testLoad stageLoad
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	w := c.Workers
	for _, n := range []int{w.Doppler, w.EasyWeight, w.HardWeight, w.EasyBF, w.HardBF, w.PulseComp, w.CFAR} {
		if n < 1 {
			return fmt.Errorf("pipexec: every task needs at least one worker, got %+v", w)
		}
	}
	return nil
}

// CPIResult is the pipeline output for one CPI.
type CPIResult struct {
	Seq        uint64
	Detections []stap.Detection
	// Latency is the wall-clock time from the head stage starting this
	// CPI to CFAR completing it.
	Latency time.Duration
	// Done is when CFAR completed this CPI.
	Done time.Time
}

// StageStat is the wall-clock busy time of one pipeline stage — the real
// executor's analogue of the paper's per-task timing rows.
type StageStat struct {
	Name string
	// CPIs is the number of CPIs the stage processed. The frontend clocks
	// ("src read", "src decode") count fetches instead: one per CPI on a
	// whole-cube run, one per band under Config.BandRanges.
	CPIs int
	// Busy is the total time spent processing (excluding channel waits).
	Busy time.Duration
}

// MeanBusy returns the average processing time per CPI (per fetch on the
// frontend clocks).
func (s StageStat) MeanBusy() time.Duration {
	if s.CPIs == 0 {
		return 0
	}
	return s.Busy / time.Duration(s.CPIs)
}

// Result summarises a run.
type Result struct {
	CPIs []CPIResult
	// Elapsed is the total wall-clock duration of the run.
	Elapsed time.Duration
	// Throughput is CPIs per second of wall-clock time over the whole
	// run (including pipeline fill, so slightly pessimistic).
	Throughput float64
	// Stages holds per-stage busy-time statistics in pipeline order.
	Stages []StageStat
	// Stats holds the resilience counters: retries, drops, checksum
	// failures, weight fallbacks.
	Stats RunStats
}

// SteadyThroughput returns the CPI completion rate between the first and
// last CFAR completions — excluding the pipeline-fill transient that
// Throughput includes. It needs at least two CPIs.
func (r *Result) SteadyThroughput() float64 {
	if len(r.CPIs) < 2 {
		return r.Throughput
	}
	span := r.CPIs[len(r.CPIs)-1].Done.Sub(r.CPIs[0].Done).Seconds()
	if span <= 0 {
		return r.Throughput
	}
	return float64(len(r.CPIs)-1) / span
}

// SteadyTail returns the CPI completion rate over the last k completions
// (in completion order) — the post-convergence throughput of an autotuned
// run, as opposed to SteadyThroughput, which averages the whole run
// including the cold-split phase. It needs at least two of the last k.
func (r *Result) SteadyTail(k int) float64 {
	if k > len(r.CPIs) {
		k = len(r.CPIs)
	}
	if k < 2 {
		return r.SteadyThroughput()
	}
	done := make([]time.Time, 0, len(r.CPIs))
	for _, c := range r.CPIs {
		done = append(done, c.Done)
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	tail := done[len(done)-k:]
	span := tail[len(tail)-1].Sub(tail[0]).Seconds()
	if span <= 0 {
		return r.SteadyThroughput()
	}
	return float64(k-1) / span
}

// MeanLatency returns the average per-CPI latency.
func (r *Result) MeanLatency() time.Duration {
	if len(r.CPIs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, c := range r.CPIs {
		sum += c.Latency
	}
	return sum / time.Duration(len(r.CPIs))
}

// message types between stages. The read, Doppler, weight and BF stages
// pass items — one range band of one CPI (see bands); a drop message
// tells them to discard a CPI abandoned after some of its bands were
// delivered. Pulse compression and CFAR pass whole CPIs.

type cubeMsg struct {
	item  uint64
	cb    *cube.Cube // the item's band slab
	start time.Time  // latency clock start (head stage service start)
	drop  bool
}

type dopplerMsg struct {
	item uint64
	// h carries the pooled Doppler band with its fan-out refcount; every
	// consumer releases it when done reading (see pipePools).
	h     *dopplerHandle
	bc    *stap.BeamCube // the CPI's output buffer both BF stages fill
	start time.Time
	drop  bool
}

type beamMsg struct {
	seq   uint64
	bc    *stap.BeamCube
	start time.Time
	drop  bool
}

// Run pushes n CPIs from src through the pipeline, whole or in bands of
// Config.BandRanges gates, and collects the detection reports.
func Run(ctx context.Context, cfg Config, src CubeSource, n int) (*Result, error) {
	if n < 1 {
		return nil, fmt.Errorf("pipexec: need at least one CPI, got %d", n)
	}
	r, err := prepare(ctx, cfg, src, n)
	if err != nil {
		return nil, err
	}
	defer r.cancel()

	start := time.Now()
	wg := r.launch()
	wg.Wait()
	if r.err != nil {
		return nil, r.err
	}
	res := &Result{CPIs: r.results, Elapsed: time.Since(start), Stats: r.snapshotStats()}
	if res.Elapsed > 0 {
		res.Throughput = float64(len(r.results)) / res.Elapsed.Seconds()
	}
	sort.Slice(res.CPIs, func(i, j int) bool { return res.CPIs[i].Seq < res.CPIs[j].Seq })
	for _, c := range r.clocks {
		res.Stages = append(res.Stages, c.stat())
	}
	return res, nil
}

// prepare validates the configuration and builds a runner for n CPIs,
// ready to launch under a cancellable child of ctx.
func prepare(ctx context.Context, cfg Config, src CubeSource, n int) (*runner, error) {
	cfg, err := withAutoTuneDefaults(cfg, src)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := newRunner(cfg, src, n)
	if err := r.initBudget(); err != nil {
		return nil, err
	}
	if err := r.setup(); err != nil {
		return nil, err
	}
	r.ctx, r.cancel = context.WithCancel(ctx)
	return r, nil
}

// newRunner builds the per-run state shared by Run and Stream:
// the item geometry, resolved bin sets, and the buffer pools that recycle
// the per-item intermediates.
func newRunner(cfg Config, src CubeSource, n int) *runner {
	r := &runner{cfg: cfg, src: src, admitKick: make(chan struct{}, 1)}
	r.p = &r.cfg.Params
	r.bands = newBands(r.p.Dims.Ranges, cfg.BandRanges)
	r.items = n * r.bands.nb
	r.easyBins = r.p.EasyBins()
	r.hardBins = r.p.HardBins()
	r.pools = newPipePools(r.p, r.bands.widths()...)
	ra := max(cfg.ReadAhead, 1)
	r.raDepth.Store(int32(ra))
	r.window = make([]raSlot, 0, ra+1)
	r.decW.Store(int32(max(cfg.DecodeWorkers, 1)))
	if cfg.DecodeWorkers > 0 {
		src.SetDecodeWorkers(cfg.DecodeWorkers)
	}
	// Sources keep cumulative ingest counters (they outlive runs), so the
	// run reports deltas against this baseline.
	r.ioBase = src.IOStats()
	return r
}

// snapshotStats freezes the run's resilience counters, folding in the
// source's ingest counters (chunk re-reads, repaired reads) as deltas since
// the run began.
func (r *runner) snapshotStats() RunStats {
	st := r.stats.snapshot(r.dropped)
	now := r.src.IOStats()
	st.ChunkRereads = now.ChunkRereads - r.ioBase.ChunkRereads
	st.ChunkRereadBytes = now.ChunkRereadBytes - r.ioBase.ChunkRereadBytes
	st.RepairedReads = now.RepairedReads - r.ioBase.RepairedReads
	st.StageTimes = make([]StageTimeStats, 0, len(r.clocks))
	for _, c := range r.clocks {
		st.StageTimes = append(st.StageTimes, c.timeStats())
	}
	st.FinalReadAhead = int(r.raDepth.Load())
	st.FinalDecodeWorkers = int(r.decW.Load())
	if n := r.stats.raOccupSamples.Load(); n > 0 {
		st.ReadaheadReady = float64(r.stats.raOccupSum.Load()) / float64(n)
	}
	if r.tuner != nil {
		st.TuneStages = r.tuner.StageNames()
		st.TuneDecisions = r.tuner.Trace()
		st.TuneFinalSplit = r.tuner.Split()
	}
	if r.budget != nil {
		ms := r.budget.Stats()
		st.MemLimit = r.budget.PathLimit()
		st.MemHighWater = ms.HighWater
		st.MemStalls = ms.Stalls
		st.MemStall = ms.StallTime
	}
	return st
}

// setup creates the stage clocks and the live worker counts (plus the
// tuner, when configured); it must run before launch. Split out of launch
// so controller-configuration errors surface before goroutines exist.
func (r *runner) setup() error {
	clock := func(name string) *stageClock {
		c := &stageClock{name: name}
		r.clocks = append(r.clocks, c)
		return c
	}
	r.ck.read = clock("read")
	r.ck.dop = clock("doppler")
	r.ck.we = clock("easy weight")
	r.ck.wh = clock("hard weight")
	r.ck.bfe = clock("easy BF")
	r.ck.bfh = clock("hard BF")
	if r.cfg.CombinePCCFAR {
		r.ck.pc = clock("pulse compr+CFAR")
	} else {
		r.ck.pc = clock("pulse compr")
		r.ck.cf = clock("CFAR")
	}
	// Sources with a frontend get its clocks: per-fetch striped-read
	// latency and per-fetch verify+decode wall time, surfaced through
	// Stages/StageTimes like every compute stage and — with AutoTune —
	// feeding the joint I/O + compute solve.
	if r.src.Frontend() {
		r.srcRead = clock("src read")
		r.srcDecode = clock("src decode")
		r.src.SetClocks(r.srcRead.add, r.srcDecode.add)
	}
	// One weight solver per bin set: its steering table serves both the
	// weight stage's solves and the beamforming stage's first-CPI
	// conventional weights.
	var err error
	if r.solvEasy, err = stap.NewWeightSolver(r.p, r.easyBins, false); err != nil {
		return fmt.Errorf("pipexec: easy weights: %w", err)
	}
	if r.solvHard, err = stap.NewWeightSolver(r.p, r.hardBins, true); err != nil {
		return fmt.Errorf("pipexec: hard weights: %w", err)
	}
	if r.accEasy, err = stap.NewCovAccumulator(r.p, r.easyBins, false); err != nil {
		return fmt.Errorf("pipexec: easy covariances: %w", err)
	}
	if r.accHard, err = stap.NewCovAccumulator(r.p, r.hardBins, true); err != nil {
		return fmt.Errorf("pipexec: hard covariances: %w", err)
	}
	return r.initTuning([numTunable]*stageClock{
		r.ck.dop, r.ck.we, r.ck.wh, r.ck.bfe, r.ck.bfh, r.ck.pc, r.ck.cf,
	})
}

// chanDepth is the inter-stage channel depth (flow control).
const chanDepth = 1

// launch creates the inter-stage channels and starts every stage
// goroutine; the returned WaitGroup completes when all stages have exited.
// Shared by Run (fixed CPI count) and Stream (unbounded).
func (r *runner) launch() *sync.WaitGroup {
	cfg := r.cfg
	buf := chanDepth
	weIn := make(chan dopplerMsg, buf)
	whIn := make(chan dopplerMsg, buf)
	bfeIn := make(chan dopplerMsg, buf)
	bfhIn := make(chan dopplerMsg, buf)
	weOut := make(chan *stap.WeightSet, buf+1)
	whOut := make(chan *stap.WeightSet, buf+1)
	pcIn := make(chan beamMsg, 2*buf)
	cfarIn := make(chan beamMsg, buf)

	wg := &sync.WaitGroup{}
	spawn := func(fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(); err != nil {
				r.fail(err)
			}
		}()
	}

	// Clocks and live worker counts were created by setup(); stages load
	// their counts from r.wcs once per CPI, so a tuner swap lands cleanly
	// on a CPI boundary.
	// The Doppler task's input: in the separate design a read stage hands
	// it items over a channel; embedded, it drives the read window itself.
	var next func() (cubeMsg, bool, error)
	if cfg.SeparateIO {
		cubeCh := make(chan cubeMsg, buf)
		spawn(func() error { return r.readStage(r.ck.read, cubeCh) })
		next = func() (cubeMsg, bool, error) {
			msg, ok := recv(r, cubeCh)
			return msg, ok, nil
		}
	} else {
		c := &readCursor{clk: r.ck.read}
		next = func() (cubeMsg, bool, error) { return r.nextItem(c) }
	}
	spawn(func() error { return r.dopplerStage(r.ck.dop, next, weIn, whIn, bfeIn, bfhIn) })
	r.pools.easyW = newWeightPool(r.p, r.easyBins, buf)
	r.pools.hardW = newWeightPool(r.p, r.hardBins, buf)
	spawn(func() error {
		return r.weightStage(r.ck.we, weIn, weOut, r.pools.easyW, r.solvEasy, r.accEasy, tsEasyWeight)
	})
	spawn(func() error {
		return r.weightStage(r.ck.wh, whIn, whOut, r.pools.hardW, r.solvHard, r.accHard, tsHardWeight)
	})
	// pcIn has two producers, so neither BF stage may close it alone; a
	// closer goroutine does once both have exited. Downstream termination
	// is therefore by channel close, which stays correct when a skip
	// policy drops CPIs (a fixed CPI count would deadlock the collector).
	bfDone := &sync.WaitGroup{}
	bfDone.Add(2)
	spawnBF := func(fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer bfDone.Done()
			if err := fn(); err != nil {
				r.fail(err)
			}
		}()
	}
	spawnBF(func() error { return r.bfStage(r.ck.bfe, bfeIn, weOut, pcIn, r.pools.easyW, r.solvEasy, tsEasyBF) })
	spawnBF(func() error { return r.bfStage(r.ck.bfh, bfhIn, whOut, pcIn, r.pools.hardW, r.solvHard, tsHardBF) })
	wg.Add(1)
	go func() {
		defer wg.Done()
		bfDone.Wait()
		close(pcIn)
	}()
	if cfg.CombinePCCFAR {
		spawn(func() error { return r.pcStage(r.ck.pc, pcIn, nil) })
	} else {
		spawn(func() error { return r.pcStage(r.ck.pc, pcIn, cfarIn) })
		spawn(func() error { return r.cfarStage(r.ck.cf, cfarIn) })
	}
	return wg
}

// stageClock accumulates a stage's busy time in lock-free counters plus a
// service-time histogram. Written by the owning stage goroutine; readable
// live (the tuner samples busy/cpis without stopping the run) and after
// the run for the summary.
type stageClock struct {
	name string
	busy atomic.Int64 // cumulative busy nanoseconds
	cpis atomic.Int64
	hist durHist
	// pend sums the bands of the CPI in progress (owning stage only).
	pend time.Duration
}

// add records one CPI's processing time.
func (c *stageClock) add(d time.Duration) {
	c.busy.Add(int64(d))
	c.cpis.Add(1)
	c.hist.record(d)
}

// addItem accumulates one item's processing time and records the CPI's
// total on its last item, so the clock counts CPIs whatever the band size.
func (c *stageClock) addItem(d time.Duration, last bool) {
	c.pend += d
	if last {
		c.add(c.pend)
		c.pend = 0
	}
}

// stat freezes the clock into a StageStat.
func (c *stageClock) stat() StageStat {
	return StageStat{Name: c.name, CPIs: int(c.cpis.Load()), Busy: time.Duration(c.busy.Load())}
}

// pipeClocks names the per-stage clocks (cf is nil in the combined design,
// where pc carries the merged PC+CFAR stage).
type pipeClocks struct {
	read, dop, we, wh, bfe, bfh, pc, cf *stageClock
}

type runner struct {
	cfg Config
	p   *stap.Params
	// bands maps items to (CPI, range band); items is the run's item
	// count (CPIs x bands per CPI).
	bands    bands
	items    int
	src      CubeSource
	easyBins []int
	hardBins []int
	pools    *pipePools
	// solvEasy/solvHard are the per-bin-set weight solvers and
	// accEasy/accHard the covariance accumulators the weight stages fold
	// each band into (see setup).
	solvEasy *stap.WeightSolver
	solvHard *stap.WeightSolver
	accEasy  *stap.CovAccumulator
	accHard  *stap.CovAccumulator

	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	err     error
	results []CPIResult
	clocks  []*stageClock
	ck      pipeClocks

	// Live per-stage worker counts in tunable-slot order (see tsDoppler
	// etc.); stages Load theirs once per CPI, the tuner (or the test seam)
	// Stores new counts between CPIs.
	wcs []atomic.Int32
	// Live I/O knobs: the readahead depth the read driver loads every
	// window refill, and a mirror of the source's decode worker count.
	// The tuner (or the test seam) stores them between CPIs exactly like
	// the compute counts — growing the window issues more prefetches on
	// the next refill, shrinking drains naturally, and FIFO delivery keeps
	// detections byte-identical either way.
	raDepth atomic.Int32
	decW    atomic.Int32
	// srcRead/srcDecode are the frontend stage clocks (nil when the source
	// has no frontend).
	srcRead   *stageClock
	srcDecode *stageClock
	// ioTune is true when the tuner's split carries the two I/O slots
	// after the compute slots.
	ioTune bool
	// Online tuner state; nil without Config.AutoTune. tuneClocks lists
	// the tunable stage clocks in slot order, tuneBusy/tuneCPIs are the
	// reusable snapshot buffers, cpisDone counts recorded CPIs (terminal
	// stage only).
	tuner      *tune.Controller
	tuneClocks []*stageClock
	tuneBusy   []int64
	tuneCPIs   []int64
	cpisDone   int

	// Resilience bookkeeping: atomic counters shared by the stages, plus
	// the dropped-CPI list, which only the read driver (nextItem) appends
	// to and which is read after every stage has exited.
	stats   runStats
	dropped []uint64

	// ioBase is the source's cumulative ingest counters at run start, for
	// per-run deltas (see snapshotStats).
	ioBase IOStats

	// streamOut, when non-nil, receives each CPI result instead of the
	// results slice accumulating (unbounded memory would defeat streaming).
	streamOut chan<- CPIResult

	// Memory budgeting (see membudget.go): the resolved budget (never nil
	// after initBudget — unbudgeted runs account against a private
	// unlimited one), the slab and Doppler bytes of a full-band item and
	// the beam cube's, the count of items the Doppler stage has admitted
	// with a signal per admission (see headroom), and the slab-charge
	// registry pairing each issued read's charge with the exactly-one
	// release that retires it.
	budget      *membudget.Budget
	cubeB       int64
	dopB        int64
	beamB       int64
	admitted    atomic.Int64
	admitKick   chan struct{}
	chargeMu    sync.Mutex
	cubeCharged map[uint64]bool

	// window is the read driver's readahead FIFO. winMu guards it because
	// the budget's pressure handler evicts from its tail (see evict).
	winMu  sync.Mutex
	window []raSlot
}

// raSlot is one readahead-window entry: item's in-flight fetch, or — once
// evicted — nothing until the read driver re-fetches it at the head.
type raSlot struct {
	item    uint64
	pend    PendingCube
	evicted bool
}

// fail records the first error and cancels the run.
func (r *runner) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	r.cancel()
}

func (r *runner) record(res CPIResult) {
	if r.streamOut != nil {
		select {
		case r.streamOut <- res:
		case <-r.ctx.Done():
		}
		return
	}
	r.mu.Lock()
	r.results = append(r.results, res)
	r.mu.Unlock()
}

// send delivers v or aborts when the run is cancelled.
func send[T any](r *runner, ch chan<- T, v T) bool {
	select {
	case ch <- v:
		return true
	case <-r.ctx.Done():
		return false
	}
}

// recv receives the next value; ok is false on close or cancellation.
func recv[T any](r *runner, ch <-chan T) (T, bool) {
	var zero T
	select {
	case v, ok := <-ch:
		return v, ok
	case <-r.ctx.Done():
		return zero, false
	}
}

// parallel partitions n work items across w goroutines and runs fn on each
// block, returning the first error. fn receives the worker index (always
// < w) so stages can address per-worker scratch state. With no work
// (n <= 0) fn is never called; w beyond n is truncated so no worker ever
// receives an empty block, and w < 1 degrades to serial.
func parallel(w, n int, fn func(widx int, blk cube.Block) error) error {
	if n <= 0 {
		return nil
	}
	if w = min(w, n); w <= 1 {
		return fn(0, cube.Block{Lo: 0, Hi: n})
	}
	blocks := cube.Split(n, w)
	errs := make([]error, w)
	var wg sync.WaitGroup
	for i, blk := range blocks {
		wg.Add(1)
		go func(i int, blk cube.Block) {
			defer wg.Done()
			errs[i] = fn(i, blk)
		}(i, blk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

type cubeResult struct {
	cb  *cube.Cube
	err error
}

// landing is a PendingCube that exposes its completion channel: once
// landed() is closed, Wait returns at once. Both built-in pendings — the
// file, generator and band fetches (asyncFetch) and the streamed rendezvous
// (streamPending) — implement it.
type landing interface {
	PendingCube
	landed() <-chan struct{}
}

var (
	_ landing = (*asyncFetch)(nil)
	_ landing = (*streamPending)(nil)
)

// waitCube blocks for an in-flight read, bounding the wait by run
// cancellation. The built-in pendings are awaited in place on their
// completion channel; any other pending waits in a goroutine, and an
// abandoned wait's goroutine drains itself once the underlying read
// completes.
func (r *runner) waitCube(p PendingCube) (*cube.Cube, error) {
	if l, ok := p.(landing); ok {
		select {
		case <-l.landed():
			return l.Wait()
		case <-r.ctx.Done():
			return nil, r.ctx.Err()
		}
	}
	ch := make(chan cubeResult, 1)
	go func() {
		cb, err := p.Wait()
		ch <- cubeResult{cb, err}
	}()
	select {
	case res := <-ch:
		return res.cb, res.err
	case <-r.ctx.Done():
		return nil, r.ctx.Err()
	}
}

// sleep pauses for a backoff interval unless the run is cancelled first.
func (r *runner) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-r.ctx.Done():
		return false
	}
}

// awaitCube resolves item k's read under the retry and degradation
// policies. A (nil, nil) return means the item's CPI was dropped (skip
// policies) or the run was cancelled; the caller distinguishes via ctx.
func (r *runner) awaitCube(k int, pending PendingCube) (*cube.Cube, error) {
	max := r.cfg.Retry.attempts()
	for attempt := 0; ; attempt++ {
		cb, err := r.waitCube(pending)
		if err == nil {
			return cb, nil
		}
		if r.ctx.Err() != nil {
			return nil, nil
		}
		seq, lo, hi := r.bands.span(uint64(k))
		if errors.As(err, new(*SpanError)) {
			return nil, err // every retry and every later item is refused alike
		}
		if errors.Is(err, cube.ErrCorrupt) {
			r.stats.checksumFailures.Add(1)
		}
		if attempt+1 >= max {
			if r.cfg.Degrade == DegradeFailFast {
				return nil, fmt.Errorf("pipexec: reading CPI %d gates [%d,%d) (attempt %d of %d): %w", seq, lo, hi, attempt+1, max, err)
			}
			r.stats.drops.Add(1)
			r.dropped = append(r.dropped, seq)
			return nil, nil
		}
		r.stats.retries.Add(1)
		if !r.sleep(r.cfg.Retry.backoff(attempt + 1)) {
			return nil, nil
		}
		pending = r.begin(uint64(k), attempt+1)
	}
}

// begin starts fetch number attempt of item's gate span.
func (r *runner) begin(item uint64, attempt int) PendingCube {
	seq, lo, hi := r.bands.span(item)
	return r.src.Begin(seq, lo, hi, attempt)
}

// readCursor is the read driver's position: the next item to deliver,
// the window's issue point, the items already delivered, the current
// CPI's latency start and drop state, and the clock that times the head
// wait. Owned by whichever goroutine calls nextItem.
type readCursor struct {
	k        int         // the next item to deliver
	issued   int         // items whose fetch has been issued
	sent     int64       // items delivered to the Doppler task
	start    time.Time   // the current CPI's latency start (separate design)
	dropping bool        // the current CPI was dropped: retire its remaining items
	clk      *stageClock // the read clock: the head wait
}

// nextItem is the read driver: it fetches items through a depth-D
// readahead window and returns the next one, or a drop message for a
// CPI abandoned after some of its bands were delivered. While item k is
// being consumed, the reads of items k+1 .. k+D are already in flight
// (Config.ReadAhead; depth 1 is the classic one-deep prefetch). Fetches
// complete in any order but are delivered strictly in sequence — the
// window is a FIFO, so downstream stages never see reordering. Failed
// reads are retried per Config.Retry and, under a skip policy, their CPI
// is dropped whole once retries are exhausted; retries re-issue only the
// item at the window head, while the rest of the window stays in flight.
// Under a budget, landed items may be evicted back to the source (see
// evict) and are re-fetched when they reach the head. The bool is false
// once every item is delivered or the run is cancelled.
func (r *runner) nextItem(c *readCursor) (cubeMsg, bool, error) {
	for ; c.k < r.items; c.k++ {
		k := c.k
		// Keep depth reads in flight beyond item k (the one about to be
		// consumed): issue everything up to k+depth that hasn't started.
		// The depth is loaded fresh every item — the auto-tuner grows or
		// shrinks the window between CPIs; a grow issues more prefetches
		// right here, a shrink just stops issuing until the consumer
		// catches up. Delivery stays strictly FIFO either way, so a
		// rebalance can never reorder items.
		depth := r.liveReadAhead()
		for c.issued < r.items && c.issued <= k+depth {
			item := uint64(c.issued)
			// Budget admission: the window head (the item the pipeline
			// needs next) blocks for its slab; deeper prefetches are
			// opportunistic. Both paths take slab bytes only when doing
			// so still leaves the oldest item's compute intermediates
			// admissible, so reads can never starve the Doppler task into
			// deadlock. Priorities make the oldest item win every race.
			if c.issued == k {
				if err := r.acquireReadHead(item, c.sent); err != nil {
					return cubeMsg{}, false, r.headErr(item, err)
				}
			} else if !r.tryAcquireReadAhead(item) {
				break
			}
			r.setCubeCharged(item)
			pend := r.begin(item, 0)
			r.winMu.Lock()
			r.window = append(r.window, raSlot{item: item, pend: pend})
			r.winMu.Unlock()
			c.issued++
		}
		head := r.popHead()
		_, lo, hi := r.bands.span(uint64(k))
		last := hi == r.p.Dims.Ranges
		if lo == 0 {
			c.dropping = false
		}
		if c.dropping {
			// A later band of a dropped CPI: retire it unseen. An evicted
			// one holds neither a slab nor a charge.
			if !head.evicted {
				if cb, err := r.waitCube(head.pend); err == nil {
					r.src.Recycle(cb)
				}
				r.releaseCubeCharge(uint64(k))
			}
			continue
		}
		if head.evicted {
			if err := r.refetch(&head, c.sent); err != nil {
				return cubeMsg{}, false, r.headErr(head.item, err)
			}
		}
		startWait := time.Now()
		cb, err := r.awaitCube(k, head.pend)
		if err != nil {
			return cubeMsg{}, false, err
		}
		wait := time.Since(startWait)
		c.clk.addItem(wait, last || cb == nil)
		r.stats.sourceStallNS.Add(int64(wait))
		if r.ctx.Err() != nil {
			return cubeMsg{}, false, nil
		}
		if cb == nil {
			// Dropped under a skip policy: the slab never reaches the
			// Doppler task, so its charge retires here. Bands already
			// delivered are discarded downstream.
			r.releaseCubeCharge(uint64(k))
			c.dropping = true
			if lo > 0 {
				c.k++
				return cubeMsg{item: uint64(k), drop: true}, true, nil
			}
			continue
		}
		if lo == 0 {
			c.start = startWait
		}
		msg := cubeMsg{item: uint64(k), cb: cb}
		if r.cfg.SeparateIO {
			msg.start = c.start
		}
		c.k++
		c.sent = int64(c.k)
		return msg, true, nil
	}
	return cubeMsg{}, false, nil
}

// readStage is the separate design's eighth task: it runs the read driver
// (nextItem) in its own goroutine and hands each item to the Doppler
// stage over a depth-1 channel. The hand-off costs two decoded items
// beyond the embedded design — the one in the channel slot and the one
// blocked in send — so a ReadAhead D run holds up to D+3 input items. The
// latency clock starts when the read stage begins waiting for a CPI's
// first item.
func (r *runner) readStage(clk *stageClock, out chan<- cubeMsg) error {
	defer close(out)
	c := &readCursor{clk: clk}
	for {
		msg, ok, err := r.nextItem(c)
		if err != nil || !ok {
			return err
		}
		if !send(r, out, msg) {
			return nil
		}
	}
}

// popHead takes the window head. It first samples the occupancy — how
// much of the window has landed when the pipeline comes asking — and
// whether the pipeline must now stall on the head fetch.
func (r *runner) popHead() raSlot {
	r.winMu.Lock()
	defer r.winMu.Unlock()
	ready := 0
	for _, s := range r.window {
		if !s.evicted && s.pend.Ready() {
			ready++
		}
	}
	r.stats.raOccupSum.Add(int64(ready))
	r.stats.raOccupSamples.Add(1)
	head := r.window[0]
	if head.evicted || !head.pend.Ready() {
		r.stats.sourceStalls.Add(1)
	}
	copy(r.window, r.window[1:])
	r.window = r.window[:len(r.window)-1]
	return head
}

// headErr reports a failed window-head admission, or nil when the run
// was cancelled.
func (r *runner) headErr(item uint64, err error) error {
	if r.ctx.Err() != nil {
		return nil
	}
	seq, _, _ := r.bands.span(item)
	return fmt.Errorf("pipexec: read CPI %d: %w", seq, err)
}

// liveReadAhead loads the current readahead depth, clamped to [1, cap].
func (r *runner) liveReadAhead() int {
	d := int(r.raDepth.Load())
	if d < 1 {
		return 1
	}
	if d > maxReadAhead && d > r.cfg.ReadAhead {
		return maxReadAhead
	}
	return d
}

// dopplerStage runs Doppler filter processing, partitioned by range gates.
// Each worker owns a DopplerScratch built once for the whole run, the
// output band is leased from the pool, and the input slab is handed back
// to the source as soon as filtering has consumed it. A CPI's first item
// also leases the beam cube its BF stages fill. next yields the stage's
// input: the separate design's read-stage channel, or — embedded — the
// read driver itself (nextItem), so the Doppler task issues the next
// reads before it filters the item in hand, the paper's iread/iowait
// loop. Embedded, a ReadAhead D run thus holds D+1 input items: the one
// being filtered, whose slab is recycled before the next call, and D in
// the window. The latency clock starts when the stage has a CPI's first
// item in hand.
func (r *runner) dopplerStage(clk *stageClock, next func() (cubeMsg, bool, error), weOut, whOut, bfeOut, bfhOut chan<- dopplerMsg) error {
	defer close(weOut)
	defer close(whOut)
	defer close(bfeOut)
	defer close(bfhOut)
	var scratches []*stap.DopplerScratch
	var bc *stap.BeamCube // the current CPI's beam cube
	var start time.Time
	fanOut := func(out dopplerMsg) bool {
		for _, ch := range []chan<- dopplerMsg{weOut, whOut, bfeOut, bfhOut} {
			if !send(r, ch, out) {
				return false
			}
		}
		return true
	}
	for {
		msg, ok, err := next()
		if err != nil || !ok {
			return err
		}
		if msg.drop {
			clk.addItem(0, true)
			if !fanOut(dopplerMsg{item: msg.item, bc: bc, drop: true}) {
				return nil
			}
			bc = nil
			continue
		}
		seq, lo, hi := r.bands.span(msg.item)
		first, last := lo == 0, hi == r.p.Dims.Ranges
		if first {
			start = msg.start
			if start.IsZero() {
				start = time.Now() // embedded design: latency starts here
			}
		}
		// Budget admission for this item's intermediates (its Doppler
		// band, plus the beam cube on a CPI's first band), at the most
		// urgent priority of any in-flight item — FIFO delivery means this
		// is always the oldest, so the wait is bounded by downstream
		// drains, never by newer reads. Outside the stage clock: a budget
		// stall is memory pressure, not Doppler service time, and must not
		// skew the tuner.
		_, need := r.itemBytes(hi - lo)
		if first {
			need += r.beamB
		}
		if err := r.acquireMem(need, compPri(msg.item)); err != nil {
			if r.ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("pipexec: doppler CPI %d: %w", seq, err)
		}
		r.admit(msg.item)
		if first {
			bc = r.pools.getBeam(seq)
		}
		// The worker count is loaded once per item; scratches grow lazily
		// so a tuner upscale mid-run builds the extra state exactly once.
		workers := r.workersFor(tsDoppler)
		for len(scratches) < workers {
			scratches = append(scratches, stap.NewDopplerScratch(r.p))
		}
		t0 := time.Now()
		h := r.pools.getDoppler(seq, hi-lo)
		err = parallel(workers, hi-lo, func(widx int, blk cube.Block) error {
			if err := stap.DopplerFilterBand(r.p, msg.cb, blk, h.dc, scratches[widx]); err != nil {
				return err
			}
			r.stageSleep(r.cfg.testLoad.Doppler, blk.Len())
			return nil
		})
		if err != nil {
			return fmt.Errorf("pipexec: doppler CPI %d: %w", seq, err)
		}
		r.src.Recycle(msg.cb)
		r.releaseCubeCharge(msg.item)
		clk.addItem(time.Since(t0), last)
		if !fanOut(dopplerMsg{item: msg.item, h: h, bc: bc, start: start}) {
			return nil
		}
	}
}

// releaseDoppler drops one consumer's reference to an item's Doppler
// band, retiring its budget charge with the last one.
func (r *runner) releaseDoppler(h *dopplerHandle) {
	if r.pools.releaseDoppler(h) {
		_, dopB := r.itemBytes(h.dc.Ranges)
		r.releaseMem(dopB)
	}
}

// weightStage computes adaptive weights for its bin set, partitioned by
// Doppler bins, and feeds them forward for the next CPI's beamforming.
// Every band folds into the bin set's covariance accumulator; the CPI's
// last band finishes the estimate, smooths it across CPIs (when
// Params.Forgetting is set, exactly as the sequential reference chain
// does), solves through the bin set's WeightSolver into a set leased from
// pool, and resets the accumulator — so in steady state the stage
// allocates nothing.
func (r *runner) weightStage(clk *stageClock, in <-chan dopplerMsg, out chan<- *stap.WeightSet, pool *weightPool, solver *stap.WeightSolver, acc *stap.CovAccumulator, slot int) error {
	defer close(out)
	hard := slot == tsHardWeight
	load := r.cfg.testLoad.EasyWeight
	if hard {
		load = r.cfg.testLoad.HardWeight
	}
	smoother := stap.CovarianceSmoother{Lambda: r.p.Forgetting}
	// Under DegradeLastGoodWeights, a private copy of the last set that
	// solved: the sets sent downstream go back to the pool and are
	// overwritten, so the fallback cannot alias one.
	var lastGood *stap.WeightSet
	for {
		msg, ok := recv(r, in)
		if !ok {
			return nil
		}
		if msg.drop {
			// The CPI was dropped mid-way: discard its partial
			// covariances; it trains no weights.
			acc.Reset()
			clk.addItem(0, true)
			continue
		}
		seq, lo, hi := r.bands.span(msg.item)
		workers := r.workersFor(slot)
		t0 := time.Now()
		err := parallel(workers, len(solver.Bins()), func(_ int, blk cube.Block) error {
			if err := acc.AddBand(msg.h.dc, lo, blk); err != nil {
				return err
			}
			r.stageSleep(load, blk.Len())
			return nil
		})
		if err != nil {
			return fmt.Errorf("pipexec: %s covariances CPI %d: %w", setName(hard), seq, err)
		}
		r.releaseDoppler(msg.h)
		if hi < r.p.Dims.Ranges {
			clk.addItem(time.Since(t0), false)
			continue
		}
		solver.Grow(workers)
		ws := pool.get()
		if err := solveWeightSet(solver, &smoother, acc, ws, workers); err != nil {
			// Under the last-good-weights policy a failed solve (e.g. a
			// singular covariance from degraded data) degrades the CPI
			// instead of killing the run: beamform with the weights of
			// the last CPI that solved.
			if r.cfg.Degrade != DegradeLastGoodWeights || lastGood == nil {
				return fmt.Errorf("pipexec: %s weights CPI %d: %w", setName(hard), seq, err)
			}
			r.stats.weightFallbacks.Add(1)
			ws.CopyFrom(lastGood)
		} else if r.cfg.Degrade == DegradeLastGoodWeights {
			if lastGood == nil {
				lastGood = solver.NewWeightSet()
			}
			lastGood.CopyFrom(ws)
		}
		ws.Seq = seq
		clk.addItem(time.Since(t0), true)
		if !send(r, out, ws) {
			return nil
		}
	}
}

// solveWeightSet finishes one CPI's accumulated covariances, smooths them
// and solves the adaptive weights into ws. The accumulator is reset for
// the next CPI whatever the outcome; the solve has read the covariances
// by then, and a positive-lambda smoother holds its own copies.
func solveWeightSet(s *stap.WeightSolver, smoother *stap.CovarianceSmoother, acc *stap.CovAccumulator, ws *stap.WeightSet, workers int) error {
	defer acc.Reset()
	est, err := acc.Finish()
	if err != nil {
		return err
	}
	covs := smoother.Update(est)
	return parallel(workers, len(s.Bins()), func(widx int, blk cube.Block) error {
		return s.Solve(widx, covs, blk, ws)
	})
}

func setName(hard bool) string {
	if hard {
		return "hard"
	}
	return "easy"
}

// bfStage beamforms its bin set, band by band, into the CPI's beam cube
// using weights from the previous delivered CPI (the temporal
// dependency), partitioned by Doppler bins. "Previous delivered" rather
// than "seq-1": when a skip policy drops a CPI the weight stream simply
// misses that sequence number, and beamforming continues from the
// weights of the last CPI that made it through. The first CPI beamforms
// with the conventional weights of the bin set's solver. The CPI goes on
// to pulse compression after its last band.
func (r *runner) bfStage(clk *stageClock, in <-chan dopplerMsg, weights <-chan *stap.WeightSet, out chan<- beamMsg, pool *weightPool, solver *stap.WeightSolver, slot int) error {
	load := r.cfg.testLoad.EasyBF
	if slot == tsHardBF {
		load = r.cfg.testLoad.HardBF
	}
	bins := pool.bins
	cur := pool.get()
	solver.Conventional(cur)
	// owed is set once a CPI has been beamformed: the weight stage then
	// owes its weights, which the next CPI's first band takes over.
	owed := false
	var prevSeq uint64
	for {
		msg, ok := recv(r, in)
		if !ok {
			return nil
		}
		seq, lo, hi := r.bands.span(msg.item)
		if msg.drop {
			clk.addItem(0, true)
			if !send(r, out, beamMsg{seq: seq, bc: msg.bc, drop: true}) {
				return nil
			}
			continue
		}
		if lo == 0 && owed {
			ws, ok := recv(r, weights)
			if !ok {
				return nil
			}
			if ws.Seq != prevSeq {
				return fmt.Errorf("pipexec: beamforming CPI %d got weights for CPI %d, want CPI %d", seq, ws.Seq, prevSeq)
			}
			cur = ws
			owed = false
		}
		workers := r.workersFor(slot)
		t0 := time.Now()
		err := parallel(workers, len(bins), func(_ int, blk cube.Block) error {
			if err := stap.BeamformBand(r.p, msg.h.dc, cur, bins[blk.Lo:blk.Hi], lo, msg.bc); err != nil {
				return err
			}
			r.stageSleep(load, blk.Len())
			return nil
		})
		if err != nil {
			return fmt.Errorf("pipexec: beamform CPI %d: %w", seq, err)
		}
		r.releaseDoppler(msg.h)
		last := hi == r.p.Dims.Ranges
		clk.addItem(time.Since(t0), last)
		if !last {
			continue
		}
		owed, prevSeq = true, seq
		// The CPI's beamforming has finished with cur, and nothing reads it
		// before the owed set replaces it: hand it back now, so the weight
		// stage solves a later CPI into it instead of building a new set.
		pool.put(cur)
		if !send(r, out, beamMsg{seq: seq, bc: msg.bc, start: msg.start}) {
			return nil
		}
	}
}

// pcStage waits for both beamforming halves of a CPI, pulse-compresses all
// profiles (partitioned by (beam, bin) pairs), and either forwards to the
// CFAR stage or — in the combined design — runs CFAR itself.
func (r *runner) pcStage(clk *stageClock, in <-chan beamMsg, out chan<- beamMsg) error {
	if out != nil {
		defer close(out)
	}
	// Per-worker compressors, the (beam, bin) enumeration, and — in the
	// combined design — the CFAR worker state are built once and grown
	// lazily when a tuner upscale raises the worker count.
	comps := []*stap.Compressor{stap.NewCompressor(r.p)}
	pairs := stap.AllBeamBins(len(r.p.Beams), r.p.Bins())
	var cfar *cfarState
	if r.cfg.CombinePCCFAR {
		cfar = newCFARState(r.p, 1)
	}
	// firstHalf buffers the first beamforming half of each CPI until its
	// partner arrives; the entry is deleted on consumption, so the map
	// stays bounded by the number of CPIs in flight.
	firstHalf := make(map[uint64]struct{})
	// The input has two producers (the BF stages); launch closes it once
	// both have exited, so termination is by channel close — which stays
	// correct when a skip policy delivers fewer than n CPIs.
	for {
		msg, ok := recv(r, in)
		if !ok {
			return nil
		}
		// Both halves carry the same beam cube and start time; only
		// arrival order differs, so the second message stands for the CPI.
		if _, dup := firstHalf[msg.seq]; !dup {
			firstHalf[msg.seq] = struct{}{}
			continue
		}
		delete(firstHalf, msg.seq)
		if msg.drop {
			// Both BF stages are done with a dropped CPI's beam cube.
			r.pools.putBeam(msg.bc)
			r.releaseMem(r.beamB)
			continue
		}
		workers := r.workersFor(tsPulseComp)
		for len(comps) < workers {
			comps = append(comps, comps[0].Clone())
		}
		t0 := time.Now()
		err := parallel(workers, len(pairs), func(widx int, blk cube.Block) error {
			if err := stap.Compress(r.p, msg.bc, comps[widx], pairs[blk.Lo:blk.Hi]); err != nil {
				return err
			}
			r.stageSleep(r.cfg.testLoad.PulseComp, blk.Len())
			return nil
		})
		if err != nil {
			return fmt.Errorf("pipexec: pulse compression CPI %d: %w", msg.seq, err)
		}
		if r.cfg.CombinePCCFAR {
			cfar.resize(r.p, workers)
			if err := r.runCFAR(msg, cfar, workers); err != nil {
				return err
			}
			clk.add(time.Since(t0))
			r.afterCPI()
			continue
		}
		clk.add(time.Since(t0))
		if !send(r, out, msg) {
			return nil
		}
	}
}

// cfarState is the reusable worker state of the CFAR service: the (beam,
// bin) enumeration, its partition into worker blocks, the per-worker
// detector scratches, and the per-worker result slots. Built once per
// stage; with it a steady-state CPI without detections allocates nothing.
type cfarState struct {
	pairs   []stap.BeamBin
	blocks  []cube.Block
	partial [][]stap.Detection
	scratch []*stap.CFARScratch
}

func newCFARState(p *stap.Params, workers int) *cfarState {
	pairs := stap.AllBeamBins(len(p.Beams), p.Bins())
	st := &cfarState{
		pairs:   pairs,
		blocks:  cube.Split(len(pairs), workers),
		partial: make([][]stap.Detection, workers),
		scratch: make([]*stap.CFARScratch, workers),
	}
	for i := range st.scratch {
		st.scratch[i] = stap.NewCFARScratch(p)
	}
	return st
}

// resize re-partitions the (beam, bin) pairs for a new worker count and
// grows the per-worker state; scratches and result slots built for a
// larger earlier count are kept (shrinking is free, regrowth reuses them).
func (st *cfarState) resize(p *stap.Params, workers int) {
	if len(st.blocks) != workers {
		st.blocks = cube.Split(len(st.pairs), workers)
	}
	for len(st.partial) < workers {
		st.partial = append(st.partial, nil)
	}
	for len(st.scratch) < workers {
		st.scratch = append(st.scratch, stap.NewCFARScratch(p))
	}
}

// cfarStage runs CFAR detection, partitioned by (beam, bin) pairs.
func (r *runner) cfarStage(clk *stageClock, in <-chan beamMsg) error {
	st := newCFARState(r.p, r.workersFor(tsCFAR))
	for {
		msg, ok := recv(r, in)
		if !ok {
			return nil
		}
		workers := r.workersFor(tsCFAR)
		st.resize(r.p, workers)
		t0 := time.Now()
		if err := r.runCFAR(msg, st, workers); err != nil {
			return err
		}
		clk.add(time.Since(t0))
		r.afterCPI()
	}
}

func (r *runner) runCFAR(msg beamMsg, st *cfarState, workers int) error {
	err := parallel(workers, workers, func(_ int, wblk cube.Block) error {
		for w := wblk.Lo; w < wblk.Hi; w++ {
			blk := st.blocks[w]
			dets, err := stap.CFARWithScratch(r.p, r.p.CFAR.Kind, msg.bc, st.pairs[blk.Lo:blk.Hi], st.scratch[w])
			if err != nil {
				return err
			}
			st.partial[w] = dets
			r.stageSleep(r.cfg.testLoad.CFAR, blk.Len())
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("pipexec: CFAR CPI %d: %w", msg.seq, err)
	}
	var all []stap.Detection
	for w, d := range st.partial {
		all = append(all, d...)
		st.partial[w] = nil
	}
	stap.SortDetections(all)
	// The beam cube's detections are extracted; hand it back for the next
	// CPI before the (possibly slow) report write.
	r.pools.putBeam(msg.bc)
	r.releaseMem(r.beamB)
	if r.cfg.Reports != nil {
		if err := r.cfg.Reports.WriteReports(msg.seq, all); err != nil {
			return err
		}
	}
	now := time.Now()
	r.record(CPIResult{Seq: msg.seq, Detections: all, Latency: now.Sub(msg.start), Done: now})
	return nil
}

package pipexec

import (
	"fmt"
	"sync/atomic"
	"time"

	"stapio/internal/tune"
)

// Resilience: the paper's system assumes every striped read succeeds; a
// production pipeline cannot. This file defines the knobs — a retry policy
// for striped reads and a degradation policy for reads that stay failed —
// and the counters a run reports so degraded stripe servers are measured,
// not guessed at.

// RetryPolicy bounds the re-reads of one CPI's staging file. The zero
// value means defaults: 3 attempts, 2ms base backoff doubling to 100ms.
type RetryPolicy struct {
	// MaxAttempts is the total number of read attempts per CPI (>= 1).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 3
	}
	return p.MaxAttempts
}

// backoff returns the delay before attempt (1-based retry index).
func (p RetryPolicy) backoff(retry int) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	max := p.MaxBackoff
	if max <= 0 {
		max = 100 * time.Millisecond
	}
	d := base << (retry - 1)
	if d > max || d <= 0 {
		d = max
	}
	return d
}

// DegradePolicy selects what the pipeline does when a CPI's read has
// exhausted its retries (and, for DegradeLastGoodWeights, when a weight
// solve fails).
type DegradePolicy int

const (
	// DegradeFailFast aborts the run on the first exhausted retry — the
	// seed behaviour, appropriate when partial results are worthless.
	DegradeFailFast DegradePolicy = iota
	// DegradeSkipCPI drops the unreadable CPI and keeps the pipeline
	// flowing; downstream stages pair each CPI with the weights of the
	// previous *delivered* CPI.
	DegradeSkipCPI
	// DegradeLastGoodWeights is DegradeSkipCPI plus weight-stage
	// resilience: a failed weight solve falls back to the last
	// successfully solved weight set instead of aborting.
	DegradeLastGoodWeights
)

// String implements fmt.Stringer.
func (d DegradePolicy) String() string {
	switch d {
	case DegradeFailFast:
		return "fail-fast"
	case DegradeSkipCPI:
		return "skip-CPI"
	case DegradeLastGoodWeights:
		return "last-good-weights"
	default:
		return fmt.Sprintf("DegradePolicy(%d)", int(d))
	}
}

// ParseDegradePolicy maps the CLI names onto policies.
func ParseDegradePolicy(s string) (DegradePolicy, error) {
	switch s {
	case "failfast", "fail-fast":
		return DegradeFailFast, nil
	case "skip", "skip-cpi":
		return DegradeSkipCPI, nil
	case "lastgood", "last-good-weights":
		return DegradeLastGoodWeights, nil
	default:
		return 0, fmt.Errorf("pipexec: unknown degradation policy %q (failfast | skip | lastgood)", s)
	}
}

// RunStats are the resilience counters of one run, aggregated across
// stages.
type RunStats struct {
	// Retries is the number of read attempts beyond each CPI's first.
	Retries int64
	// Drops is the number of CPIs abandoned after retry exhaustion.
	Drops int64
	// DroppedSeqs lists the abandoned CPIs in ascending order.
	DroppedSeqs []uint64
	// ChecksumFailures counts reads whose payload failed the cube CRC
	// (each one also triggers a retry).
	ChecksumFailures int64
	// WeightFallbacks counts CPIs beamformed with stale weights under
	// DegradeLastGoodWeights.
	WeightFallbacks int64
	// ChunkRereads counts chunk-level re-read operations against corrupt
	// chunks — the partial-re-read path that replaces whole-file retries
	// when per-chunk checksums locate the damage. Zero for sources without
	// a frontend.
	ChunkRereads int64
	// ChunkRereadBytes is the total bytes those chunk re-reads fetched.
	ChunkRereadBytes int64
	// RepairedReads counts cube reads that hit corrupt chunks but completed
	// clean via chunk re-reads; such reads surface no error, so they appear
	// here rather than in ChecksumFailures.
	RepairedReads int64
	// SourceStalls counts items (CPIs, or bands under Config.BandRanges)
	// whose readahead-window head had not landed when the pipeline came
	// to consume it — the pipeline stalled on the source; a band run
	// can stall up to once per band. High stall counts with a shallow
	// window are the signature of an I/O-bound run.
	SourceStalls int64
	// SourceStall is the total time the read driver spent waiting on the
	// source (head-of-window waits, retries included) — embedded, the
	// Doppler stage's own I/O wait.
	SourceStall time.Duration
	// ReadaheadReady is the mean number of landed fetches in the readahead
	// window at consumption time — window occupancy. Near 0 means the
	// pipeline is outrunning the source; near the depth means prefetch is
	// fully hiding the read latency.
	ReadaheadReady float64
	// FinalReadAhead and FinalDecodeWorkers are the I/O knob values the
	// run ended on — equal to the configured values unless the auto-tuner
	// moved them.
	FinalReadAhead     int
	FinalDecodeWorkers int
	// MemLimit is the effective memory budget (the tightest limit on the
	// budget's path to its root; 0 = unlimited), MemHighWater the peak
	// tracked residency in bytes, and MemStalls/MemStall the count and
	// total wall time of reservations that had to wait for bytes. The
	// high-water mark is tracked even without a budget, so unlimited runs
	// get residency observability for free.
	MemLimit     int64
	MemHighWater int64
	MemStalls    int64
	MemStall     time.Duration
	// Evictions counts landed readahead items evicted to their source
	// under budget pressure, and RefetchBytes the slab bytes re-fetched
	// when the window reached them. Zero without a limit or on a source
	// that cannot fetch an item again.
	Evictions    int64
	RefetchBytes int64
	// StageTimes holds each stage's per-CPI service-time distribution
	// (p50/p90/max from the live log-scale histograms), in pipeline order.
	StageTimes []StageTimeStats
	// TuneStages names the tunable stages in split order, TuneDecisions is
	// the auto-tuner's decision trace, and TuneFinalSplit is the worker
	// split the run ended on. All empty without Config.AutoTune.
	TuneStages     []string
	TuneDecisions  []tune.Decision
	TuneFinalSplit []int
}

// String summarises the counters.
func (s RunStats) String() string {
	return fmt.Sprintf("retries=%d drops=%d checksum-failures=%d weight-fallbacks=%d chunk-rereads=%d repaired-reads=%d",
		s.Retries, s.Drops, s.ChecksumFailures, s.WeightFallbacks, s.ChunkRereads, s.RepairedReads)
}

// IOSnapshot is a live view of the pipeline's I/O frontend — the knob
// values currently in force plus the stall/occupancy counters so far.
// Cheap to take (atomic loads only), so services can expose it per
// replica while runs are in flight.
type IOSnapshot struct {
	// ReadAhead and DecodeWorkers are the knob values currently in force
	// (the auto-tuner may have moved them off the configured values).
	ReadAhead     int `json:"read_ahead"`
	DecodeWorkers int `json:"decode_workers"`
	// SourceStalls counts items the pipeline had to wait for because the
	// window head had not landed; SourceStallNS is the total nanoseconds
	// spent in those head-of-window waits.
	SourceStalls  int64 `json:"source_stalls"`
	SourceStallNS int64 `json:"source_stall_ns"`
	// ReadaheadReady is the mean landed-fetch count in the readahead
	// window at consumption time (window occupancy).
	ReadaheadReady float64 `json:"readahead_ready"`
	// Memory accounting: the effective budget (0 = unlimited), current
	// and peak tracked residency, budget-stall count and nanoseconds, and
	// the eviction and re-fetch counters. Residency is tracked even
	// without a budget configured.
	MemLimit     int64 `json:"mem_limit"`
	MemInUse     int64 `json:"mem_in_use"`
	MemHighWater int64 `json:"mem_high_water"`
	MemStalls    int64 `json:"mem_stalls"`
	MemStallNS   int64 `json:"mem_stall_ns"`
	Evictions    int64 `json:"evictions"`
	RefetchBytes int64 `json:"refetch_bytes"`
}

// ioSnapshot assembles the live view from the runner's atomics.
func (r *runner) ioSnapshot() IOSnapshot {
	snap := IOSnapshot{
		ReadAhead:     int(r.raDepth.Load()),
		DecodeWorkers: int(r.decW.Load()),
		SourceStalls:  r.stats.sourceStalls.Load(),
		SourceStallNS: r.stats.sourceStallNS.Load(),
	}
	if n := r.stats.raOccupSamples.Load(); n > 0 {
		snap.ReadaheadReady = float64(r.stats.raOccupSum.Load()) / float64(n)
	}
	if r.budget != nil {
		ms := r.budget.Stats()
		snap.MemLimit = r.budget.PathLimit()
		snap.MemInUse = ms.InUse
		snap.MemHighWater = ms.HighWater
		snap.MemStalls = ms.Stalls
		snap.MemStallNS = int64(ms.StallTime)
	}
	snap.Evictions = r.stats.evictions.Load()
	snap.RefetchBytes = r.stats.refetchBytes.Load()
	return snap
}

// runStats is the runner's live (atomic) counterpart of RunStats.
type runStats struct {
	retries          atomic.Int64
	drops            atomic.Int64
	checksumFailures atomic.Int64
	weightFallbacks  atomic.Int64
	sourceStalls     atomic.Int64
	sourceStallNS    atomic.Int64
	raOccupSum       atomic.Int64
	raOccupSamples   atomic.Int64
	evictions        atomic.Int64
	refetchBytes     atomic.Int64
}

// snapshot freezes the counters; droppedSeqs is supplied by the read
// driver (it is the only writer and has exited by collection time).
func (s *runStats) snapshot(dropped []uint64) RunStats {
	return RunStats{
		Retries:          s.retries.Load(),
		Drops:            s.drops.Load(),
		DroppedSeqs:      dropped,
		ChecksumFailures: s.checksumFailures.Load(),
		WeightFallbacks:  s.weightFallbacks.Load(),
		SourceStalls:     s.sourceStalls.Load(),
		SourceStall:      time.Duration(s.sourceStallNS.Load()),
		Evictions:        s.evictions.Load(),
		RefetchBytes:     s.refetchBytes.Load(),
	}
}

// Package pipesim executes a core.Pipeline on a discrete-event simulation
// of the machine (internal/machine) and parallel file system
// (internal/pfs). Each task is a stage that serves CPIs in order; a stage's
// service consists of the paper's phases — waiting for the parallel read
// (first task only), receiving input, computing, sending — and the file
// system is a shared resource whose stripe servers queue requests, so the
// I/O bottleneck the paper observed emerges rather than being assumed.
//
// The simulator measures steady-state throughput (CPIs/second at the
// terminal task) and latency (head service start to terminal completion),
// plus a per-task phase breakdown matching the paper's tables.
package pipesim

import (
	"fmt"
	"sort"

	"stapio/internal/core"
	"stapio/internal/machine"
	"stapio/internal/pfs"
	"stapio/internal/sim"
)

// Options configures a simulation run.
type Options struct {
	// CPIs is the number of coherent processing intervals pushed through
	// the pipeline.
	CPIs int
	// Warmup is the number of leading CPIs excluded from steady-state
	// statistics (the pipeline fill). Must be >= 1 and < CPIs.
	Warmup int
	// PrefetchDepth is how many reads ahead an asynchronous-I/O task keeps
	// in flight (the paper's iread/iowait double buffering is depth 1).
	// Ignored on synchronous file systems. Values < 1 are treated as 1.
	// The real executor's pipexec.Config.ReadAhead is the same knob, so
	// model sweeps and wall-clock sweeps are directly comparable.
	PrefetchDepth int
	// BufferDepth bounds how far a producer may run ahead of each
	// consumer (double buffering = 2, the default). Without flow control
	// a fast head stage would queue unboundedly in front of the
	// bottleneck.
	BufferDepth int
	// ArrivalInterval, when positive, paces the head task: CPI k cannot
	// start before k*ArrivalInterval, modelling the radar's fixed CPI
	// cadence. Zero free-runs the pipeline (used to measure capacity).
	ArrivalInterval float64
	// RadarWriteBytes, when positive, adds the radar itself as a writer:
	// each time the pipeline starts a CPI, the radar writes the next
	// staging file (RadarWriteBytes) into the same stripe servers — the
	// paper's round-robin staggering, where the radar refills the file
	// slot the pipeline just vacated. The write load therefore tracks the
	// pipeline rate and contends with reads for the whole run.
	RadarWriteBytes float64
	// StagingFiles is the number of round-robin staging files shared by
	// the radar writer and the pipeline reader (the paper uses 4; values
	// < 1 default to 4). CPI k lives in slot k mod StagingFiles. With the
	// radar writer enabled, Result.StagingConflicts counts the intervals
	// during which a slot was being read and rewritten at the same time —
	// the data-inconsistency hazard the paper's round-robin staggering
	// minimises.
	StagingFiles int
	// Trace records a per-phase execution timeline into Result.Timeline
	// (report.Gantt renders it). Off by default: tracing a long run
	// allocates one span per task phase per CPI.
	Trace bool
	// Faults, when non-nil, injects the deterministic fault plan into the
	// simulated stripe servers: failed stripe requests are re-served
	// (priced as retries with backoff) and slow outcomes stretch the
	// service time. Only meaningful when the pipeline touches the file
	// system.
	Faults *pfs.FaultPlan
}

// Phase identifies one segment of a task's service in the timeline.
type Phase string

// Phases recorded by the tracer.
const (
	PhaseReadWait  Phase = "read-wait"
	PhaseRecv      Phase = "recv"
	PhaseCompute   Phase = "compute"
	PhaseSend      Phase = "send"
	PhaseWriteWait Phase = "write-wait"
)

// Span is one traced interval of a task's execution.
type Span struct {
	Task  string
	CPI   int
	Phase Phase
	Start float64
	End   float64
}

// DefaultOptions runs 60 CPIs with a 12-CPI warmup, prefetch depth 1, and
// double buffering.
func DefaultOptions() Options {
	return Options{CPIs: 60, Warmup: 12, PrefetchDepth: 1, BufferDepth: 2}
}

// TaskStats is the measured per-CPI phase breakdown of one task in steady
// state.
type TaskStats struct {
	Name  string
	Nodes int
	// ReadWait is the mean time the task spent blocked on the parallel
	// file system (the "receive phase" of the paper's first task).
	ReadWait float64
	// WriteWait is the mean time blocked on synchronous report writes
	// (zero for async file systems, where writes are fire-and-forget).
	WriteWait float64
	// Recv, Compute, Send are the mean phase durations.
	Recv, Compute, Send float64
	// InputWait is the mean time between the task becoming free and its
	// next CPI's inputs being available (idle upstream starvation).
	InputWait float64
	// Service is the mean end-to-end service time per CPI.
	Service float64
	// Served is the number of CPIs measured (after warmup).
	Served int
}

// Result is the outcome of a simulation run.
type Result struct {
	// Throughput is the steady-state CPI completion rate at the terminal
	// task, CPIs/second (the paper's eq. (1) measured).
	Throughput float64
	// Latency is the mean steady-state time from the head task starting a
	// CPI to the terminal task completing it (eq. (2) measured).
	Latency float64
	// LatencyP95 is the 95th-percentile steady-state latency.
	LatencyP95 float64
	// Tasks is the per-task phase breakdown.
	Tasks []TaskStats
	// Horizon is the virtual time at which the run completed.
	Horizon float64
	// FSBusiestUtilization is the utilization of the most-loaded stripe
	// server (0 when the pipeline does not read).
	FSBusiestUtilization float64
	// Events is the number of simulation events processed.
	Events int64
	// Timeline holds the traced spans when Options.Trace was set, in
	// completion order.
	Timeline []Span
	// StagingConflicts counts read/write overlaps on the same staging
	// file slot (only meaningful with the radar writer enabled).
	StagingConflicts int
	// FaultRetries is the number of stripe requests the file system model
	// re-served because of injected faults (zero without Options.Faults).
	FaultRetries int64
}

// Run simulates the pipeline and returns measured performance.
func Run(p *core.Pipeline, prof machine.Profile, fsCfg pfs.Config, opts Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if opts.CPIs < 2 {
		return nil, fmt.Errorf("pipesim: need at least 2 CPIs, got %d", opts.CPIs)
	}
	if opts.Warmup < 1 || opts.Warmup >= opts.CPIs {
		return nil, fmt.Errorf("pipesim: warmup %d must be in [1, %d)", opts.Warmup, opts.CPIs)
	}
	if opts.PrefetchDepth < 1 {
		opts.PrefetchDepth = 1
	}
	if opts.BufferDepth < 1 {
		opts.BufferDepth = 1
	}
	if opts.StagingFiles < 1 {
		opts.StagingFiles = 4
	}
	if opts.ArrivalInterval < 0 {
		return nil, fmt.Errorf("pipesim: negative arrival interval %v", opts.ArrivalInterval)
	}

	if opts.RadarWriteBytes < 0 {
		return nil, fmt.Errorf("pipesim: negative radar writer volume %v", opts.RadarWriteBytes)
	}
	r := &runner{pipe: p, prof: prof, opts: opts}
	needsFS := opts.RadarWriteBytes > 0
	for _, t := range p.Tasks {
		if t.ReadBytes > 0 || t.WriteBytes > 0 {
			needsFS = true
		}
	}
	if needsFS {
		var err error
		r.fs, err = pfs.NewModel(&r.eng, fsCfg)
		if err != nil {
			return nil, err
		}
		r.fsCfg = fsCfg
		if opts.Faults != nil {
			if err := opts.Faults.Validate(); err != nil {
				return nil, err
			}
			r.fs.SetFaults(opts.Faults)
		}
	}
	r.build()
	r.eng.Run()
	return r.collect()
}

// Measure runs the two-phase measurement protocol the paper's set-up
// implies: first the pipeline free-runs to find its capacity (throughput =
// 1 / max T_i); then it re-runs with CPIs arriving at just under that
// capacity — the radar's real-time cadence — which keeps queues empty so
// the measured latency is the per-CPI processing time of the paper's
// eq. (2)/(4), not queueing delay. The returned Result carries the
// free-run throughput and the paced-run latency and task statistics.
func Measure(p *core.Pipeline, prof machine.Profile, fsCfg pfs.Config, opts Options) (*Result, error) {
	if opts.ArrivalInterval != 0 {
		return nil, fmt.Errorf("pipesim: Measure sets the arrival interval itself")
	}
	free, err := Run(p, prof, fsCfg, opts)
	if err != nil {
		return nil, err
	}
	paced := opts
	paced.ArrivalInterval = 1.001 / free.Throughput
	res, err := Run(p, prof, fsCfg, paced)
	if err != nil {
		return nil, err
	}
	res.Throughput = free.Throughput
	return res, nil
}

type token struct{ from, cpi int }

type runner struct {
	eng    sim.Engine
	pipe   *core.Pipeline
	prof   machine.Profile
	fs     *pfs.Model
	fsCfg  pfs.Config
	opts   Options
	stages []*stage

	headStart []float64 // head service start per CPI
	termDone  []float64 // terminal completion per CPI
	timeline  []Span

	// Staging-slot occupancy: a slot with simultaneous readers and a
	// writer (or two writers) is a consistency hazard.
	slotReaders  []int
	slotWriters  []int
	slotConflict int
}

// slotReadBegin marks the staging slot of CPI k as being read; it reports
// a conflict if the radar is rewriting it.
func (r *runner) slotReadBegin(k int) int {
	s := k % r.opts.StagingFiles
	if r.slotWriters[s] > 0 {
		r.slotConflict++
	}
	r.slotReaders[s]++
	return s
}

func (r *runner) slotReadEnd(s int) { r.slotReaders[s]-- }

// slotWriteBegin marks the slot of CPI k as being rewritten by the radar.
func (r *runner) slotWriteBegin(k int) int {
	s := k % r.opts.StagingFiles
	if r.slotReaders[s] > 0 || r.slotWriters[s] > 0 {
		r.slotConflict++
	}
	r.slotWriters[s]++
	return s
}

func (r *runner) slotWriteEnd(s int) { r.slotWriters[s]-- }

// span records a traced interval when tracing is enabled. Zero-length
// spans are dropped.
func (r *runner) span(task string, cpi int, phase Phase, start, end float64) {
	if !r.opts.Trace || end <= start {
		return
	}
	r.timeline = append(r.timeline, Span{Task: task, CPI: cpi, Phase: phase, Start: start, End: end})
}

type stage struct {
	r    *runner
	idx  int
	task core.Task

	recvTime    float64
	computeTime float64
	sendTime    float64

	tokens         map[token]bool
	next           int // next CPI to serve
	busy           bool
	freeAt         float64 // when the stage last became free
	started        float64 // service start of the in-flight CPI
	startedThrough int     // highest CPI whose service has started (-1 none)
	arrivalArmed   bool    // head only: a paced wake-up is scheduled

	// read bookkeeping (only for reading tasks)
	readDone   map[int]bool
	readIssued int // highest CPI whose read has been issued (-1 none)
	waitingOn  int // CPI whose read the stage is blocked on (-1 none)

	// stats (accumulated for CPIs >= warmup)
	statReadWait, statRecv, statCompute, statSend float64
	statWriteWait, statInputWait, statService     float64
	statServed                                    int
}

func (r *runner) build() {
	n := len(r.pipe.Tasks)
	r.stages = make([]*stage, n)
	r.headStart = make([]float64, r.opts.CPIs)
	r.termDone = make([]float64, r.opts.CPIs)
	r.slotReaders = make([]int, r.opts.StagingFiles)
	r.slotWriters = make([]int, r.opts.StagingFiles)
	for i, t := range r.pipe.Tasks {
		tm := core.Timing(r.pipe, r.prof, r.fsCfg, i, t.Nodes)
		r.stages[i] = &stage{
			r: r, idx: i, task: t,
			tokens:         make(map[token]bool),
			recvTime:       tm.Recv,
			computeTime:    tm.Compute + tm.Overhead,
			sendTime:       tm.Send,
			readIssued:     -1,
			waitingOn:      -1,
			startedThrough: -1,
		}
	}
	// Prime: async readers issue their prefetch window at t=0; all stages
	// try to start CPI 0.
	for _, s := range r.stages {
		if s.task.ReadBytes > 0 && r.fsCfg.Async {
			for k := 0; k < r.opts.PrefetchDepth && k < r.opts.CPIs; k++ {
				s.issueRead(k)
			}
		}
	}
	for _, s := range r.stages {
		s.tryStart()
	}
}

// ready reports whether all inputs of CPI k are available and no consumer
// buffer would overflow.
func (s *stage) ready(k int) bool {
	for _, d := range s.task.Deps {
		src := k - d.Lag
		if src < 0 {
			continue // before the first CPI: primed with initial data
		}
		if !s.tokens[token{from: d.From, cpi: src}] {
			return false
		}
	}
	// Flow control: this stage may be at most BufferDepth (+lag) CPIs
	// ahead of each consumer's service start.
	for _, c := range s.r.pipe.Consumers(s.idx) {
		limit := s.r.stages[c.To].startedThrough + s.r.opts.BufferDepth + c.Dep.Lag
		if k > limit {
			return false
		}
	}
	return true
}

// deliver records the arrival of the producer's output for CPI k and wakes
// the stage if it was input-starved.
func (s *stage) deliver(from, k int) {
	s.tokens[token{from: from, cpi: k}] = true
	s.tryStart()
}

// tryStart begins service of the next CPI if the stage is idle, inputs are
// ready, and (for the head) the CPI has arrived.
func (s *stage) tryStart() {
	if s.busy || s.next >= s.r.opts.CPIs || !s.ready(s.next) {
		return
	}
	k := s.next
	if s.idx == 0 && s.r.opts.ArrivalInterval > 0 {
		at := float64(k) * s.r.opts.ArrivalInterval
		if s.r.eng.Now() < at {
			if !s.arrivalArmed {
				s.arrivalArmed = true
				s.r.eng.ScheduleAt(at, func() {
					s.arrivalArmed = false
					s.tryStart()
				})
			}
			return
		}
	}
	s.busy = true
	s.started = s.r.eng.Now()
	s.startedThrough = k
	if s.idx == 0 {
		s.r.headStart[k] = s.started
		// The radar refills the staging-file slot the pipeline just moved
		// past — the paper's round-robin write/read staggering. The refill
		// targets slot k mod StagingFiles (the data for CPI k+files).
		if s.r.opts.RadarWriteBytes > 0 {
			slot := s.r.slotWriteBegin(k)
			s.r.fs.Write(0, int64(s.r.opts.RadarWriteBytes), func() {
				s.r.slotWriteEnd(slot)
			})
		}
	}
	// Starting a CPI frees one producer-side buffer slot.
	for _, d := range s.task.Deps {
		s.r.stages[d.From].tryStart()
	}
	if k >= s.r.opts.Warmup {
		s.statInputWait += s.started - s.freeAt
	}
	if s.task.ReadBytes > 0 {
		if s.r.fsCfg.Async {
			if s.readDone[k] {
				s.afterRead(k, 0)
			} else {
				s.waitingOn = k // resumed by onReadComplete
			}
		} else {
			// Synchronous file system: issue now and block.
			issue := s.r.eng.Now()
			s.issueReadWith(k, func() {
				s.afterRead(k, s.r.eng.Now()-issue)
			})
		}
		return
	}
	s.phases(k, 0)
}

// issueRead starts the asynchronous read for CPI k (at most once).
func (s *stage) issueRead(k int) {
	if k >= s.r.opts.CPIs || k <= s.readIssued {
		return
	}
	s.readIssued = k
	s.issueReadWith(k, func() { s.onReadComplete(k) })
}

func (s *stage) issueReadWith(k int, done func()) {
	if s.readDone == nil {
		s.readDone = make(map[int]bool)
	}
	slot := s.r.slotReadBegin(k)
	s.r.fs.Read(0, int64(s.task.ReadBytes), func() {
		s.r.slotReadEnd(slot)
		done()
	})
}

// onReadComplete handles an asynchronous read completion: unblock the
// stage if it was waiting on this CPI's data.
func (s *stage) onReadComplete(k int) {
	s.readDone[k] = true
	if s.waitingOn == k {
		s.waitingOn = -1
		s.afterRead(k, s.r.eng.Now()-s.started)
	}
}

// afterRead continues service once CPI k's data is in memory. Consuming
// buffer k frees it, so the next prefetch (k + depth) is issued here —
// the iread/iowait double-buffering discipline: at most PrefetchDepth
// reads beyond the one being consumed.
func (s *stage) afterRead(k int, readWait float64) {
	if k >= s.r.opts.Warmup {
		s.statReadWait += readWait
	}
	s.r.span(s.task.Name, k, PhaseReadWait, s.r.eng.Now()-readWait, s.r.eng.Now())
	delete(s.readDone, k)
	if s.r.fsCfg.Async {
		s.issueRead(k + s.r.opts.PrefetchDepth)
	}
	s.phases(k, readWait)
}

// phases runs the receive, compute, send, and (optional) write phases,
// then completes.
func (s *stage) phases(k int, readWait float64) {
	eng := &s.r.eng
	t0 := eng.Now()
	eng.Schedule(s.recvTime, func() {
		t1 := eng.Now()
		s.r.span(s.task.Name, k, PhaseRecv, t0, t1)
		eng.Schedule(s.computeTime, func() {
			t2 := eng.Now()
			s.r.span(s.task.Name, k, PhaseCompute, t1, t2)
			eng.Schedule(s.sendTime, func() {
				s.r.span(s.task.Name, k, PhaseSend, t2, eng.Now())
				s.write(k)
			})
		})
	})
}

// write persists the task's per-CPI output. On asynchronous file systems
// the write is fire-and-forget (it still loads the stripe servers); on
// synchronous ones the stage blocks until it lands.
func (s *stage) write(k int) {
	if s.task.WriteBytes <= 0 {
		s.complete(k)
		return
	}
	if s.r.fsCfg.Async {
		s.r.fs.Write(0, int64(s.task.WriteBytes), func() {})
		s.complete(k)
		return
	}
	issued := s.r.eng.Now()
	s.r.fs.Write(0, int64(s.task.WriteBytes), func() {
		if k >= s.r.opts.Warmup {
			s.statWriteWait += s.r.eng.Now() - issued
		}
		s.r.span(s.task.Name, k, PhaseWriteWait, issued, s.r.eng.Now())
		s.complete(k)
	})
}

// complete finishes CPI k: deposits output tokens, records statistics, and
// moves to the next CPI.
func (s *stage) complete(k int) {
	now := s.r.eng.Now()
	if k >= s.r.opts.Warmup {
		s.statRecv += s.recvTime
		s.statCompute += s.computeTime
		s.statSend += s.sendTime
		s.statService += now - s.started
		s.statServed++
	}
	if s.idx == len(s.r.stages)-1 {
		s.r.termDone[k] = now
	}
	for _, c := range s.r.pipe.Consumers(s.idx) {
		s.r.stages[c.To].deliver(s.idx, k)
	}
	s.busy = false
	s.freeAt = now
	s.next = k + 1
	s.tryStart()
}

func (r *runner) collect() (*Result, error) {
	n := r.opts.CPIs
	w := r.opts.Warmup
	last := r.termDone[n-1]
	if last <= 0 {
		return nil, fmt.Errorf("pipesim: pipeline did not complete all CPIs (deadlock?)")
	}
	res := &Result{Horizon: r.eng.Now(), Events: r.eng.Processed()}
	res.Throughput = float64(n-w) / (r.termDone[n-1] - r.termDone[w-1])
	lats := make([]float64, 0, n-w)
	var latSum float64
	for k := w; k < n; k++ {
		l := r.termDone[k] - r.headStart[k]
		latSum += l
		lats = append(lats, l)
	}
	res.Latency = latSum / float64(n-w)
	sort.Float64s(lats)
	res.LatencyP95 = lats[(len(lats)*95)/100]
	for _, s := range r.stages {
		served := s.statServed
		if served == 0 {
			served = 1
		}
		res.Tasks = append(res.Tasks, TaskStats{
			Name:      s.task.Name,
			Nodes:     s.task.Nodes,
			ReadWait:  s.statReadWait / float64(served),
			WriteWait: s.statWriteWait / float64(served),
			Recv:      s.statRecv / float64(served),
			Compute:   s.statCompute / float64(served),
			Send:      s.statSend / float64(served),
			InputWait: s.statInputWait / float64(served),
			Service:   s.statService / float64(served),
			Served:    s.statServed,
		})
	}
	if r.fs != nil {
		res.FSBusiestUtilization = r.fs.BusiestUtilization(res.Horizon)
		res.FaultRetries = r.fs.FaultRetries()
	}
	res.Timeline = r.timeline
	res.StagingConflicts = r.slotConflict
	return res, nil
}

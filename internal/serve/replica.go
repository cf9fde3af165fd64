package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"stapio/internal/cube"
	"stapio/internal/pipexec"
	"stapio/internal/tune"
)

// A replica is one long-running pipexec.Stream pipeline fed through a
// pipexec.StreamSource. The server owns N of them; each accepted CPI is
// opened on one replica as a streaming publication — chunks decode straight
// from the connection read buffer into the source's pooled slab — and the
// replica assigns it the replica's next internal sequence number (the
// pipeline's weight feedback is a per-replica temporal chain, so internal
// sequencing is per replica, not global), runs it through the real
// pipeline, and routes the detection reports back to the submitting
// connection.

// job is one accepted CPI travelling through a replica.
type job struct {
	conn *serverConn
	seq  uint64    // the producer's sequence number (unique per connection)
	t0   time.Time // server receipt time, for the reported latency
}

// ingest is one CPI admitted into a replica: a leased gate slot plus the
// stream publication feeding the pipeline's slab for that internal
// sequence number. Exactly one of commit/abort must follow.
type ingest struct {
	r   *replica
	pub *pipexec.CubePublisher
	seq uint64 // internal pipeline sequence number
}

// commit finishes a publication (every chunk landed clean) and hands the
// decoded cube to the pipeline.
func (in *ingest) commit() error {
	err := in.pub.Commit()
	in.r.gate.release()
	if err != nil {
		in.r.take(in.seq)
		return err
	}
	in.r.dispatched.Add(1)
	return nil
}

// abort cancels the publication (producer died, repair budget exhausted,
// duplicate sequence). The pipeline sees an errored read for the internal
// seq and — replicas run DegradeSkipCPI with a single read attempt — drops
// exactly that CPI and keeps streaming. Returns the registered job so the
// caller can settle its admission token.
func (in *ingest) abort(err error) (job, bool) {
	in.pub.Abort(err)
	in.r.gate.release()
	return in.r.take(in.seq)
}

// ingestGate bounds how many publications a replica holds open at once by
// the pipeline's LIVE readahead depth — the I/O knob the per-replica
// auto-tuner moves. Depth 1 serialises uploads into the replica; a tuner
// that grows the depth lets that many producer transfers overlap, which is
// exactly the latency-hiding the readahead window models for file sources.
type ingestGate struct {
	mu    sync.Mutex
	used  int
	depth func() int
	wake  chan struct{}
}

func newIngestGate(depth func() int) *ingestGate {
	return &ingestGate{depth: depth, wake: make(chan struct{}, 1)}
}

// acquire claims a slot, waiting for a release — and polling, so a tuner
// growing the depth mid-wait is noticed — up to the timeout or ctx cancel.
func (g *ingestGate) acquire(ctx context.Context, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		g.mu.Lock()
		d := g.depth()
		if d < 1 {
			d = 1
		}
		if g.used < d {
			g.used++
			g.mu.Unlock()
			return true
		}
		g.mu.Unlock()
		if time.Now().After(deadline) {
			return false
		}
		t := time.NewTimer(2 * time.Millisecond)
		select {
		case <-g.wake:
			t.Stop()
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return false
		}
	}
}

func (g *ingestGate) release() {
	g.mu.Lock()
	g.used--
	g.mu.Unlock()
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// openTimeout bounds how long an open waits for a gate slot before the
// server answers CodeOverloaded; CPIs awaiting repair hold slots across
// client round trips, so this is minutes of margin, not milliseconds.
const openTimeout = 5 * time.Second

// replica wraps one streaming pipeline instance.
type replica struct {
	id   int
	ctx  context.Context
	src  *pipexec.StreamSource
	h    *pipexec.StreamHandle
	gate *ingestGate

	mu   sync.Mutex
	next uint64
	jobs map[uint64]job

	dispatched atomic.Int64
	completed  atomic.Int64

	// final holds the pipeline summary after stop (nil while running).
	final *pipexec.Result
	ferr  error

	done chan struct{}
}

// startReplica launches the pipeline over a fresh StreamSource and its
// result router.
func startReplica(ctx context.Context, id int, cfg pipexec.Config, src *pipexec.StreamSource, route func(job, pipexec.CPIResult)) (*replica, error) {
	h, err := pipexec.Stream(ctx, cfg, src)
	if err != nil {
		return nil, err
	}
	r := &replica{id: id, ctx: ctx, src: src, h: h, jobs: make(map[uint64]job), done: make(chan struct{})}
	r.gate = newIngestGate(func() int { return h.IOStats().ReadAhead })
	go func() {
		defer close(r.done)
		for res := range h.Results {
			j, ok := r.take(res.Seq)
			if !ok {
				// Unreachable unless the pipeline invents sequence numbers;
				// drop rather than crash the service.
				continue
			}
			r.completed.Add(1)
			route(j, res)
		}
	}()
	return r, nil
}

// open admits one CPI: it claims a gate slot, assigns the next internal
// sequence number, registers the job, and opens the stream publication the
// connection will feed chunks into. On success exactly one of
// ingest.commit/abort must follow.
func (r *replica) open(j job, h cube.Header) (*ingest, error) {
	if !r.gate.acquire(r.ctx, openTimeout) {
		return nil, ErrOverloaded
	}
	r.mu.Lock()
	seq := r.next
	r.next++
	r.jobs[seq] = j
	r.mu.Unlock()
	pub, err := r.src.Publish(seq)
	if err == nil {
		err = pub.Announce(h)
		if err != nil {
			pub.Abort(err)
		}
	}
	if err != nil {
		r.take(seq)
		r.gate.release()
		return nil, err
	}
	return &ingest{r: r, pub: pub, seq: seq}, nil
}

func (r *replica) take(seq uint64) (job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[seq]
	if ok {
		delete(r.jobs, seq)
	}
	return j, ok
}

// inFlight reports how many opened CPIs have not completed yet.
func (r *replica) inFlight() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.jobs)
}

// stop shuts the pipeline down and waits for the result router to finish.
// Jobs still in the pipeline when stop is called are abandoned (the server
// drains in-flight work before stopping replicas, so in normal shutdown
// there are none).
func (r *replica) stop() (*pipexec.Result, error) {
	res, err := r.h.Stop()
	// The pipeline has fully exited; release any read waits it abandoned
	// so their goroutines unwind (see pipexec waitCube), and recycle
	// committed-but-unconsumed slabs back to the source pool.
	r.src.Close()
	<-r.done
	r.mu.Lock()
	r.final, r.ferr = res, err
	r.mu.Unlock()
	return res, err
}

// summary returns the post-stop pipeline result, or nil while running.
func (r *replica) summary() (*pipexec.Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.final, r.ferr
}

// replicaConfig derives the per-replica pipeline configuration from the
// service configuration.
func replicaConfig(cfg Config) pipexec.Config {
	pc := pipexec.Config{
		Params:        cfg.Params,
		Workers:       cfg.Workers,
		CombinePCCFAR: cfg.CombinePCCFAR,
		// Each replica gets its own controller instance (tune.Controller
		// is single-run state), so a replica pool converges per replica
		// against its own measured load.
		AutoTune: cloneTuneConfig(cfg.AutoTune),
		// An aborted publication (producer died mid-cube, repair budget
		// exhausted) resolves its internal seq with an error; one attempt
		// plus skip-CPI degradation drops exactly that CPI and keeps the
		// replica streaming. Clean CPIs never take this path, so
		// detections stay byte-identical to a file-fed run.
		Degrade: pipexec.DegradeSkipCPI,
		Retry:   pipexec.RetryPolicy{MaxAttempts: 1},
	}
	if cfg.AutoTune != nil {
		// Cold start at depth 1: the joint I/O + compute solve owns the
		// readahead depth (= concurrently open ingests, see ingestGate)
		// and grows it against measured transfer and decode times.
		pc.ReadAhead = 1
	} else {
		// Untimed replicas keep the static admission share: this replica's
		// fraction of the server's in-flight budget may stream in at once.
		ra := cfg.maxInFlight() / cfg.replicas()
		if ra < 1 {
			ra = 1
		}
		pc.ReadAhead = ra
	}
	w := &pc.Workers
	for _, n := range []*int{&w.Doppler, &w.EasyWeight, &w.HardWeight, &w.EasyBF, &w.HardBF, &w.PulseComp, &w.CFAR} {
		if *n < 1 {
			*n = 1
		}
	}
	return pc
}

// cloneTuneConfig copies the tuner config so every replica owns its own
// (pipexec keeps the pointer; shared mutable config across replicas would
// be a trap).
func cloneTuneConfig(c *tune.Config) *tune.Config {
	if c == nil {
		return nil
	}
	cp := *c
	return &cp
}

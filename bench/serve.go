package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"stapio/internal/cube"
	"stapio/internal/fleet"
	"stapio/internal/pipexec"
	"stapio/internal/serve"
	"stapio/internal/stap"
)

// answerTimeout bounds the wait for a block's last answers; CPIs still
// unanswered then count as failed.
const answerTimeout = 30 * time.Second

// answer is one CPI's outcome, whichever client delivered it.
type answer struct {
	seq            uint64
	dets           []stap.Detection
	lat, serverLat time.Duration
	err            error
}

// conn is the part of serve.Client and fleet.Client a load block drives.
type conn struct {
	submit func(frame []byte) (uint64, error)
	next   func() (answer, bool)
}

func directConn(cl *serve.Client) conn {
	return conn{submit: cl.Submit, next: func() (answer, bool) {
		r, ok := <-cl.Results()
		return answer{r.Seq, r.Detections, r.Latency, r.ServerLatency, r.Err}, ok
	}}
}

func fleetConn(fc *fleet.Client) conn {
	return conn{submit: fc.Submit, next: func() (answer, bool) {
		r, ok := <-fc.Results()
		return answer{r.Seq, r.Detections, r.Latency, r.ServerLatency, r.Err}, ok
	}}
}

// loadStats is the load generator's own accounting of one block.
type loadStats struct {
	clientLat, serverLat []time.Duration
	// submitBusy is the time spent inside Submit calls.
	submitBusy time.Duration
	// late counts sends that left more than lateSlack after they were due;
	// maxLate is the worst of them (open loop).
	late    int
	maxLate time.Duration
	// growing reports a backlog that grew over the block (open loop).
	growing bool
}

// lateSlack is how far behind its due time a send may leave before the
// generator counts as late: well above timer jitter, well below the
// cadence.
const lateSlack = time.Millisecond

// schedule is the open loop's clock: CPI i is due at start + i*interval,
// whatever happened to the CPIs before it. Latency counts from the due
// time, so the wait a stall imposes on later CPIs is charged to them.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// latency is what CPI i cost its producer: due to answered.
func (s schedule) latency(i int, answered time.Time) time.Duration { return answered.Sub(s.due(i)) }

// lateness is how long after its due time CPI i was sent (never negative).
func (s schedule) lateness(i int, sent time.Time) time.Duration {
	if d := sent.Sub(s.due(i)); d > 0 {
		return d
	}
	return 0
}

// serveBlock sends n CPIs over c from one goroutine, window in flight at
// most, and checks every answer against the reference. interval 0 is the
// closed loop (the next CPI leaves when a slot frees); a positive interval
// is the open loop on that cadence. Frames are restamped into a fixed ring
// of buffers, so the generator allocates per block, not per CPI.
func (e *env) serveBlock(c conn, n, window int, interval time.Duration, tl *tally, tr *tracer) block {
	b := block{n: n, load: &loadStats{}}
	tl.attempted.Add(int64(n))
	base := e.nextSeq
	e.nextSeq += uint64(n)

	bufs := make([][]byte, window)
	free := make(chan int, window)
	for i := range bufs {
		bufs[i] = make([]byte, len(e.frames[0]))
		free <- i
	}
	slot := make([]atomic.Int32, n)
	sent := make([]time.Time, n)

	// The collector owns answers/answered until done closes; mu covers the
	// time-out path, which reads them while the collector may still run.
	var mu sync.Mutex
	answers := make([]answer, n)
	answered := make([]time.Time, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for got := 0; got < n; got++ {
			a, ok := c.next()
			if !ok {
				return
			}
			now := time.Now()
			i := int(a.seq - base)
			if i < 0 || i >= n {
				got-- // a straggler of an earlier, timed-out block
				continue
			}
			mu.Lock()
			answers[i], answered[i] = a, now
			mu.Unlock()
			free <- int(slot[i].Load())
		}
	}()

	sp := tr.begin("block", -1, -1)
	sched := schedule{start: time.Now(), interval: interval}
	submitted := n
	for i := 0; i < n; i++ {
		if interval > 0 {
			if d := time.Until(sched.due(i)); d > 0 {
				time.Sleep(d)
			}
		}
		s := <-free
		seq := base + uint64(i)
		copy(bufs[s], e.frames[seq%uint64(len(e.frames))])
		if b.err = cube.PatchSeq(bufs[s], seq); b.err != nil {
			submitted = i
			break
		}
		slot[i].Store(int32(s))
		sent[i] = time.Now()
		id := tr.begin("serve.submit", sp, int64(seq))
		_, b.err = c.submit(bufs[s])
		tr.end(id)
		b.load.submitBusy += time.Since(sent[i])
		if b.err != nil {
			b.err = fmt.Errorf("submit CPI %d: %w", seq, b.err)
			submitted = i
			break
		}
	}
	if submitted == n {
		select {
		case <-done:
		case <-time.After(answerTimeout):
			b.err = fmt.Errorf("CPIs still unanswered %v after the last submit", answerTimeout)
		}
	}
	b.elapsed = time.Since(sched.start)
	tr.end(sp)

	mu.Lock()
	defer mu.Unlock()
	good := 0
	b.lat = make([]time.Duration, 0, n)
	for i := 0; i < submitted; i++ {
		a := answers[i]
		seq := base + uint64(i)
		if answered[i].IsZero() {
			tl.fail(1, "CPI %d: no answer", seq)
			continue
		}
		if a.err != nil {
			tl.fail(1, "CPI %d: %v", seq, a.err)
			continue
		}
		from := sent[i]
		if interval > 0 {
			from = sched.due(i)
			if l := sched.lateness(i, sent[i]); l > lateSlack {
				b.load.late++
				if l > b.load.maxLate {
					b.load.maxLate = l
				}
			}
			b.lat = append(b.lat, sched.latency(i, answered[i]))
		} else {
			b.lat = append(b.lat, a.lat)
		}
		b.load.clientLat = append(b.load.clientLat, a.lat)
		b.load.serverLat = append(b.load.serverLat, a.serverLat)
		tr.add("serve.cpi", from, answered[i], sp, int64(a.seq))
		if e.correct(seq, a.dets) {
			good++
		} else {
			tl.fail(1, "CPI %d: detections differ from the reference chain's", seq)
		}
	}
	if submitted < n {
		tl.fail(n-submitted, "%d CPIs never submitted: %v", n-submitted, b.err)
	}
	if interval > 0 {
		b.load.growing = backlogGrew(b.lat)
	}
	b.failed = n - good
	return b
}

// backlogGrew reports whether an open-loop block ended with a backlog it
// did not start with: the last quarter's median latency is over the limit
// and more than twice the first quarter's. lat is in send order.
func backlogGrew(lat []time.Duration) bool {
	q := len(lat) / 4
	if q == 0 {
		return false
	}
	first := percentile(sortedMs(lat[:q]), 50)
	last := percentile(sortedMs(lat[len(lat)-q:]), 50)
	return last > serveLimitMs && last > 2*first
}

// inprocStream runs n CPIs through pipexec.Stream fed by a StreamSource in
// this process — the service's pipeline without socket, admission or
// result framing — closed loop at the service workload's window, and
// returns its rate.
func (e *env) inprocStream(ctx context.Context, n int, tl *tally) (float64, error) {
	tl.attempted.Add(int64(n))
	cfg := e.w.config(e.params)
	// What a serve replica adds to the workload's pipeline configuration.
	cfg.ReadAhead = 32
	cfg.Degrade = pipexec.DegradeSkipCPI
	cfg.Retry = pipexec.RetryPolicy{MaxAttempts: 1}
	src := pipexec.NewStreamSource(e.scen.Dims)
	h, err := pipexec.Stream(ctx, cfg, src)
	if err != nil {
		tl.fail(n, "in-process stream: %v", err)
		return 0, err
	}
	slots := make(chan struct{}, serveWindow)
	good := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range h.Results {
			if sameDetections(r.Detections, e.refFor(r.Seq)) {
				good++
			}
			<-slots
		}
	}()
	start := time.Now()
	var pubErr error
	for k := 0; k < n && pubErr == nil; k++ {
		slots <- struct{}{}
		pubErr = publish(src, uint64(k), e.frames[k%len(e.frames)])
	}
	// Every slot back means every published CPI was answered.
	for i := 0; i < serveWindow && pubErr == nil; i++ {
		slots <- struct{}{}
	}
	elapsed := time.Since(start)
	_, stopErr := h.Stop()
	src.Close()
	<-done
	if good < n {
		tl.fail(n-good, "in-process stream: %d of %d CPIs wrong or missing", n-good, n)
	}
	if pubErr != nil {
		return 0, pubErr
	}
	if stopErr != nil {
		return 0, stopErr
	}
	return float64(n) / elapsed.Seconds(), nil
}

// publish feeds one encoded frame into src chunk by chunk, as a serve
// connection does with the chunks it reads off the socket.
func publish(src *pipexec.StreamSource, seq uint64, frame []byte) error {
	h, err := cube.ParseHeader(frame)
	if err != nil {
		return err
	}
	h.Seq = seq
	pub, err := src.Publish(seq)
	if err != nil {
		return err
	}
	if err := pub.Announce(h); err != nil {
		pub.Abort(err)
		return err
	}
	payload := frame[h.PayloadOffset():]
	for i := 0; i < h.Chunks(); i++ {
		lo, hi := h.ChunkSpan(i)
		if err := pub.Chunk(i, payload[lo:hi]); err != nil {
			pub.Abort(err)
			return err
		}
	}
	return pub.Commit()
}

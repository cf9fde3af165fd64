package main

import (
	"errors"
	"testing"
	"time"

	"stapio/internal/cube"
	"stapio/internal/radar"
	"stapio/internal/stap"
)

var errRejected = errors.New("rejected")

// fakeEnv is the service workload's inputs and reference without a server.
func fakeEnv(t *testing.T, seed int64) *env {
	t.Helper()
	w := workloadByName("small-serve")
	e := &env{w: w, scen: w.scenario()}
	e.scen.Seed = seed
	e.params = params(e.scen)
	var err error
	if e.frames, err = radar.EncodeCPIs(e.scen, w.files, w.chunk); err != nil {
		t.Fatal(err)
	}
	if err := e.reference(); err != nil {
		t.Fatal(err)
	}
	return e
}

// stallConn answers every CPI correctly and at once, except that the
// submit of CPI stallAt blocks for stall — a server that stops reading.
func stallConn(e *env, stallAt uint64, stall time.Duration) conn {
	answers := make(chan answer, 1024)
	return conn{
		submit: func(frame []byte) (uint64, error) {
			h, err := cube.ParseHeader(frame)
			if err != nil {
				return 0, err
			}
			if h.Seq == stallAt {
				time.Sleep(stall)
			}
			answers <- answer{seq: h.Seq, dets: e.refFor(h.Seq)}
			return h.Seq, nil
		},
		next: func() (answer, bool) { a, ok := <-answers; return a, ok },
	}
}

// In the open loop a stall is charged to every CPI that came due during
// it: latency counts from the due time, not from the (late) send.
func TestOpenLoopChargesStallToLaterCPIs(t *testing.T) {
	e := fakeEnv(t, 7)
	const (
		n        = 60
		interval = 2 * time.Millisecond
		stallAt  = 10
		stall    = 40 * time.Millisecond
	)
	tl := &tally{}
	b := e.serveBlock(stallConn(e, stallAt, stall), n, serveMaxQueue, interval, tl, nil)
	if b.err != nil || b.failed != 0 || len(b.lat) != n {
		t.Fatalf("block: err %v, %d failed, %d latencies", b.err, b.failed, len(b.lat))
	}
	if tl.attempted.Load() != n || tl.failed.Load() != 0 {
		t.Errorf("tally = %d attempted, %d failed", tl.attempted.Load(), tl.failed.Load())
	}
	// CPI 11 was due 2 ms into the 40 ms stall: it waited some 38 ms.
	if got := b.lat[stallAt+1]; got < stall-2*interval-5*time.Millisecond {
		t.Errorf("CPI after the stall: latency %v, want about %v", got, stall-interval)
	}
	// The backlog drains; the last CPIs are on time again.
	if got := b.lat[n-1]; got > stall/2 {
		t.Errorf("last CPI: latency %v, the backlog never drained", got)
	}
	// Some stall/interval CPIs came due during the stall and left late (a
	// loaded machine's timers add a few more).
	if b.load.late < 15 {
		t.Errorf("%d CPIs sent late, want at least %d", b.load.late, int(stall/interval)-5)
	}
	if b.load.maxLate < stall-2*interval-5*time.Millisecond || b.load.maxLate > stall+20*time.Millisecond {
		t.Errorf("worst lateness %v, want about %v", b.load.maxLate, stall-interval)
	}

	// The closed loop sends the next CPI only when a slot frees: the same
	// stall costs one CPI its latency and the others nothing.
	e.nextSeq = 0
	b = e.serveBlock(stallConn(e, stallAt, stall), n, serveWindow, 0, tl, nil)
	if b.err != nil || b.failed != 0 {
		t.Fatalf("closed block: err %v, %d failed", b.err, b.failed)
	}
	if b.load.late != 0 {
		t.Errorf("closed loop counted %d late sends", b.load.late)
	}
}

func TestScheduleAccounting(t *testing.T) {
	start := time.Unix(100, 0)
	s := schedule{start: start, interval: 5 * time.Millisecond}
	if got := s.due(4); !got.Equal(start.Add(20 * time.Millisecond)) {
		t.Errorf("due(4) = %v", got)
	}
	if got := s.latency(4, start.Add(27*time.Millisecond)); got != 7*time.Millisecond {
		t.Errorf("latency = %v, want 7ms from the due time", got)
	}
	if got := s.lateness(4, start.Add(19*time.Millisecond)); got != 0 {
		t.Errorf("an early send is %v late", got)
	}
	if got := s.lateness(4, start.Add(23*time.Millisecond)); got != 3*time.Millisecond {
		t.Errorf("lateness = %v, want 3ms", got)
	}
}

func TestBacklogGrew(t *testing.T) {
	steady := make([]time.Duration, 100)
	growing := make([]time.Duration, 100)
	for i := range steady {
		steady[i] = 2 * time.Millisecond
		growing[i] = time.Duration(i) * time.Millisecond
	}
	if backlogGrew(steady) {
		t.Error("a steady block reads as a growing backlog")
	}
	if !backlogGrew(growing) {
		t.Error("a growing backlog went unnoticed")
	}
}

// A wrong answer, a rejected CPI and a missing answer all count as failed.
func TestServeBlockCountsFailures(t *testing.T) {
	e := fakeEnv(t, 7)
	good := stallConn(e, 1<<62, 0)
	bad := conn{
		submit: good.submit,
		next: func() (answer, bool) {
			a, ok := good.next()
			switch a.seq {
			case 3:
				a.dets = append(a.dets[:len(a.dets):len(a.dets)], stap.Detection{}) // one detection too many
			case 5:
				a.err = errRejected
			}
			return a, ok
		},
	}
	tl := &tally{}
	b := e.serveBlock(bad, 12, serveWindow, 0, tl, nil)
	if b.failed != 2 || tl.failed.Load() != 2 {
		t.Errorf("%d failed (tally %d), want 2", b.failed, tl.failed.Load())
	}
}

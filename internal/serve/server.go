package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"stapio/internal/core"
	"stapio/internal/cube"
	"stapio/internal/membudget"
	"stapio/internal/pipexec"
	"stapio/internal/stap"
	"stapio/internal/tune"
)

// Config describes a detection service instance.
type Config struct {
	// Params are the STAP processing parameters; submitted cubes must
	// match Params.Dims exactly.
	Params stap.Params
	// Workers assigns per-task goroutine counts inside each pipeline
	// replica (zero fields become 1).
	Workers core.STAPNodes
	// CombinePCCFAR selects the merged pulse-compression+CFAR stage in
	// each replica.
	CombinePCCFAR bool
	// AutoTune, when non-nil, gives every replica an independent online
	// worker rebalancer (see pipexec.Config.AutoTune); each replica's
	// controller converges against that replica's own measured load. The
	// replica sources expose frontend clocks and a resizable decode pool,
	// so each replica's controller runs the joint I/O + compute solve:
	// ingest depth (concurrent uploads) and decode workers rebalance live
	// against the compute stages.
	AutoTune *tune.Config
	// Replicas is the number of pipeline replicas CPIs are dispatched
	// across (values < 1 mean 1). Each replica is an independent
	// pipexec.Stream with its own weight-feedback chain.
	Replicas int
	// MemBudget caps the server's tracked cube/intermediate residency in
	// bytes: a server-wide membudget root is split evenly into per-replica
	// children, so one replica's ingest burst cannot starve its
	// neighbours. 0 means unlimited (accounting still runs, so /stats
	// reports residency either way). Each replica's share must cover at
	// least one CPI's residency (pipexec.MinResidency) or Serve fails.
	MemBudget int64
	// MaxInFlight bounds the CPIs admitted but not yet answered — the
	// admission-control depth. A submit that finds no free slot is
	// rejected with CodeOverloaded. Values < 1 mean 4 per replica.
	MaxInFlight int
	// RepairRounds bounds the chunk re-request rounds per submitted CPI
	// before it is rejected as corrupt (values < 1 mean 2).
	RepairRounds int
	// MaxFrameBytes bounds a single wire frame (values < 1 mean
	// DefaultMaxFrameBytes).
	MaxFrameBytes int64
	// ConnRcvBuf caps each accepted connection's kernel receive buffer in
	// bytes (0 keeps the OS default). Besides bounding per-connection
	// server memory, a small buffer makes the ingest gate's backpressure
	// reach slow streaming producers promptly: when a reader parks waiting
	// for an ingest slot, the producer's sends stall at the socket instead
	// of a whole cube silently pre-buffering in the kernel.
	ConnRcvBuf int
	// WriteTimeout bounds one frame write to a client; a connection
	// stuck longer is dropped so it cannot stall a replica's result
	// routing (values <= 0 mean 10s).
	WriteTimeout time.Duration
	// HelloTimeout bounds the handshake (values <= 0 mean 5s).
	HelloTimeout time.Duration
}

func (c *Config) replicas() int {
	if c.Replicas < 1 {
		return 1
	}
	return c.Replicas
}

func (c *Config) maxInFlight() int {
	if c.MaxInFlight < 1 {
		return 4 * c.replicas()
	}
	return c.MaxInFlight
}

func (c *Config) repairRounds() int {
	if c.RepairRounds < 1 {
		return 2
	}
	return c.RepairRounds
}

func (c *Config) maxFrame() int64 {
	if c.MaxFrameBytes < 1 {
		return DefaultMaxFrameBytes
	}
	return c.MaxFrameBytes
}

func (c *Config) writeTimeout() time.Duration {
	if c.WriteTimeout <= 0 {
		return 10 * time.Second
	}
	return c.WriteTimeout
}

func (c *Config) helloTimeout() time.Duration {
	if c.HelloTimeout <= 0 {
		return 5 * time.Second
	}
	return c.HelloTimeout
}

// Server is a running detection service.
type Server struct {
	cfg Config

	ln     net.Listener
	ctx    context.Context
	cancel context.CancelFunc

	replicas []*replica
	rr       atomic.Uint64

	// budget is the server-wide memory budget root; each replica pipeline
	// charges a per-replica child (see Config.MemBudget).
	budget *membudget.Budget

	// tokens is the admission semaphore: one token per in-flight CPI,
	// acquired when its submit header is admitted (including CPIs awaiting
	// repair) and released when the CPI is answered.
	tokens      chan struct{}
	outstanding atomic.Int64

	draining atomic.Bool

	connMu sync.Mutex
	conns  map[*serverConn]struct{}

	stats counters
	start time.Time

	wg       sync.WaitGroup
	stopOnce sync.Once
	stopErr  error
}

// New validates the configuration and builds a server (not yet listening).
func New(cfg Config) (*Server, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{
		cfg:    cfg,
		tokens: make(chan struct{}, cfg.maxInFlight()),
		conns:  make(map[*serverConn]struct{}),
		start:  time.Now(),
	}
	for i := 0; i < cfg.maxInFlight(); i++ {
		s.tokens <- struct{}{}
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	return s, nil
}

// Start listens on addr ("host:port"; port 0 picks a free one), launches
// the replica pool, and begins accepting producer connections.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return s.Serve(ln)
}

// Serve is Start over an existing listener. It returns once the service is
// accepting (the accept loop runs in the background; Shutdown stops it).
func (s *Server) Serve(ln net.Listener) error {
	// One budget tree for the whole service: the root carries the
	// server-wide cap, each replica charges a per-replica child, so the
	// /stats root view aggregates live residency across replicas while
	// each child bounds its own pipeline's admission.
	replicas := s.cfg.replicas()
	var perReplica int64
	if s.cfg.MemBudget > 0 {
		perReplica = s.cfg.MemBudget / int64(replicas)
	}
	s.budget = membudget.New("serve", s.cfg.MemBudget)
	for i := 0; i < replicas; i++ {
		// Built per replica so each gets its own tuner config clone and its
		// own slab pool (StreamSource pools decoded cubes internally).
		pc := replicaConfig(s.cfg)
		pc.MemBudget = s.budget.Child(fmt.Sprintf("replica%d", i), perReplica)
		src := pipexec.NewStreamSource(s.cfg.Params.Dims)
		r, err := startReplica(s.ctx, i, pc, src, s.finishJob)
		if err != nil {
			for _, prev := range s.replicas {
				prev.stop()
			}
			s.cancel()
			ln.Close()
			return err
		}
		s.replicas = append(s.replicas, r)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the listener address (useful with port 0).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		if s.cfg.ConnRcvBuf > 0 {
			if tc, ok := c.(*net.TCPConn); ok {
				tc.SetReadBuffer(s.cfg.ConnRcvBuf)
			}
		}
		s.stats.connsTotal.Add(1)
		s.stats.connsActive.Add(1)
		sc := &serverConn{srv: s, c: c, streams: make(map[uint64]*streamIngest)}
		s.connMu.Lock()
		s.conns[sc] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go sc.readLoop()
	}
}

// dropConn unregisters a connection after its reader exits.
func (s *Server) dropConn(sc *serverConn) {
	s.connMu.Lock()
	delete(s.conns, sc)
	s.connMu.Unlock()
	s.stats.connsActive.Add(-1)
}

// tryAcquire takes an admission token without blocking.
func (s *Server) tryAcquire() bool {
	select {
	case <-s.tokens:
		s.outstanding.Add(1)
		return true
	default:
		return false
	}
}

func (s *Server) release() {
	s.outstanding.Add(-1)
	s.tokens <- struct{}{}
}

// openIngest admits one CPI onto a replica, round-robin: the replica
// claims an ingest slot, registers the job, and opens the publication the
// connection feeds chunks into.
func (s *Server) openIngest(j job, h cube.Header) (*ingest, error) {
	r := s.replicas[s.rr.Add(1)%uint64(len(s.replicas))]
	return r.open(j, h)
}

// finishJob streams one completed CPI's reports back to its producer and
// returns the admission token. Runs on the replica's result router.
//
// The token goes back before the result is written: a producer keeping to
// the advertised window submits its next CPI the moment it reads this
// result, and must find the slot free. The CPI stays outstanding — and
// counted against a drain — until the write has finished and been
// tallied, so a Shutdown that has waited for outstanding to reach zero
// sees every result flushed and counted.
func (s *Server) finishJob(j job, res pipexec.CPIResult) {
	s.stats.completed.Add(1)
	payload := append(encodeResultPrefix(int64(time.Since(j.t0))), pipexec.EncodeReports(j.seq, res.Detections)...)
	s.tokens <- struct{}{}
	defer s.outstanding.Add(-1)
	if err := j.conn.send(fResult, payload); err != nil {
		s.stats.orphaned.Add(1)
		return
	}
	s.stats.resultsSent.Add(1)
}

// Shutdown drains the service: the listener closes, producers are told to
// stop (Goodbye; further submits are rejected with CodeDraining), in-flight
// CPIs complete and their results flush, then the replicas stop and every
// connection closes. ctx bounds the drain; on expiry remaining in-flight
// CPIs are abandoned and counted as orphaned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopOnce.Do(func() {
		s.draining.Store(true)
		if s.ln != nil {
			s.ln.Close()
		}
		s.broadcastGoodbye()
		s.stopErr = s.awaitIdle(ctx)
		for _, r := range s.replicas {
			r.stop()
		}
		s.cancel()
		s.connMu.Lock()
		for sc := range s.conns {
			sc.close()
		}
		s.connMu.Unlock()
		s.wg.Wait()
		// Count abandoned jobs only now: the replicas and connection readers
		// have stopped, so nothing can still answer (or double-count) a CPI.
		// Jobs that completed during the stop were routed normally, and CPIs
		// still streaming or awaiting repair were released and counted by
		// their reader's unwind; whatever is still outstanding is exactly the abandoned set, and
		// no longer in flight.
		if n := s.outstanding.Swap(0); n > 0 {
			s.stats.orphaned.Add(n)
		}
	})
	return s.stopErr
}

// Kill stops the service abruptly: no goodbye, no drain. The listener and
// every producer connection close immediately — from a client's point of
// view this is indistinguishable from the process being SIGKILLed (pending
// submits fail with a connection error) — then the replicas tear down and
// whatever was in flight is counted as orphaned. It is the crash end of the
// lifecycle spectrum from Shutdown, used by the fleet chaos tests to
// simulate a server dying mid-stream without leaking the test process's
// goroutines.
func (s *Server) Kill() {
	s.stopOnce.Do(func() {
		s.draining.Store(true)
		if s.ln != nil {
			s.ln.Close()
		}
		s.connMu.Lock()
		for sc := range s.conns {
			sc.close()
		}
		s.connMu.Unlock()
		for _, r := range s.replicas {
			r.stop()
		}
		s.cancel()
		s.wg.Wait()
		// Same accounting as Shutdown: with the replicas and readers stopped,
		// whatever is still outstanding is exactly the abandoned set.
		if n := s.outstanding.Swap(0); n > 0 {
			s.stats.orphaned.Add(n)
		}
	})
}

func (s *Server) broadcastGoodbye() {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	for sc := range s.conns {
		sc.send(fGoodbye, nil) // best-effort; errors close the conn anyway
	}
}

// awaitIdle waits for every admitted CPI to be answered.
func (s *Server) awaitIdle(ctx context.Context) error {
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		if s.outstanding.Load() == 0 {
			return nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return fmt.Errorf("serve: drain incomplete, %d CPIs abandoned: %w", s.outstanding.Load(), ctx.Err())
		}
	}
}

// serverConn is one producer connection.
type serverConn struct {
	srv *Server
	c   net.Conn

	wmu    sync.Mutex
	closed atomic.Bool

	// streams holds chunk-streamed CPIs currently being published into a
	// replica (header seen, end-of-submit or repair outstanding), keyed by
	// producer seq. Only the reader goroutine touches it.
	streams map[uint64]*streamIngest
}

// streamIngest is one chunk-streamed CPI mid-flight: the replica
// publication its chunks decode into, plus the repair round state.
type streamIngest struct {
	in    *ingest
	h     cube.Header
	round int
	t0    time.Time
}

// send writes one frame, serialising writers and bounding the write time;
// a failed or overdue write closes the connection.
func (sc *serverConn) send(ftype byte, payload []byte) error {
	if sc.closed.Load() {
		return ErrClosed
	}
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if sc.closed.Load() {
		return ErrClosed
	}
	sc.c.SetWriteDeadline(time.Now().Add(sc.srv.cfg.writeTimeout()))
	if err := writeFrame(sc.c, ftype, payload); err != nil {
		sc.closeLocked()
		return err
	}
	return nil
}

func (sc *serverConn) close() {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.closeLocked()
}

func (sc *serverConn) closeLocked() {
	if sc.closed.CompareAndSwap(false, true) {
		sc.c.Close()
	}
}

func (sc *serverConn) reject(seq uint64, code uint32, msg string) {
	switch code {
	case CodeOverloaded:
		sc.srv.stats.rejectedOverload.Add(1)
	case CodeDraining:
		sc.srv.stats.rejectedDraining.Add(1)
	case CodeCorrupt:
		sc.srv.stats.rejectedCorrupt.Add(1)
	default:
		sc.srv.stats.rejectedOther.Add(1)
	}
	sc.send(fReject, encodeReject(seq, code, msg))
}

// readLoop is the connection's reader goroutine: handshake, then frames
// until the peer hangs up or the server shuts down. No handler keeps a
// frame after it returns, so every frame is read into one buffer that
// grows to the largest frame seen.
func (sc *serverConn) readLoop() {
	defer sc.srv.wg.Done()
	defer sc.srv.dropConn(sc)
	defer sc.close()
	// CPIs left open when the producer disappears hold admission tokens,
	// ingest slots, and leased cube slabs: aborting the publication
	// recycles the slab and makes the replica skip the internal seq, so a
	// producer dying mid-cube leaks nothing.
	defer func() {
		for seq, st := range sc.streams {
			delete(sc.streams, seq)
			st.in.abort(ErrClosed)
			sc.srv.release()
			sc.srv.stats.orphaned.Add(1)
		}
	}()

	if err := sc.handshake(); err != nil {
		return
	}
	var pre [framePrelude]byte
	var buf []byte
	for {
		ftype, n, err := readPrelude(sc.c, pre[:], sc.srv.cfg.maxFrame())
		if err != nil {
			return
		}
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(sc.c, buf); err != nil {
			return
		}
		var ok bool
		switch ftype {
		case fSubmitHdr:
			ok = sc.handleSubmitHdr(buf)
		case fChunk:
			ok = sc.handleChunk(buf)
		case fSubmitEnd:
			ok = sc.handleSubmitEnd(buf)
		case fRepair:
			ok = sc.handleRepair(buf)
		}
		// An unknown frame type means the stream is not speaking our
		// protocol; drop the connection rather than guess.
		if !ok {
			return
		}
	}
}

// handshake reads and answers the hello frame under the hello deadline.
func (sc *serverConn) handshake() error {
	sc.c.SetReadDeadline(time.Now().Add(sc.srv.cfg.helloTimeout()))
	defer sc.c.SetReadDeadline(time.Time{})
	var pre [framePrelude]byte
	ftype, n, err := readPrelude(sc.c, pre[:], sc.srv.cfg.maxFrame())
	if err != nil || ftype != fHello || n != helloLen {
		return errors.New("serve: handshake failed")
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(sc.c, buf); err != nil {
		return err
	}
	dims, err := decodeHello(buf)
	if err != nil {
		return err
	}
	if dims != sc.srv.cfg.Params.Dims {
		sc.send(fReject, encodeReject(0, CodeBadDims,
			fmt.Sprintf("service processes %v, hello announced %v", sc.srv.cfg.Params.Dims, dims)))
		return errors.New("serve: dims mismatch")
	}
	return sc.send(fHelloAck, encodeHelloAck(sc.srv.cfg.maxInFlight()))
}

// handleSubmitHdr opens a CPI: it validates the header + chunk table,
// admits the CPI, and opens a replica publication the following fChunk
// frames decode straight into. Reports false when the connection must be
// torn down.
func (sc *serverConn) handleSubmitHdr(buf []byte) bool {
	srv := sc.srv
	t0 := time.Now()
	h, err := cube.ParseHeader(buf)
	if err != nil {
		// A header that does not parse means the stream framing can no
		// longer be trusted. The reject carries seq 0 (the header may not
		// have yielded a real one), which the producer cannot correlate
		// with a pending CPI — so drop the connection too, failing all its
		// pending CPIs promptly instead of leaving them to dangle.
		sc.reject(0, CodeBadFrame, err.Error())
		return false
	}
	seq := h.Seq
	if int64(len(buf)) != h.PayloadOffset() {
		sc.reject(seq, CodeBadFrame,
			fmt.Sprintf("submit header frame is %d bytes, header+chunk table is %d", len(buf), h.PayloadOffset()))
		return true
	}
	if h.Dims != srv.cfg.Params.Dims {
		sc.reject(seq, CodeBadDims,
			fmt.Sprintf("service processes %v, cube is %v", srv.cfg.Params.Dims, h.Dims))
		return true
	}
	if old, ok := sc.streams[seq]; ok {
		// A duplicate in-flight seq would make chunk routing ambiguous; the
		// old publication is dropped.
		delete(sc.streams, seq)
		old.in.abort(ErrClosed)
		srv.release()
		srv.stats.orphaned.Add(1)
	}
	if srv.draining.Load() {
		sc.reject(seq, CodeDraining, "server is draining")
		return true
	}
	if !srv.tryAcquire() {
		sc.reject(seq, CodeOverloaded,
			fmt.Sprintf("all %d in-flight slots busy", srv.cfg.maxInFlight()))
		return true
	}
	in, err := srv.openIngest(job{conn: sc, seq: seq, t0: t0}, h)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			sc.reject(seq, CodeOverloaded, "replica ingest saturated")
		} else {
			sc.reject(seq, CodeDraining, "server is draining")
		}
		srv.release()
		return true
	}
	srv.stats.noteStreamFrame(len(buf))
	sc.streams[seq] = &streamIngest{in: in, h: h, t0: t0}
	return true
}

// handleChunk feeds one chunk to its publication: the bytes are
// CRC-checked and decoded into the replica's slab directly from the
// connection's read buffer — the chunk is never copied into a file image.
// Chunks for sequence numbers we do not hold (rejected or aborted headers
// racing the producer's pipelined writes) are discarded.
func (sc *serverConn) handleChunk(buf []byte) bool {
	seq, idx, err := decodeChunkPrefix(buf)
	if err != nil {
		sc.reject(0, CodeBadFrame, err.Error())
		return false
	}
	st, ok := sc.streams[seq]
	if !ok {
		return true
	}
	sc.srv.stats.streamedChunks.Add(1)
	sc.srv.stats.noteStreamFrame(len(buf))
	// A CRC mismatch (or stray index) just leaves the chunk missing; the
	// submit-end check requests exactly the missing set for repair.
	st.in.pub.Chunk(idx, buf[chunkPrefixLen:])
	return true
}

// handleSubmitEnd closes a CPI's chunk stream: all chunks landed clean
// means commit + accept; otherwise the missing set is re-requested
// through the repair exchange.
func (sc *serverConn) handleSubmitEnd(buf []byte) bool {
	srv := sc.srv
	seq, err := decodeSubmitEnd(buf)
	if err != nil {
		sc.reject(0, CodeBadFrame, err.Error())
		return false
	}
	st, ok := sc.streams[seq]
	if !ok {
		return true
	}
	if missing := st.in.pub.Missing(); len(missing) > 0 {
		srv.stats.repairReqs.Add(1)
		sc.send(fRepairReq, encodeRepairReq(seq, st.round, missing))
		return true
	}
	sc.finishStream(seq, st)
	return true
}

// finishStream commits a fully-landed CPI and answers it.
func (sc *serverConn) finishStream(seq uint64, st *streamIngest) {
	srv := sc.srv
	delete(sc.streams, seq)
	repaired := st.in.pub.Repaired()
	if err := st.in.commit(); err != nil {
		// Commit only fails when the replica is stopping underneath us.
		sc.reject(seq, CodeDraining, "server is draining")
		srv.release()
		return
	}
	if repaired {
		srv.stats.repairedFrames.Add(1)
	}
	srv.stats.accepted.Add(1)
	sc.send(fAccept, encodeAccept(seq))
}

// handleRepair patches re-sent chunks into an open publication and
// either commits the CPI, asks for another round, or gives up. Reports
// false when the connection must be torn down.
func (sc *serverConn) handleRepair(buf []byte) bool {
	srv := sc.srv
	seq, round, chunks, err := decodeRepair(buf)
	if err != nil {
		// Same trust failure as an unparseable header: the reject can only
		// carry seq 0, so drop the connection to resolve pending CPIs.
		sc.reject(0, CodeBadFrame, err.Error())
		return false
	}
	st, ok := sc.streams[seq]
	if !ok {
		// Repair for a CPI we no longer hold; ignorable.
		return true
	}
	if round != st.round {
		// The round field is an echo of the server's outstanding request,
		// not client state. Trusting it would let a peer that always echoes
		// round 0 pin the round below the budget forever, holding the CPI
		// (and its admission token and slab) indefinitely.
		delete(sc.streams, seq)
		st.in.abort(ErrCorrupt)
		sc.reject(seq, CodeBadFrame,
			fmt.Sprintf("repair echoes round %d, server requested round %d", round, st.round))
		srv.release()
		return true
	}
	h := &st.h
	for _, c := range chunks {
		if c.index < 0 || c.index >= h.Chunks() {
			continue
		}
		lo, hi := h.ChunkSpan(c.index)
		if int64(len(c.data)) != hi-lo {
			continue
		}
		srv.stats.chunkResends.Add(1)
		srv.stats.chunkResendBytes.Add(hi - lo)
		st.in.pub.Chunk(c.index, c.data)
	}
	missing := st.in.pub.Missing()
	if len(missing) == 0 {
		sc.finishStream(seq, st)
		return true
	}
	st.round++
	if st.round >= srv.cfg.repairRounds() {
		delete(sc.streams, seq)
		st.in.abort(ErrCorrupt)
		sc.reject(seq, CodeCorrupt,
			fmt.Sprintf("%d chunks still corrupt after %d repair rounds", len(missing), st.round))
		srv.release()
		return true
	}
	srv.stats.repairReqs.Add(1)
	sc.send(fRepairReq, encodeRepairReq(seq, st.round, missing))
	return true
}

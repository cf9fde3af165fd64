package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"stapio/internal/cube"
	"stapio/internal/pfs"
	"stapio/internal/pipexec"
	"stapio/internal/stap"
)

// Client is a producer connection to a detection service. Submissions are
// asynchronous: Submit returns once the CPI's frames are written, and the CPI's
// detection reports (or its typed rejection) arrive on Results in
// completion order. The caller must drain Results; it is closed after
// Close (or a server-side disconnect) once every outstanding submission
// has been answered or failed.
type Client struct {
	c   net.Conn
	opt Options

	wmu sync.Mutex

	mu      sync.Mutex
	pending map[uint64]*submission

	results chan Result
	closed  atomic.Bool
	// draining flips when the server says Goodbye; further Submits fail
	// fast with ErrDraining instead of a wire round-trip.
	draining atomic.Bool

	// maxInFlight is the server's advertised admission capacity.
	maxInFlight int

	repairReqs     atomic.Int64
	chunkResends   atomic.Int64
	corruptions    atomic.Int64
	framesRepaired atomic.Int64

	readerDone chan struct{}
}

// Options configure a client connection.
type Options struct {
	// Dims is the cube geometry this producer will submit; the handshake
	// fails unless it matches the service's pipeline. Required.
	Dims cube.Dims
	// ResultBuffer is the Results channel depth (values < 1 mean 64).
	ResultBuffer int
	// DialTimeout bounds the TCP dial plus handshake (<= 0 means 5s).
	DialTimeout time.Duration
	// KeepAlive is the TCP keepalive probe period, so a black-holed server
	// (crashed host, dropped route) surfaces as a connection error instead
	// of a read that hangs forever (0 means 15s; < 0 disables).
	KeepAlive time.Duration
	// WriteTimeout bounds one frame write (<= 0 means 10s).
	WriteTimeout time.Duration
	// MaxFrameBytes bounds received frames (< 1 means DefaultMaxFrameBytes).
	MaxFrameBytes int64
	// Faults, when non-nil, deterministically corrupts submitted payload
	// chunks on the wire — the connection-level analogue of the striped
	// store's fault plan, for exercising the chunk re-request repair path.
	// Re-sent chunks re-draw with the repair round as the attempt, exactly
	// like file-path retries.
	Faults *pfs.FaultPlan
	// Streaming is ignored: every submission is chunk-streamed.
	//
	// Deprecated: ignored.
	Streaming bool
	// ChunkPace spaces consecutive chunk frames by this duration — a
	// synthetic slow producer for benchmarks and tests. 0 sends the whole
	// submission as one vectored write.
	ChunkPace time.Duration
	// SendSndBuf caps the connection's kernel send buffer in bytes (0
	// keeps the OS default). With a chunk pace it keeps the producer's
	// slowness real on the wire: a server applying ingest backpressure
	// stalls the producer's writes instead of the pace draining unseen
	// into a deep socket buffer.
	SendSndBuf int
}

func (o *Options) resultBuffer() int {
	if o.ResultBuffer < 1 {
		return 64
	}
	return o.ResultBuffer
}

func (o *Options) dialTimeout() time.Duration {
	if o.DialTimeout <= 0 {
		return 5 * time.Second
	}
	return o.DialTimeout
}

func (o *Options) keepAlive() time.Duration {
	if o.KeepAlive == 0 {
		return 15 * time.Second
	}
	return o.KeepAlive
}

func (o *Options) writeTimeout() time.Duration {
	if o.WriteTimeout <= 0 {
		return 10 * time.Second
	}
	return o.WriteTimeout
}

func (o *Options) maxFrame() int64 {
	if o.MaxFrameBytes < 1 {
		return DefaultMaxFrameBytes
	}
	return o.MaxFrameBytes
}

// Result is the outcome of one submitted CPI.
type Result struct {
	Seq        uint64
	Detections []stap.Detection
	// Latency is submit-to-result wall clock measured at the client
	// (includes both network directions).
	Latency time.Duration
	// ServerLatency is receipt-to-result measured at the server.
	ServerLatency time.Duration
	// Err is non-nil when the CPI was rejected or the connection died;
	// errors.Is-match against ErrOverloaded / ErrDraining / ErrCorrupt /
	// ErrClosed.
	Err error
	// Accepted reports whether the server acknowledged the CPI (fAccept)
	// before this outcome. An ErrClosed result with Accepted true means the
	// server may still process the CPI even though its answer is lost —
	// resubmitting it elsewhere risks processing it twice, which is the
	// retry-safety line a failover layer must respect. A rejection or a
	// connection loss with Accepted false means the server discarded or
	// never admitted the CPI, so a resubmit is safe.
	Accepted bool
}

// submission tracks one in-flight CPI.
type submission struct {
	frame []byte // the clean encoded cube, retained for chunk re-sends
	h     *cube.Header
	t0    time.Time
	// repaired marks that the server requested at least one chunk re-send
	// for this CPI; only touched from the read loop.
	repaired bool
	// accepted marks that the server acknowledged the CPI (fAccept); only
	// touched from the read loop.
	accepted bool
}

// Dial connects to a detection service and performs the handshake.
func Dial(addr string, opt Options) (*Client, error) {
	if !opt.Dims.Valid() {
		return nil, fmt.Errorf("serve: client options need valid dims, got %v", opt.Dims)
	}
	d := net.Dialer{Timeout: opt.dialTimeout(), KeepAlive: opt.keepAlive()}
	c, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if opt.SendSndBuf > 0 {
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetWriteBuffer(opt.SendSndBuf)
		}
	}
	return DialConn(c, opt)
}

// DialConn is Dial over an established connection — any net.Conn that
// honours deadlines works (an in-process net.Pipe half, a TLS-wrapped
// conn, a test transport). It performs the handshake and takes ownership
// of the connection, closing it on failure.
func DialConn(c net.Conn, opt Options) (*Client, error) {
	if !opt.Dims.Valid() {
		c.Close()
		return nil, fmt.Errorf("serve: client options need valid dims, got %v", opt.Dims)
	}
	cl := &Client{
		c:          c,
		opt:        opt,
		pending:    make(map[uint64]*submission),
		results:    make(chan Result, opt.resultBuffer()),
		readerDone: make(chan struct{}),
	}
	if err := cl.handshake(); err != nil {
		c.Close()
		return nil, err
	}
	go cl.readLoop()
	return cl, nil
}

func (cl *Client) handshake() error {
	cl.c.SetDeadline(time.Now().Add(cl.opt.dialTimeout()))
	defer cl.c.SetDeadline(time.Time{})
	if err := writeFrame(cl.c, fHello, encodeHello(cl.opt.Dims)); err != nil {
		return err
	}
	var pre [framePrelude]byte
	ftype, n, err := readPrelude(cl.c, pre[:], cl.opt.maxFrame())
	if err != nil {
		return fmt.Errorf("serve: handshake: %w", err)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(cl.c, buf); err != nil {
		return fmt.Errorf("serve: handshake: %w", err)
	}
	switch ftype {
	case fHelloAck:
		cl.maxInFlight, err = decodeHelloAck(buf)
		return err
	case fReject:
		_, code, msg, derr := decodeReject(buf)
		if derr != nil {
			return derr
		}
		return rejectError(code, msg)
	default:
		return fmt.Errorf("serve: handshake got unexpected frame type %d", ftype)
	}
}

// MaxInFlight returns the server's advertised admission capacity — a sane
// upper bound for a closed-loop producer's window.
func (cl *Client) MaxInFlight() int { return cl.maxInFlight }

// Results delivers each submitted CPI's outcome in completion order.
func (cl *Client) Results() <-chan Result { return cl.results }

// RepairStats reports the chunk re-requests this client has served and the
// corruptions its fault plan injected.
func (cl *Client) RepairStats() (repairReqs, chunkResends, injectedCorruptions int64) {
	return cl.repairReqs.Load(), cl.chunkResends.Load(), cl.corruptions.Load()
}

// RepairedFrames counts the CPIs that needed at least one chunk re-send and
// still came back with a result — delivered despite wire corruption.
func (cl *Client) RepairedFrames() int64 { return cl.framesRepaired.Load() }

// Submit sends one encoded cube file, chunk by chunk. The frame's header
// carries the CPI sequence number, which must be unique among this
// connection's in-flight CPIs; the caller must not mutate frame until the
// CPI's Result arrives. A frame in any cube format version but the
// current one is refused before anything is written, with an error
// matching cube.ErrVersion. Returns the submitted sequence number.
func (cl *Client) Submit(frame []byte) (uint64, error) {
	if cl.closed.Load() {
		return 0, ErrClosed
	}
	if cl.draining.Load() {
		return 0, ErrDraining
	}
	h, err := cube.ParseHeader(frame)
	if err != nil {
		return 0, fmt.Errorf("serve: submit: %w", err)
	}
	sub := &submission{frame: frame, h: &h, t0: time.Now()}
	cl.mu.Lock()
	if _, dup := cl.pending[h.Seq]; dup {
		cl.mu.Unlock()
		return 0, fmt.Errorf("serve: seq %d is already in flight on this connection", h.Seq)
	}
	cl.pending[h.Seq] = sub
	cl.mu.Unlock()

	if err := cl.submitStream(frame, &h); err != nil {
		cl.take(h.Seq)
		return 0, err
	}
	return h.Seq, nil
}

// submitStream sends one cube as header, chunk and end frames. The whole
// submission goes out under one write-lock hold, so concurrent submitters
// never interleave a CPI's frames; with no pacing it is a single vectored
// write (header, every chunk, end marker — zero payload copies).
func (cl *Client) submitStream(frame []byte, h *cube.Header) error {
	hdr := frame[:h.PayloadOffset()]
	payload := frame[h.PayloadOffset():]
	n := h.Chunks()
	prefixes := make([]byte, n*chunkPrefixLen)
	chunkData := make([][]byte, n)
	for i := 0; i < n; i++ {
		lo, hi := h.ChunkSpan(i)
		data := payload[lo:hi]
		if cl.opt.Faults != nil {
			data = cl.corruptChunk(data, h, i, 0)
		}
		putChunkPrefix(prefixes[i*chunkPrefixLen:(i+1)*chunkPrefixLen], h.Seq, i)
		chunkData[i] = data
	}
	end := encodeSubmitEnd(h.Seq)

	cl.wmu.Lock()
	defer cl.wmu.Unlock()
	if cl.closed.Load() {
		return ErrClosed
	}
	if cl.opt.ChunkPace <= 0 {
		frames := make([]frameSpans, 0, n+2)
		frames = append(frames, frameSpans{ftype: fSubmitHdr, spans: [][]byte{hdr}})
		for i := 0; i < n; i++ {
			frames = append(frames, frameSpans{ftype: fChunk,
				spans: [][]byte{prefixes[i*chunkPrefixLen : (i+1)*chunkPrefixLen], chunkData[i]}})
		}
		frames = append(frames, frameSpans{ftype: fSubmitEnd, spans: [][]byte{end}})
		cl.c.SetWriteDeadline(time.Now().Add(cl.opt.writeTimeout()))
		if err := writeFrames(cl.c, frames); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		return nil
	}
	// Paced mode: chunk frames go out individually, ChunkPace apart — a
	// synthetic slow producer whose transfer time the server's per-replica
	// ingest window can overlap across connections. A repair request
	// arriving mid-submit waits for the lock, never deadlocks: this send
	// finishes regardless of the server.
	writeOne := func(ftype byte, spans ...[]byte) error {
		cl.c.SetWriteDeadline(time.Now().Add(cl.opt.writeTimeout()))
		if err := writeFrames(cl.c, []frameSpans{{ftype: ftype, spans: spans}}); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		return nil
	}
	if err := writeOne(fSubmitHdr, hdr); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		time.Sleep(cl.opt.ChunkPace)
		if cl.closed.Load() {
			return ErrClosed
		}
		if err := writeOne(fChunk, prefixes[i*chunkPrefixLen:(i+1)*chunkPrefixLen], chunkData[i]); err != nil {
			return err
		}
	}
	return writeOne(fSubmitEnd, end)
}

// write sends one frame under the write lock and deadline.
func (cl *Client) write(ftype byte, payload []byte) error {
	cl.wmu.Lock()
	defer cl.wmu.Unlock()
	if cl.closed.Load() {
		return ErrClosed
	}
	cl.c.SetWriteDeadline(time.Now().Add(cl.opt.writeTimeout()))
	if err := writeFrame(cl.c, ftype, payload); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// corruptChunk applies the fault plan to one chunk: each chunk draws
// independently on (seq, chunk, attempt), and a corrupt draw flips one
// byte of a copy, which the per-chunk CRC catches server-side.
func (cl *Client) corruptChunk(data []byte, h *cube.Header, chunk, attempt int) []byte {
	if cl.opt.Faults == nil {
		return data
	}
	if o := cl.opt.Faults.ReadOutcome("net", int64(h.Seq), chunk<<16|attempt, attempt); !o.Corrupt {
		return data
	}
	out := make([]byte, len(data))
	copy(out, data)
	out[cl.opt.Faults.CorruptOffset("net", int64(h.Seq), chunk<<16|attempt, int64(len(out)))] ^= 0x40
	cl.corruptions.Add(1)
	return out
}

func (cl *Client) take(seq uint64) (*submission, bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	sub, ok := cl.pending[seq]
	if ok {
		delete(cl.pending, seq)
	}
	return sub, ok
}

func (cl *Client) lookup(seq uint64) (*submission, bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	sub, ok := cl.pending[seq]
	return sub, ok
}

// readLoop routes server frames until the connection dies, then fails
// every outstanding submission and closes Results.
func (cl *Client) readLoop() {
	defer close(cl.readerDone)
	defer func() {
		cl.closed.Store(true)
		cl.c.Close()
		cl.mu.Lock()
		stranded := make([]uint64, 0, len(cl.pending))
		for seq := range cl.pending {
			stranded = append(stranded, seq)
		}
		cl.mu.Unlock()
		for _, seq := range stranded {
			if sub, ok := cl.take(seq); ok {
				cl.results <- Result{Seq: seq, Err: ErrClosed, Accepted: sub.accepted}
			}
		}
		close(cl.results)
	}()
	// Every decoder below copies what it keeps, so one buffer, grown to
	// the largest frame, serves every frame.
	var pre [framePrelude]byte
	var buf []byte
	for {
		ftype, n, err := readPrelude(cl.c, pre[:], cl.opt.maxFrame())
		if err != nil {
			return
		}
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(cl.c, buf); err != nil {
			return
		}
		switch ftype {
		case fAccept:
			// Verified and dispatched: the server will never ask for
			// repairs now, so the retained frame can be collected even if
			// the caller reuses its buffer.
			if seq, err := decodeAccept(buf); err == nil {
				if sub, ok := cl.lookup(seq); ok {
					sub.frame = nil
					sub.accepted = true
				}
			}
		case fReject:
			seq, code, msg, derr := decodeReject(buf)
			if derr != nil {
				return
			}
			if sub, ok := cl.take(seq); ok {
				cl.results <- Result{Seq: seq, Latency: time.Since(sub.t0), Err: rejectError(code, msg)}
			}
		case fRepairReq:
			if !cl.handleRepairReq(buf) {
				return
			}
		case fResult:
			if n < 8 {
				return
			}
			serverNs := int64(binary.LittleEndian.Uint64(buf[0:8]))
			seq, dets, derr := pipexec.DecodeReports(buf[8:])
			if derr != nil {
				return
			}
			if sub, ok := cl.take(seq); ok {
				if sub.repaired {
					cl.framesRepaired.Add(1)
				}
				cl.results <- Result{
					Seq:           seq,
					Detections:    dets,
					Latency:       time.Since(sub.t0),
					ServerLatency: time.Duration(serverNs),
					Accepted:      true,
				}
			}
		case fGoodbye:
			cl.draining.Store(true)
		default:
			return
		}
	}
}

// handleRepairReq re-sends the requested chunks from the retained clean
// frame; reports false when the connection should be torn down.
func (cl *Client) handleRepairReq(buf []byte) bool {
	seq, round, idxs, err := decodeRepairReq(buf)
	if err != nil {
		return false
	}
	cl.repairReqs.Add(1)
	sub, ok := cl.lookup(seq)
	if !ok || sub.frame == nil {
		// Nothing retained (already accepted or unknown); the server's
		// repair rounds will exhaust and reject.
		return true
	}
	sub.repaired = true
	h := sub.h
	payload := sub.frame[h.PayloadOffset():]
	chunks := make([]repairChunk, 0, len(idxs))
	for _, i := range idxs {
		if i < 0 || i >= h.Chunks() {
			continue
		}
		lo, hi := h.ChunkSpan(i)
		data := cl.corruptChunk(payload[lo:hi], h, i, round+1)
		chunks = append(chunks, repairChunk{index: i, data: data})
	}
	cl.chunkResends.Add(int64(len(chunks)))
	return cl.write(fRepair, encodeRepair(seq, round, chunks)) == nil
}

// Close tears the connection down. Outstanding submissions fail with
// ErrClosed on Results, which is then closed; Close returns once the
// reader has finished.
func (cl *Client) Close() error {
	if cl.closed.CompareAndSwap(false, true) {
		cl.c.Close()
	}
	<-cl.readerDone
	return nil
}

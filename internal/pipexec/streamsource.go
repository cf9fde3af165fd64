package pipexec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"stapio/internal/cube"
)

// ErrStreamClosed resolves every outstanding fetch and rejects every new
// publication once a StreamSource has been closed.
var ErrStreamClosed = errors.New("pipexec: stream source closed")

// errCubeConsumed surfaces on the rare second Wait racing the first for the
// same delivered cube (a wait abandoned at cancellation that completed
// anyway).
var errCubeConsumed = errors.New("pipexec: streamed cube already consumed")

// StreamSource is the streaming CubeSource: a rendezvous between live cube
// producers (network connections, load generators, in-process scenario
// generators) and the pipeline's pull frontend. Producers publish each CPI
// through a CubePublisher — announcing the cube's header, then feeding
// verified chunks straight into a pooled cube.Cube slab as the bytes
// arrive, so no whole-file image is ever materialized — while the pipeline
// consumes through the ordinary Begin/Wait readahead window. Either side
// may arrive first; fetches for not-yet-published sequence numbers simply
// park until the producer commits.
//
// StreamSource has the same instrumented frontend FileSource has: stage
// clocks ("src read" records publish-to-commit transfer latency, "src
// decode" the per-chunk decode work) and IOStats repair counters (chunk re-reads are the repair-round chunk
// re-sends that landed clean, repaired reads the cubes that committed
// despite a corrupt chunk) — so a pipeline fed by a stream is eligible for
// the same joint I/O+compute autotune solve as a file-fed one. Chunks
// decode in the producer's goroutine, so the decode-pool size only
// records the tuner's choice.
//
// Error entries (aborted publications, close) are retained until Close so
// a retrying consumer re-Begins into the same terminal error instead of
// parking forever; successful entries are dropped as they are consumed.
type StreamSource struct {
	frontend

	// Dims is the cube geometry every publication must match.
	Dims cube.Dims
	// OnDeliver, when set before first use, is called once per cube handed
	// to the pipeline — the credit hook bounding an open-loop producer.
	OnDeliver func()

	mu       sync.Mutex
	entries  map[uint64]*streamEntry
	closed   bool
	closeErr error

	cubes    sync.Pool // *cube.Cube slabs
	cubeNews atomic.Int64
}

var _ CubeSource = (*StreamSource)(nil)

// streamEntry is one sequence number's rendezvous slot. done closes when
// the entry resolves (cube delivered or error); resolved guards against a
// second resolution (publisher abort racing Close).
type streamEntry struct {
	done     chan struct{}
	cb       *cube.Cube
	err      error
	pub      bool
	resolved bool
}

// NewStreamSource builds a streaming source for the given cube geometry.
func NewStreamSource(dims cube.Dims) *StreamSource {
	return &StreamSource{Dims: dims, entries: make(map[uint64]*streamEntry)}
}

// resolveLocked delivers an entry. Caller holds s.mu.
func (s *StreamSource) resolveLocked(e *streamEntry, cb *cube.Cube, err error) {
	if e.resolved {
		return
	}
	e.cb, e.err, e.resolved = cb, err, true
	close(e.done)
}

// entryLocked returns seq's rendezvous slot, creating it if needed. Caller
// holds s.mu and has checked closed.
func (s *StreamSource) entryLocked(seq uint64) *streamEntry {
	e, ok := s.entries[seq]
	if !ok {
		e = &streamEntry{done: make(chan struct{})}
		s.entries[seq] = e
	}
	return e
}

// Begin implements CubeSource: the returned handle resolves when the
// producer commits (or aborts) sequence seq. A retry re-joins the same
// rendezvous (an aborted publication stays failed), so attempt is ignored.
// Begin after Close resolves immediately with the close error.
func (s *StreamSource) Begin(seq uint64, attempt int) PendingCube {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[seq]; ok {
		return &streamPending{s: s, seq: seq, e: e}
	}
	if s.closed {
		e := &streamEntry{done: make(chan struct{}), err: s.closeErr, resolved: true}
		close(e.done)
		return &streamPending{s: s, seq: seq, e: e}
	}
	return &streamPending{s: s, seq: seq, e: s.entryLocked(seq)}
}

// streamPending is an in-flight streamed fetch.
type streamPending struct {
	s   *StreamSource
	seq uint64
	e   *streamEntry
}

// Wait implements PendingCube.
func (p *streamPending) Wait() (*cube.Cube, error) {
	<-p.e.done
	if p.e.err != nil {
		return nil, p.e.err
	}
	if !p.s.consume(p.seq, p.e) {
		return nil, errCubeConsumed
	}
	return p.e.cb, nil
}

// landed closes once the rendezvous has resolved.
func (p *streamPending) landed() <-chan struct{} { return p.e.done }

// Ready implements PendingCube. A delivered error counts as ready — the
// window's occupancy accounting wants "will Wait return without blocking",
// not "is there a cube".
func (p *streamPending) Ready() bool {
	select {
	case <-p.e.done:
		return true
	default:
		return false
	}
}

// consume claims a delivered cube exactly once, dropping its map entry and
// firing the producer-credit hook. It reports false if another waiter (or
// Close) claimed it first.
func (s *StreamSource) consume(seq uint64, e *streamEntry) bool {
	s.mu.Lock()
	won := s.entries[seq] == e
	if won {
		delete(s.entries, seq)
	}
	s.mu.Unlock()
	if won && s.OnDeliver != nil {
		s.OnDeliver()
	}
	return won
}

// getCube leases a decode slab from the pool.
func (s *StreamSource) getCube() *cube.Cube {
	if v := s.cubes.Get(); v != nil {
		return v.(*cube.Cube)
	}
	s.cubeNews.Add(1)
	return cube.New(s.Dims)
}

// Recycle implements CubeSource: delivered cubes return to the slab pool
// once the pipeline has consumed them. Foreign geometry is refused.
func (s *StreamSource) Recycle(cb *cube.Cube) {
	if cb == nil || cb.Dims != s.Dims {
		return
	}
	s.cubes.Put(cb)
}

// Refetchable implements CubeSource: a streamed cube's bytes are gone
// once consumed, so a budgeted stream keeps its back-pressure instead.
func (s *StreamSource) Refetchable() bool { return false }

// PoolNews reports how many decode slabs the source has ever allocated.
// With recycling working it stays bounded by the readahead window plus the
// open publications, not the CPI count.
func (s *StreamSource) PoolNews() int64 { return s.cubeNews.Load() }

// Close fails every unresolved fetch with ErrStreamClosed, recycles
// delivered-but-unconsumed cubes, and rejects all further publications.
// Safe to call more than once.
func (s *StreamSource) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.closeErr = ErrStreamClosed
	for seq, e := range s.entries {
		if e.resolved {
			if e.err == nil && e.cb != nil {
				s.cubes.Put(e.cb)
			}
		} else {
			s.resolveLocked(e, nil, s.closeErr)
		}
		delete(s.entries, seq)
	}
}

// Publish registers a producer for sequence seq and returns its publisher
// handle. It fails once the source is closed or when seq already has a
// publisher (a duplicate in-flight CPI). The handle is not safe for
// concurrent use — one producer goroutine owns it.
func (s *StreamSource) Publish(seq uint64) (*CubePublisher, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, s.closeErr
	}
	e := s.entryLocked(seq)
	if e.pub || e.resolved {
		return nil, fmt.Errorf("pipexec: duplicate publish for CPI %d", seq)
	}
	e.pub = true
	return &CubePublisher{s: s, seq: seq, e: e, t0: time.Now()}, nil
}

// CubePublisher feeds one CPI cube into a StreamSource. The zero-copy path
// is Announce + Chunk-per-chunk + Commit: each chunk is CRC-verified and
// decoded straight from the caller's transport buffer into the pooled slab,
// so the full file image never exists. CommitCube covers in-process
// generators that already hold a decoded cube. Exactly one of Commit,
// CommitCube, or Abort terminates the publication.
type CubePublisher struct {
	s   *StreamSource
	seq uint64
	e   *streamEntry
	t0  time.Time

	h        cube.Header
	cb       *cube.Cube
	got      []bool
	bad      []bool
	miss     int
	repaired bool
	decNS    int64
	done     bool
}

// Seq returns the sequence number this publisher feeds.
func (p *CubePublisher) Seq() uint64 { return p.seq }

// Announce declares the cube's header (geometry plus chunk table) and
// leases the decode slab. It must precede Chunk.
func (p *CubePublisher) Announce(h cube.Header) error {
	if p.done {
		return ErrStreamClosed
	}
	if p.cb != nil {
		return errors.New("pipexec: cube already announced")
	}
	if h.Dims != p.s.Dims {
		return fmt.Errorf("pipexec: published cube is %v, source expects %v", h.Dims, p.s.Dims)
	}
	p.h = h
	p.cb = p.s.getCube()
	p.got = make([]bool, h.Chunks())
	p.bad = make([]bool, h.Chunks())
	p.miss = h.Chunks()
	return nil
}

// Chunk verifies payload chunk i against the announced chunk table and, on
// a clean CRC, decodes it into the slab. data is only read during the call
// — the caller may reuse its transport buffer immediately. A CRC mismatch
// leaves the chunk missing (reported by Missing) so the producer can
// re-send just that chunk; a re-send that lands clean counts as a chunk
// re-read repair.
func (p *CubePublisher) Chunk(i int, data []byte) error {
	if p.cb == nil || p.done {
		return errors.New("pipexec: chunk before announce")
	}
	if err := cube.VerifyChunkData(&p.h, i, data); err != nil {
		if i >= 0 && i < len(p.bad) && !p.got[i] {
			p.bad[i] = true
		}
		return err
	}
	d0 := time.Now()
	cube.DecodeChunkData(p.cb, &p.h, i, data)
	p.decNS += int64(time.Since(d0))
	if p.bad[i] {
		p.bad[i] = false
		p.s.chunkRereads.Add(1)
		p.s.chunkRereadBytes.Add(int64(len(data)))
		p.repaired = true
	}
	if !p.got[i] {
		p.got[i] = true
		p.miss--
	}
	return nil
}

// Missing returns the chunk indices not yet received clean, in order.
func (p *CubePublisher) Missing() []int {
	var m []int
	for i, ok := range p.got {
		if !ok {
			m = append(m, i)
		}
	}
	return m
}

// Repaired reports whether any chunk needed a clean re-send after a CRC
// mismatch.
func (p *CubePublisher) Repaired() bool { return p.repaired }

// Commit delivers the cube to the pipeline. Every chunk must have landed
// clean. The transfer latency (publish to commit, decode time excluded)
// lands on the "src read" stage clock and the accumulated decode time on
// "src decode" — the measurements the joint autotune solve consumes.
func (p *CubePublisher) Commit() error {
	if p.done {
		return ErrStreamClosed
	}
	if p.cb == nil {
		return errors.New("pipexec: commit before announce")
	}
	if p.miss > 0 {
		return fmt.Errorf("pipexec: CPI %d: %w: %d of %d chunks missing",
			p.seq, cube.ErrTruncated, p.miss, len(p.got))
	}
	return p.deliver(p.cb)
}

// deliver resolves the entry with a finished cube and stamps the clocks.
func (p *CubePublisher) deliver(cb *cube.Cube) error {
	p.done = true
	p.cb = nil
	clks := p.s.clocks()
	if clks.read != nil {
		clks.read(max(time.Since(p.t0)-time.Duration(p.decNS), 0))
	}
	if clks.dec != nil {
		clks.dec(time.Duration(p.decNS))
	}
	if p.repaired {
		p.s.repairedReads.Add(1)
	}
	s := p.s
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.Recycle(cb)
		return s.closeErr
	}
	s.resolveLocked(p.e, cb, nil)
	s.mu.Unlock()
	return nil
}

// CommitCube hands an already-decoded cube straight through — the
// in-process generator path. The cube becomes the source's (it joins the
// slab pool after the pipeline recycles it).
func (p *CubePublisher) CommitCube(cb *cube.Cube) error {
	if p.done {
		return ErrStreamClosed
	}
	if cb == nil || cb.Dims != p.s.Dims {
		return fmt.Errorf("pipexec: published cube geometry mismatch")
	}
	if p.cb != nil { // announced slab unused on this path
		p.s.Recycle(p.cb)
	}
	return p.deliver(cb)
}

// Abort terminates the publication with an error: the pipeline's fetch for
// this sequence number resolves to err (dropped under a skip policy) and
// the leased slab returns to the pool. Abort after Commit is a no-op.
func (p *CubePublisher) Abort(err error) {
	if p.done {
		return
	}
	p.done = true
	if err == nil {
		err = errors.New("pipexec: publication aborted")
	}
	if p.cb != nil {
		p.s.Recycle(p.cb)
		p.cb = nil
	}
	s := p.s
	s.mu.Lock()
	s.resolveLocked(p.e, nil, err)
	s.mu.Unlock()
}

// GeneratorSource pumps an in-process cube generator through a
// StreamSource: the streaming-ingest equivalent of MemSource, with a
// bounded window of generated-but-unconsumed cubes. It exists so the
// streaming frontend (and its autotune eligibility) can be exercised
// without a network in the loop.
type GeneratorSource struct {
	*StreamSource
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// NewGeneratorSource starts a producer goroutine publishing gen's cubes in
// sequence order, at most window cubes ahead of the pipeline's consumption.
func NewGeneratorSource(dims cube.Dims, window int, gen func(seq uint64) (*cube.Cube, error)) *GeneratorSource {
	if window < 1 {
		window = 1
	}
	g := &GeneratorSource{StreamSource: NewStreamSource(dims), stop: make(chan struct{})}
	credits := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		credits <- struct{}{}
	}
	g.OnDeliver = func() {
		select {
		case credits <- struct{}{}:
		default:
		}
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		for seq := uint64(0); ; seq++ {
			select {
			case <-credits:
			case <-g.stop:
				return
			}
			pub, err := g.Publish(seq)
			if err != nil {
				return // source closed
			}
			cb, err := gen(seq)
			if err != nil {
				pub.Abort(err)
				continue
			}
			if pub.CommitCube(cb) != nil {
				return
			}
		}
	}()
	return g
}

// Close stops the producer and closes the underlying stream.
func (g *GeneratorSource) Close() {
	g.once.Do(func() {
		close(g.stop)
		g.StreamSource.Close()
		g.wg.Wait()
	})
}

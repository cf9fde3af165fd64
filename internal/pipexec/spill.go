package pipexec

import (
	"fmt"
	"sync"

	"stapio/internal/cube"
	"stapio/internal/pfs"
)

// Spill tier: when the budget cannot admit a new reservation, cold landed
// cubes — fetched by the readahead window but not yet consumed by the
// Doppler stage — are evicted to the striped store in the v3 chunked
// format and re-read (with the same per-chunk CRC verify + partial-repair
// machinery as dataset ingest) when the pipeline finally asks for them.
// Eviction order is newest-first: the coldest cube is the one the FIFO
// window will consume last, so spilling from the tail frees bytes without
// stalling the head.
//
// The spiller hooks the budget's pressure callback, so a blocked acquire
// triggers eviction exactly when bytes are short, and the freed charge is
// handed straight to the waiter via the budget's grant pass.

// SpillConfig enables the spill tier of a budgeted run.
type SpillConfig struct {
	// FS is the striped store spill files are written to and re-read from
	// (required). It may be the dataset's own store — spill file names
	// never collide with staging files.
	FS *pfs.RealFS
	// ChunkSize is the v3 chunk granularity of spill files (values < 8 or
	// not multiples of 8 mean cube.DefaultChunkSize).
	ChunkSize int
	// Prefix names the spill files: "<prefix>_<seq>.dat" ("spill" when
	// empty).
	Prefix string
	// Retries bounds per-chunk re-read rounds when a reload hits a corrupt
	// chunk (values < 1 mean 2).
	Retries int
}

func (c *SpillConfig) chunkSize() int {
	if c.ChunkSize < 8 || c.ChunkSize%8 != 0 {
		return cube.DefaultChunkSize
	}
	return c.ChunkSize
}

func (c *SpillConfig) prefix() string {
	if c.Prefix == "" {
		return "spill"
	}
	return c.Prefix
}

func (c *SpillConfig) retries() int {
	if c.Retries < 1 {
		return 2
	}
	return c.Retries
}

// spiller tracks landed-but-unconsumed cubes and evicts them under budget
// pressure.
type spiller struct {
	r         *runner
	fs        *pfs.RealFS
	chunk     int
	prefix    string
	retries   int
	fileBytes int64

	mu     sync.Mutex
	landed map[uint64]*spillSlot

	bufs sync.Pool // *readBuf, spill-file sized
}

func newSpiller(r *runner, cfg *SpillConfig) (*spiller, error) {
	if cfg.FS == nil {
		return nil, fmt.Errorf("pipexec: SpillConfig.FS is required")
	}
	sp := &spiller{
		r:       r,
		fs:      cfg.FS,
		chunk:   cfg.chunkSize(),
		prefix:  cfg.prefix(),
		retries: cfg.retries(),
		landed:  make(map[uint64]*spillSlot),
	}
	sp.fileBytes = cube.FileBytesChunked(r.p.Dims, sp.chunk)
	return sp, nil
}

func (sp *spiller) fileName(seq uint64) string {
	return fmt.Sprintf("%s_%d.dat", sp.prefix, seq)
}

func (sp *spiller) getBuf() *readBuf {
	if v := sp.bufs.Get(); v != nil {
		return v.(*readBuf)
	}
	return &readBuf{b: make([]byte, sp.fileBytes)}
}

// track wraps an in-flight fetch: once the inner read lands, the slot
// registers itself as spillable and kicks the budget so a stalled waiter
// re-examines pressure. The read stage waits on the slot instead of the
// inner pending.
func (sp *spiller) track(seq uint64, inner PendingCube) *spillSlot {
	s := &spillSlot{sp: sp, seq: seq, done: make(chan struct{})}
	go func() {
		cb, err := inner.Wait()
		s.mu.Lock()
		s.cb, s.err = cb, err
		s.mu.Unlock()
		if err == nil {
			sp.mu.Lock()
			sp.landed[seq] = s
			sp.mu.Unlock()
		}
		close(s.done)
		sp.r.budget.Kick()
	}()
	return s
}

// free is the budget's pressure handler: evict landed cubes, newest first,
// until need bytes are freed or nothing is left to evict. Returns the
// bytes actually freed.
func (sp *spiller) free(need int64) int64 {
	var freed int64
	for freed < need {
		s := sp.takeColdest()
		if s == nil {
			return freed
		}
		freed += sp.spill(s)
	}
	return freed
}

// takeColdest removes and returns the landed slot with the highest
// sequence number — the one the FIFO window consumes last.
func (sp *spiller) takeColdest() *spillSlot {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	var pick *spillSlot
	for _, s := range sp.landed {
		if pick == nil || s.seq > pick.seq {
			pick = s
		}
	}
	if pick != nil {
		delete(sp.landed, pick.seq)
	}
	return pick
}

// spill encodes the slot's cube to the striped store, recycles the slab,
// and transfers the cube's budget charge back to the budget. Returns the
// bytes freed (0 when the write failed — the cube simply stays resident).
func (sp *spiller) spill(s *spillSlot) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cb == nil || s.err != nil {
		return 0
	}
	rb := sp.getBuf()
	cube.EncodeChunked(s.cb, s.seq, sp.chunk, rb.b)
	if err := sp.fs.WriteFile(sp.fileName(s.seq), rb.b); err != nil {
		sp.bufs.Put(rb)
		return 0
	}
	sp.bufs.Put(rb)
	sp.r.src.Recycle(s.cb)
	s.cb = nil
	s.spilled = true
	sp.r.stats.spills.Add(1)
	sp.r.stats.spillBytes.Add(sp.fileBytes)
	if !sp.r.stealCubeCharge(s.seq) {
		return 0 // charge already gone (dropped CPI): no budget bytes freed
	}
	sp.r.releaseMem(sp.r.cubeB)
	return sp.r.cubeB
}

// spillSlot is a PendingCube that may have been evicted between landing
// and consumption; Wait transparently reloads evicted cubes.
type spillSlot struct {
	sp   *spiller
	seq  uint64
	done chan struct{}

	mu      sync.Mutex
	cb      *cube.Cube
	err     error
	spilled bool
}

// Ready implements PendingCube.
func (s *spillSlot) Ready() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// Wait implements PendingCube. A slot that was spilled re-acquires the
// cube's budget charge (at the read priority of its own sequence number,
// so older CPIs still win) and reloads it from the striped store with
// chunk-level verify and repair.
func (s *spillSlot) Wait() (*cube.Cube, error) {
	<-s.done
	sp := s.sp
	// Deregister: once the pipeline is waiting on this CPI it is the
	// window head, never a cold-eviction candidate. A retry slot for the
	// same seq may have replaced us in the map — only remove ourselves.
	sp.mu.Lock()
	if sp.landed[s.seq] == s {
		delete(sp.landed, s.seq)
	}
	sp.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return nil, s.err
	}
	if !s.spilled {
		cb := s.cb
		s.cb = nil
		return cb, nil
	}
	if s.cb != nil {
		return s.cb, nil // reloaded by an earlier abandoned wait
	}
	r := sp.r
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	// The charge was handed back at eviction; a reload takes it out
	// again. On a reload error the charge is kept: the pipeline's retry
	// policy re-reads the CPI from its staging file, and that fresh cube
	// consumes this same charge.
	if err := r.acquireMem(r.cubeB, readPri(s.seq)); err != nil {
		return nil, err
	}
	r.setCubeCharged(s.seq)
	cb, err := sp.reload(s.seq)
	if err != nil {
		return nil, err
	}
	s.cb = cb
	r.stats.reloads.Add(1)
	r.stats.reloadBytes.Add(sp.fileBytes)
	return cb, nil
}

// reload reads a spilled cube back, verifying per-chunk CRCs and repairing
// corrupt chunks with individual re-reads, exactly like dataset ingest.
func (sp *spiller) reload(seq uint64) (*cube.Cube, error) {
	name := sp.fileName(seq)
	tag := int(seq)<<8 | 0x7f // spill reload tag space, distinct from ingest attempts
	rb := sp.getBuf()
	defer sp.bufs.Put(rb)
	if err := sp.fs.ReadAtAttempt(name, 0, rb.b, tag); err != nil {
		return nil, fmt.Errorf("pipexec: reloading spilled CPI %d: %w", seq, err)
	}
	h, err := cube.ParseHeader(rb.b)
	if err != nil {
		return nil, fmt.Errorf("pipexec: reloading spilled CPI %d: %w", seq, err)
	}
	if h.Dims != sp.r.p.Dims {
		return nil, fmt.Errorf("pipexec: spill file %s holds %v, expected %v", name, h.Dims, sp.r.p.Dims)
	}
	payload := rb.b[h.PayloadOffset():]
	cb := cube.New(sp.r.p.Dims)
	var bad []int
	bad, err = cube.VerifyChunks(&h, payload, 0, h.Chunks(), bad)
	if err != nil {
		return nil, fmt.Errorf("pipexec: reloading spilled CPI %d: %w", seq, err)
	}
	// VerifyChunks returns the bad set sorted; decode the clean chunks now
	// and repair the bad ones individually below.
	next := 0
	for i := 0; i < h.Chunks(); i++ {
		if next < len(bad) && i == bad[next] {
			next++
			continue
		}
		cube.DecodeChunk(cb, &h, payload, i)
	}
	payOff := h.PayloadOffset()
	for round := 0; round < sp.retries && len(bad) > 0; round++ {
		remaining := bad[:0]
		for _, i := range bad {
			lo, hi := h.ChunkSpan(i)
			if sp.fs.ReadAtAttempt(name, payOff+lo, payload[lo:hi], tag+1+round) != nil ||
				cube.VerifyChunk(&h, payload, i) != nil {
				remaining = append(remaining, i)
				continue
			}
			cube.DecodeChunk(cb, &h, payload, i)
		}
		bad = remaining
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("pipexec: reloading spilled CPI %d: %w: %d of %d chunks unrecoverable (first: chunk %d)",
			seq, cube.ErrCorrupt, len(bad), h.Chunks(), bad[0])
	}
	return cb, nil
}

var _ PendingCube = (*spillSlot)(nil)

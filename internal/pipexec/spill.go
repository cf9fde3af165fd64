package pipexec

import (
	"fmt"
	"sync"

	"stapio/internal/cube"
	"stapio/internal/pfs"
)

// Spill tier: when the budget cannot admit a new reservation, cold landed
// items — cubes, or band slabs, fetched by the readahead window but not
// yet consumed by the Doppler stage — are evicted to the striped store in the v3 chunked
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
	// Prefix names the spill files: "<prefix>_<item>.dat" ("spill" when
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

// spiller tracks landed-but-unconsumed items and evicts them under budget
// pressure.
type spiller struct {
	r       *runner
	fs      *pfs.RealFS
	chunk   int
	prefix  string
	retries int

	mu     sync.Mutex
	landed map[uint64]*spillSlot

	bufs sync.Pool // *readBuf, sized for a full-band item's spill file
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
	return sp, nil
}

func (sp *spiller) fileName(item uint64) string {
	return fmt.Sprintf("%s_%d.dat", sp.prefix, item)
}

// dims returns the geometry of item's slab.
func (sp *spiller) dims(item uint64) cube.Dims {
	d := sp.r.p.Dims
	d.Ranges = sp.r.bands.width(item)
	return d
}

// getBuf leases a buffer holding item's spill file; the returned slice is
// exactly the file's size.
func (sp *spiller) getBuf(item uint64) (*readBuf, []byte) {
	n := cube.FileBytesChunked(sp.dims(item), sp.chunk)
	if v := sp.bufs.Get(); v != nil {
		rb := v.(*readBuf)
		return rb, rb.b[:n]
	}
	full := sp.dims(0)
	rb := &readBuf{b: make([]byte, cube.FileBytesChunked(full, sp.chunk))}
	return rb, rb.b[:n]
}

// track wraps an in-flight fetch: once the inner read lands, the slot
// registers itself as spillable and kicks the budget so a stalled waiter
// re-examines pressure. The read stage waits on the slot instead of the
// inner pending.
func (sp *spiller) track(item uint64, inner PendingCube) *spillSlot {
	s := &spillSlot{sp: sp, item: item, done: make(chan struct{})}
	go func() {
		cb, err := inner.Wait()
		s.mu.Lock()
		s.cb, s.err = cb, err
		s.mu.Unlock()
		if err == nil {
			sp.mu.Lock()
			sp.landed[item] = s
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
// item index — the one the FIFO window consumes last.
func (sp *spiller) takeColdest() *spillSlot {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	var pick *spillSlot
	for _, s := range sp.landed {
		if pick == nil || s.item > pick.item {
			pick = s
		}
	}
	if pick != nil {
		delete(sp.landed, pick.item)
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
	rb, buf := sp.getBuf(s.item)
	cube.EncodeChunked(s.cb, s.item, sp.chunk, buf)
	if err := sp.fs.WriteFile(sp.fileName(s.item), buf); err != nil {
		sp.bufs.Put(rb)
		return 0
	}
	sp.bufs.Put(rb)
	sp.r.src.Recycle(s.cb)
	s.cb = nil
	s.spilled = true
	sp.r.stats.spills.Add(1)
	sp.r.stats.spillBytes.Add(int64(len(buf)))
	if !sp.r.stealCubeCharge(s.item) {
		return 0 // charge already gone (dropped CPI): no budget bytes freed
	}
	slabB, _ := sp.r.itemBytes(sp.r.bands.width(s.item))
	sp.r.releaseMem(slabB)
	return slabB
}

// spillSlot is a PendingCube that may have been evicted between landing
// and consumption; Wait transparently reloads evicted cubes.
type spillSlot struct {
	sp   *spiller
	item uint64
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
// slab's budget charge (at the read priority of its own item, so older
// items still win) and reloads it from the striped store with
// chunk-level verify and repair.
func (s *spillSlot) Wait() (*cube.Cube, error) {
	<-s.done
	sp := s.sp
	// Deregister: once the pipeline is waiting on this item it is the
	// window head, never a cold-eviction candidate. A retry slot for the
	// same item may have replaced us in the map — only remove ourselves.
	sp.mu.Lock()
	if sp.landed[s.item] == s {
		delete(sp.landed, s.item)
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
	slabB, _ := r.itemBytes(r.bands.width(s.item))
	if err := r.acquireMem(slabB, readPri(s.item)); err != nil {
		return nil, err
	}
	r.setCubeCharged(s.item)
	cb, n, err := sp.reload(s.item)
	if err != nil {
		return nil, err
	}
	s.cb = cb
	r.stats.reloads.Add(1)
	r.stats.reloadBytes.Add(n)
	return cb, nil
}

// reload reads a spilled item back, verifying per-chunk CRCs and
// repairing corrupt chunks with individual re-reads, exactly like dataset
// ingest. It returns the slab and the spill file's size.
func (sp *spiller) reload(item uint64) (*cube.Cube, int64, error) {
	name := sp.fileName(item)
	seq := sp.r.bands.seq(item)
	tag := int(item)<<8 | 0x7f // spill reload tag space, distinct from ingest attempts
	rb, buf := sp.getBuf(item)
	defer sp.bufs.Put(rb)
	if err := sp.fs.ReadAtAttempt(name, 0, buf, tag); err != nil {
		return nil, 0, fmt.Errorf("pipexec: reloading spilled CPI %d: %w", seq, err)
	}
	h, err := cube.ParseHeader(buf)
	if err != nil {
		return nil, 0, fmt.Errorf("pipexec: reloading spilled CPI %d: %w", seq, err)
	}
	if want := sp.dims(item); h.Dims != want {
		return nil, 0, fmt.Errorf("pipexec: spill file %s holds %v, expected %v", name, h.Dims, want)
	}
	payload := buf[h.PayloadOffset():]
	cb := cube.New(h.Dims)
	var bad []int
	bad, err = cube.VerifyChunks(&h, payload, 0, h.Chunks(), bad)
	if err != nil {
		return nil, 0, fmt.Errorf("pipexec: reloading spilled CPI %d: %w", seq, err)
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
		return nil, 0, fmt.Errorf("pipexec: reloading spilled CPI %d: %w: %d of %d chunks unrecoverable (first: chunk %d)",
			seq, cube.ErrCorrupt, len(bad), h.Chunks(), bad[0])
	}
	return cb, int64(len(buf)), nil
}

var _ PendingCube = (*spillSlot)(nil)

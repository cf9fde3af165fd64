// Package pipexec executes the STAP pipeline for real: each task is a
// stage with a pool of worker goroutines partitioning its workload (range
// gates for Doppler filtering, Doppler bins for weight computation and
// beamforming, (beam, bin) profiles for pulse compression and CFAR),
// stages are connected by channels, and the temporal dependency is a
// weight feedback channel — beamforming of CPI k uses weights trained on
// CPI k-1, exactly as in the paper's system.
//
// Input arrives through a CubeSource, either the striped parallel file
// system backend (pfs.RealFS, with iread/iowait-style prefetch) or an
// in-memory generator. Both I/O designs are supported and share one read
// driver that keeps a readahead window of D fetches in flight: embedded,
// the Doppler stage drives it itself and a run holds D+1 input cubes;
// separate, a read stage drives it and hands cubes over a channel, D+3.
package pipexec

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"stapio/internal/cube"
	"stapio/internal/pfs"
	"stapio/internal/radar"
)

// CubeSource is the one contract the pipeline consumes cubes through:
// an asynchronous begin/wait pull protocol mirroring the NX
// iread()/iowait() pair, cube recycling so a source pools its decoded
// slabs and steady-state ingest allocates nothing, and the hooks of an
// instrumented I/O frontend. Sources without a frontend embed NoFrontend
// and implement Begin, Recycle and Refetchable only.
type CubeSource interface {
	// Begin starts fetch number attempt (0 = first try) of the cube for
	// CPI seq and returns a handle. A source with a fault plan folds the
	// attempt into its draw, so a retry re-draws instead of replaying the
	// same injected fault forever.
	Begin(seq uint64, attempt int) PendingCube
	// Recycle returns a cube obtained from this source once the pipeline
	// is done with it. Must tolerate nil and foreign-geometry cubes.
	Recycle(cb *cube.Cube)
	// Refetchable reports whether Begin(seq, 0) may be called again for a
	// cube already delivered and recycled, replaying the same fetch; a
	// landed handle's Wait must then return the same result each call. A
	// budgeted run evicts landed readahead items of such a source under
	// memory pressure and re-fetches them, instead of holding them.
	Refetchable() bool

	// Frontend reports whether the source has an instrumented I/O
	// frontend: it times each fetch and each decode on the clocks
	// SetClocks installs, and takes its decode-pool size live from
	// SetDecodeWorkers. Only such a
	// source gets frontend stage clocks and joins the joint I/O + compute
	// autotune solve.
	Frontend() bool
	// IOStats returns the source's cumulative ingest counters.
	IOStats() IOStats
	// SetDecodeWorkers resizes the per-cube decode pool; it must be safe
	// while fetches are in flight (the auto-tuner resizes it live).
	SetDecodeWorkers(n int)
	// SetClocks installs the frontend clocks: read receives each fetch's
	// serial latency (issue to data landed — concurrent fetches each
	// record their full latency, the tuner's latency-hiding input),
	// decode each cube's verify+decode wall time.
	SetClocks(read, decode func(time.Duration))
}

// PendingCube is an in-flight cube fetch.
type PendingCube interface {
	// Wait blocks until the cube is available.
	Wait() (*cube.Cube, error)
	// Ready reports, without blocking, whether Wait would return at once
	// (a delivered error counts). The read driver uses it to count
	// readahead-window occupancy and pipeline stalls on the source.
	Ready() bool
}

// IOStats are a source's ingest counters. The pipeline reports them per
// run (RunStats) by differencing snapshots, so a source reused across runs
// keeps cumulative counts.
type IOStats struct {
	// ChunkRereads is the number of chunk-level re-read operations issued
	// against corrupt chunks.
	ChunkRereads int64
	// ChunkRereadBytes is the total bytes those re-reads fetched — the
	// partial-re-read saving shows as this staying far below file size
	// times RepairedReads.
	ChunkRereadBytes int64
	// RepairedReads is the number of cube reads that hit corrupt chunks
	// but completed clean via chunk re-reads, avoiding a whole-file retry.
	RepairedReads int64
}

// NoFrontend is the CubeSource base of a source without an I/O frontend:
// no counters, no decode pool, no clocks.
type NoFrontend struct{}

// Frontend implements CubeSource.
func (NoFrontend) Frontend() bool { return false }

// IOStats implements CubeSource.
func (NoFrontend) IOStats() IOStats { return IOStats{} }

// SetDecodeWorkers implements CubeSource.
func (NoFrontend) SetDecodeWorkers(int) {}

// SetClocks implements CubeSource.
func (NoFrontend) SetClocks(read, decode func(time.Duration)) {}

// frontend is the instrumented I/O frontend FileSource and StreamSource
// share: ingest counters, the live decode-pool size, and the stage clocks.
type frontend struct {
	// decodeW, when > 0, is the decode pool size SetDecodeWorkers stored;
	// an atomic, so the auto-tuner can resize while fetches are in flight.
	// Stream sources decode in their producers and only report it.
	decodeW atomic.Int32
	// clks holds the frontend clocks behind an atomic pointer: fetch
	// goroutines may outlive the run that armed them (waits abandoned at
	// cancellation), so they must never race a clock swap from the next run.
	clks atomic.Pointer[srcClocks]

	chunkRereads     atomic.Int64
	chunkRereadBytes atomic.Int64
	repairedReads    atomic.Int64
}

// srcClocks bundles the frontend clocks (either may be nil).
type srcClocks struct {
	read, dec func(time.Duration)
}

// Frontend implements CubeSource.
func (f *frontend) Frontend() bool { return true }

// IOStats implements CubeSource.
func (f *frontend) IOStats() IOStats {
	return IOStats{
		ChunkRereads:     f.chunkRereads.Load(),
		ChunkRereadBytes: f.chunkRereadBytes.Load(),
		RepairedReads:    f.repairedReads.Load(),
	}
}

// SetDecodeWorkers implements CubeSource: in-flight decodes load the count
// once at their start.
func (f *frontend) SetDecodeWorkers(n int) {
	if n < 1 {
		n = 1
	}
	f.decodeW.Store(int32(n))
}

// SetClocks implements CubeSource.
func (f *frontend) SetClocks(read, decode func(time.Duration)) {
	f.clks.Store(&srcClocks{read: read, dec: decode})
}

// clocks returns the installed frontend clocks (zero when none).
func (f *frontend) clocks() srcClocks {
	if c := f.clks.Load(); c != nil {
		return *c
	}
	return srcClocks{}
}

// FileSource reads CPI cubes from the round-robin staging files of a
// striped file store, the paper's configuration. Fetch handles decode
// eagerly: as soon as the striped read lands, a goroutine verifies and
// decodes the payload — sharded across DecodeWorkers goroutines — so with
// readahead depth > 1 the decode work of several CPIs overlaps instead of
// serialising on the pipeline's read driver.
//
// Each chunk's CRC is verified; a corrupt chunk is re-read individually
// (ChunkRetries attempts, each re-drawing the fault plan) rather than
// failing the whole multi-megabyte read.
//
// Read buffers and decoded cubes are pooled: each staging-file-sized byte
// buffer is returned to the pool when its fetch resolves (success,
// corruption, or drop alike), and the pipeline hands decoded cubes back
// through Recycle once Doppler filtering has consumed them, so
// steady-state reads allocate nothing. Build it with NewFileSource.
type FileSource struct {
	frontend

	FS    *pfs.RealFS
	Dims  cube.Dims
	Files int

	// DecodeWorkers shards each cube's verify+decode across this many
	// goroutines (values < 1 mean 1, the pre-readahead serial behaviour).
	DecodeWorkers int
	// ChunkRetries bounds per-chunk re-read rounds before the whole read
	// reports ErrCorrupt (values < 1 mean 2).
	ChunkRetries int

	// fileBytes is the probed staging-file size.
	fileBytes int64
	// names holds the staging-file names, built once: name i is
	// radar.FileName(i).
	names []string

	bufs     sync.Pool // *readBuf
	cubes    sync.Pool // *cube.Cube
	bufNews  atomic.Int64
	cubeNews atomic.Int64

	// bandHdrs caches each staging file's parsed header + chunk table for
	// the banded read path (ReadBand); bandMu guards it. bandScratch pools
	// the band reads' chunk masks and run buffers.
	bandMu      sync.Mutex
	bandHdrs    map[string]*cube.Header
	bandScratch sync.Pool // *bandScratch
}

// readBuf wraps a pooled staging-file buffer; pooling the wrapper rather
// than the slice keeps Put from boxing a fresh interface value per read.
type readBuf struct{ b []byte }

// getBuf leases a staging-file-sized read buffer.
func (s *FileSource) getBuf() *readBuf {
	if v := s.bufs.Get(); v != nil {
		return v.(*readBuf)
	}
	s.bufNews.Add(1)
	return &readBuf{b: make([]byte, s.fileBytes)}
}

func (s *FileSource) putBuf(rb *readBuf) { s.bufs.Put(rb) }

func (s *FileSource) getCube() *cube.Cube {
	if v := s.cubes.Get(); v != nil {
		return v.(*cube.Cube)
	}
	s.cubeNews.Add(1)
	return cube.New(s.Dims)
}

// Recycle implements CubeSource: the pipeline returns a decoded cube once
// Doppler filtering has consumed it. Cubes of foreign geometry are refused
// (decoding fully overwrites a recycled cube's samples, so matching dims
// are the only requirement).
func (s *FileSource) Recycle(cb *cube.Cube) {
	if cb == nil || cb.Dims != s.Dims {
		return
	}
	s.cubes.Put(cb)
}

// Refetchable implements CubeSource: staging files stay on the store.
func (s *FileSource) Refetchable() bool { return true }

// PoolNews reports how many read buffers and decoded cubes the source has
// ever allocated. With recycling working both stay bounded by the pipeline
// depth plus readahead, not the CPI count — the pool regression test pins
// this.
func (s *FileSource) PoolNews() (bufs, cubes int64) {
	return s.bufNews.Load(), s.cubeNews.Load()
}

// decodeWorkers is the live decode pool size: the last SetDecodeWorkers,
// else DecodeWorkers (at least 1).
func (s *FileSource) decodeWorkers() int {
	if n := s.decodeW.Load(); n > 0 {
		return int(n)
	}
	return max(s.DecodeWorkers, 1)
}

func (s *FileSource) chunkRetries() int {
	if s.ChunkRetries < 1 {
		return 2
	}
	return s.ChunkRetries
}

// NewFileSource validates the geometry against the first staging file and
// learns the dataset's chunk size from its header, sizing the read-buffer
// pool accordingly. The probe bypasses fault
// injection — startup metadata reads are not part of the modelled data
// path.
func NewFileSource(fs *pfs.RealFS, dims cube.Dims, files int) (*FileSource, error) {
	if files < 1 {
		return nil, fmt.Errorf("pipexec: file count %d < 1", files)
	}
	name := radar.FileName(0)
	size, err := fs.FileSize(name)
	if err != nil {
		return nil, fmt.Errorf("pipexec: probing dataset: %w", err)
	}
	hbuf := make([]byte, cube.HeaderSize+8)
	if size < int64(len(hbuf)) {
		return nil, fmt.Errorf("pipexec: staging file is %d bytes, shorter than any cube header", size)
	}
	if err := fs.ProbeAt(name, 0, hbuf); err != nil {
		return nil, fmt.Errorf("pipexec: probing dataset: %w", err)
	}
	h, err := cube.DecodeHeader(hbuf[:cube.HeaderSize])
	if err != nil {
		return nil, fmt.Errorf("pipexec: probing dataset: %w", err)
	}
	if h.Dims != dims {
		return nil, fmt.Errorf("pipexec: staging file holds %v, expected %v", h.Dims, dims)
	}
	chunk := int(binary.LittleEndian.Uint32(hbuf[cube.HeaderSize:]))
	if chunk <= 0 || chunk%8 != 0 {
		return nil, fmt.Errorf("pipexec: staging file declares invalid chunk size %d", chunk)
	}
	want := cube.FileBytesChunked(dims, chunk)
	if size != want {
		return nil, fmt.Errorf("pipexec: staging file is %d bytes, want %d for %v", size, want, dims)
	}
	names := make([]string, files)
	for i := range names {
		names[i] = radar.FileName(i)
	}
	return &FileSource{FS: fs, Dims: dims, Files: files, fileBytes: want, names: names}, nil
}

// fileName is the staging file holding CPI seq.
func (s *FileSource) fileName(seq uint64) string {
	return s.names[radar.FileFor(seq, s.Files)]
}

// asyncFetch is the PendingCube of the built-in sources: the fetch runs in
// its own goroutine and closes done when cb or err is set. For a file
// source that is the striped read, then eager verify and decode, so
// fetches deeper in the readahead window make decode progress before the
// pipeline waits on them.
type asyncFetch struct {
	done chan struct{}
	cb   *cube.Cube
	err  error
}

// Begin implements CubeSource: it issues a striped read of the whole
// staging file for the CPI — the iread() of the paper's clients — and its
// fetch goroutine verifies and decodes the payload once the read lands.
// On an async store the fetch goroutine issues the read itself, so Begin
// returns at once; on a sync-only store (PIOFS semantics) the read lands
// before Begin returns and cannot overlap anything — embedded, the Doppler
// stage issues the window's reads, so it pays them itself. The read's
// fault-plan tag folds the CPI sequence number in with the attempt:
// staging files are reused round-robin, so without the seq every visit to
// a file would draw the same injected fate.
func (s *FileSource) Begin(seq uint64, attempt int) PendingCube {
	rb := s.getBuf()
	name := s.fileName(seq)
	tag := int(seq)<<8 | attempt&0xff
	inline := !s.FS.Async()
	var inlineErr error
	if inline {
		inlineErr = s.read(name, tag, rb.b)
	}
	p := &asyncFetch{done: make(chan struct{})}
	go func() {
		defer close(p.done)
		// The read buffer is recycled on every exit — failed reads, corrupt
		// payloads, and dropped CPIs included — so retries and skip-policy
		// drops reuse buffers rather than leak them.
		defer s.putBuf(rb)
		err := inlineErr
		if !inline {
			err = s.read(name, tag, rb.b)
		}
		if err != nil {
			p.err = err
			return
		}
		p.cb, p.err = s.decode(name, seq, tag, rb.b)
	}()
	return p
}

// Wait implements PendingCube. A corrupt payload that chunk re-reads could
// not repair surfaces as cube.ErrCorrupt, which the pipeline's retry layer
// treats as retryable (whole-file re-read).
func (p *asyncFetch) Wait() (*cube.Cube, error) {
	<-p.done
	return p.cb, p.err
}

// landed closes once the fetch has resolved.
func (p *asyncFetch) landed() <-chan struct{} { return p.done }

// Ready implements PendingCube.
func (p *asyncFetch) Ready() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// read is the striped read of one whole staging file. With clocks armed
// (SetClocks) a landed read's latency goes on the read clock — one
// per-fetch serial latency sample, the tuner's serial work for the
// frontend.
func (s *FileSource) read(name string, tag int, buf []byte) error {
	t0 := time.Now()
	if err := s.FS.ReadAtAttempt(name, 0, buf, tag); err != nil {
		return err
	}
	if clk := s.clocks().read; clk != nil {
		clk(time.Since(t0))
	}
	return nil
}

// decode verifies and decodes a landed staging-file image; with clocks
// armed the verify+decode section lands on the decode clock.
func (s *FileSource) decode(name string, seq uint64, tag int, buf []byte) (*cube.Cube, error) {
	h, err := cube.ParseHeader(buf)
	if err != nil {
		return nil, err
	}
	if h.Dims != s.Dims {
		return nil, fmt.Errorf("pipexec: file holds %v, expected %v", h.Dims, s.Dims)
	}
	payload := buf[h.PayloadOffset():]
	if int64(len(payload)) < h.Bytes() {
		return nil, fmt.Errorf("pipexec: CPI %d: %w: payload is %d bytes, want %d",
			seq, cube.ErrTruncated, len(payload), h.Bytes())
	}
	cb := s.getCube()
	d0 := time.Now()
	err = s.decodeChunked(name, seq, tag, &h, payload, cb)
	if clk := s.clocks().dec; clk != nil {
		clk(time.Since(d0))
	}
	if err != nil {
		s.Recycle(cb)
		return nil, err
	}
	return cb, nil
}

// decodeChunked verifies and decodes chunk by chunk across the worker
// pool, then repairs any chunks whose CRC failed by re-reading just those
// byte ranges from the striped store. Each repair round carries a fresh
// attempt number, so a deterministic fault plan re-draws per round exactly
// as it does for whole-file retries.
func (s *FileSource) decodeChunked(name string, seq uint64, tag int, h *cube.Header, payload []byte, cb *cube.Cube) error {
	workers := s.decodeWorkers()
	badPer := make([][]int, workers)
	err := parallel(workers, h.Chunks(), func(widx int, blk cube.Block) error {
		for i := blk.Lo; i < blk.Hi; i++ {
			if cube.VerifyChunk(h, payload, i) == nil {
				cube.DecodeChunk(cb, h, payload, i)
			} else {
				badPer[widx] = append(badPer[widx], i)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var bad []int
	for _, b := range badPer {
		bad = append(bad, b...) // worker blocks are ordered, so bad stays sorted
	}
	if len(bad) == 0 {
		return nil
	}
	payOff := h.PayloadOffset()
	retries := s.chunkRetries()
	for r := 0; r < retries && len(bad) > 0; r++ {
		remaining := bad[:0]
		for _, i := range bad {
			lo, hi := h.ChunkSpan(i)
			s.chunkRereads.Add(1)
			s.chunkRereadBytes.Add(hi - lo)
			if s.FS.ReadAtAttempt(name, payOff+lo, payload[lo:hi], tag+1+r) != nil ||
				cube.VerifyChunk(h, payload, i) != nil {
				remaining = append(remaining, i)
				continue
			}
			cube.DecodeChunk(cb, h, payload, i)
		}
		bad = remaining
	}
	if len(bad) > 0 {
		return fmt.Errorf("pipexec: CPI %d: %w: %d of %d chunks unrecoverable after %d chunk re-read rounds (first: chunk %d)",
			seq, cube.ErrCorrupt, len(bad), h.Chunks(), retries, bad[0])
	}
	s.repairedReads.Add(1)
	return nil
}

// MemSource serves cubes from a generator function; used by tests and the
// in-memory examples. The generator must be safe for concurrent calls and
// return the same cube for a sequence number each time.
type MemSource struct {
	NoFrontend
	Generate func(seq uint64) (*cube.Cube, error)
}

// Recycle implements CubeSource as a no-op: generated cubes are freshly
// allocated per CPI and have no pool to return to.
func (s *MemSource) Recycle(cb *cube.Cube) {}

// Refetchable implements CubeSource: a generator regenerates.
func (s *MemSource) Refetchable() bool { return true }

// Compile-time interface checks for the built-in sources.
var (
	_ CubeSource = (*FileSource)(nil)
	_ CubeSource = (*MemSource)(nil)
)

// Begin implements CubeSource, generating eagerly in a goroutine; a
// generator has no faults to re-draw, so attempt is ignored.
func (s *MemSource) Begin(seq uint64, attempt int) PendingCube {
	p := &asyncFetch{done: make(chan struct{})}
	go func() {
		defer close(p.done)
		p.cb, p.err = s.Generate(seq)
	}()
	return p
}

// ScenarioSource builds a MemSource over a radar scenario.
func ScenarioSource(s *radar.Scenario) *MemSource {
	return &MemSource{Generate: func(seq uint64) (*cube.Cube, error) { return s.Generate(seq) }}
}

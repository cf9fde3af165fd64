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
	"math"
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
	// RepairedReads is the number of fetches (whole cubes or bands) that
	// hit corrupt chunks but completed clean via chunk re-reads, avoiding
	// a whole-fetch retry.
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
// striped file store, the paper's configuration. It has one read path, a
// chunk-granular fetch of range gates [lo, hi) of one CPI: it plans the
// payload chunks the gates touch and lands them window by window, each
// contiguous run of a window's chunks with one striped request; it
// verifies every landed chunk's CRC, re-reads a corrupt chunk on its own
// (ChunkRetries rounds, each re-drawing the fault plan) rather than
// failing the whole read, and decodes the in-band samples into the
// destination, sharded across DecodeWorkers goroutines, before it lands
// the next window. A window holds the larger of 1 MiB and the gates' own
// bytes, rounded up to whole chunks, so a fetch's scratch stays O(band)
// even when rows are shorter than a chunk and a narrow band touches every
// chunk. A whole cube (Begin) is the fetch of [0, Ranges): one window, one
// request from the payload offset to the end of the file. A band
// (ReadBand, RunBanded) is the same fetch over the band.
//
// NewFileSource probes each staging file's header and chunk table once,
// without faults, and checks it against Dims, the chunk size and the file
// size; the data path reads payload bytes only.
//
// Fetch state (chunk plan, landed window) and decoded cubes are pooled: a
// fetch returns its state when it resolves (success, corruption, or drop
// alike), and the pipeline hands decoded cubes back through Recycle once
// Doppler filtering has consumed them, so steady-state reads allocate
// nothing. Build it with NewFileSource.
type FileSource struct {
	frontend

	FS    *pfs.RealFS
	Dims  cube.Dims
	Files int

	// DecodeWorkers shards each fetch's verify+decode across this many
	// goroutines (values < 1 mean 1, the serial behaviour).
	DecodeWorkers int
	// ChunkRetries bounds per-chunk re-read rounds before the fetch
	// reports ErrCorrupt (values < 1 mean 2).
	ChunkRetries int

	// names holds the staging-file names, built once: name i is
	// radar.FileName(i).
	names []string
	// hdrs holds each staging file's probed header and chunk table.
	hdrs []cube.Header

	fetches   sync.Pool // *chunkFetch
	cubes     sync.Pool // *cube.Cube
	fetchNews atomic.Int64
	cubeNews  atomic.Int64
}

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

// PoolNews reports how many fetch states (each holding a read buffer) and
// decoded cubes the source has ever allocated. With recycling working both
// stay bounded by the pipeline depth plus readahead, not the CPI count —
// the pool regression test pins this.
func (s *FileSource) PoolNews() (bufs, cubes int64) {
	return s.fetchNews.Load(), s.cubeNews.Load()
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

// NewFileSource opens a source over files staging files of dims cubes and
// probes every file's header, so a dataset of the wrong geometry or
// layout fails here rather than on a fetch.
func NewFileSource(fs *pfs.RealFS, dims cube.Dims, files int) (*FileSource, error) {
	if files < 1 {
		return nil, fmt.Errorf("pipexec: file count %d < 1", files)
	}
	s := &FileSource{FS: fs, Dims: dims, Files: files,
		names: make([]string, files), hdrs: make([]cube.Header, files)}
	for i := range s.names {
		s.names[i] = radar.FileName(i)
		if err := s.probe(i); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// probe reads staging file f's header and chunk table into hdrs[f]. The
// probe bypasses fault injection — metadata reads are not part of the
// modelled data path — and checks the file against Dims, its declared
// chunk size and its size, so fetches trust the probed header.
func (s *FileSource) probe(f int) error {
	name := s.names[f]
	size, err := s.FS.FileSize(name)
	if err != nil {
		return fmt.Errorf("pipexec: probing %s: %w", name, err)
	}
	// A staging file is its header, its chunk table and the payload of
	// Dims, so its size fixes how many header bytes there are to probe.
	buf := make([]byte, min(size, max(size-s.Dims.Bytes(), cube.HeaderSize)))
	if err := s.FS.ProbeAt(name, 0, buf); err != nil {
		return fmt.Errorf("pipexec: probing %s: %w", name, err)
	}
	h, err := cube.DecodeHeader(buf)
	if err == nil && h.Dims != s.Dims {
		return fmt.Errorf("pipexec: staging file %s holds %v, expected %v", name, h.Dims, s.Dims)
	}
	if err == nil {
		err = cube.DecodeChunkTable(&h, buf[cube.HeaderSize:])
	}
	if err != nil {
		return fmt.Errorf("pipexec: probing %s: %w", name, err)
	}
	if want := cube.FileBytesChunked(s.Dims, h.ChunkSize); size != want {
		return fmt.Errorf("pipexec: staging file %s is %d bytes, want %d for %v in %d-byte chunks",
			name, size, want, s.Dims, h.ChunkSize)
	}
	s.hdrs[f] = h
	return nil
}

// asyncFetch is the PendingCube of the built-in sources: the fetch runs in
// its own goroutine and closes done when cb or err is set.
type asyncFetch struct {
	done chan struct{}
	cb   *cube.Cube
	err  error
}

// Begin implements CubeSource: the fetch of the whole cube for the CPI
// into a pooled cube — the iread() of the paper's clients. Its latency
// goes on the frontend clocks.
func (s *FileSource) Begin(seq uint64, attempt int) PendingCube {
	return s.begin(seq, 0, s.Dims.Ranges, attempt, s.getCube(), s, s.clocks())
}

// ReadBand implements BandedSource: the first-try fetch of gates [lo, hi)
// into the band slab, run in the caller. Per-call I/O is O(band) plus
// chunk-alignment waste, and the fetch's scratch holds one window, so the
// whole-file image is never materialised.
func (s *FileSource) ReadBand(seq uint64, lo, hi int, dst *cube.Cube) error {
	f, err := s.fetch(seq, lo, hi, 0, dst, srcClocks{})
	if err != nil {
		return err
	}
	return f.finish(f.advance(f.steps()))
}

// begin starts fetch number attempt of gates [lo, hi) of CPI seq into dst
// and returns its handle; owner takes dst back if the fetch fails, and clk
// receives the fetch's read and decode latency. On an async store the
// fetch goroutine issues the reads itself, so begin returns at once; on a
// sync-only store (PIOFS semantics) every read lands before begin returns
// and cannot overlap anything — embedded, the Doppler stage issues the
// window's reads, so it pays them itself. The last window's verify,
// repair and decode run in the fetch goroutine either way, so fetches
// deeper in the readahead window make decode progress before the pipeline
// waits on them; a fetch of several windows settles the earlier ones
// wherever it reads the next, since its scratch holds one at a time.
func (s *FileSource) begin(seq uint64, lo, hi, attempt int, dst *cube.Cube, owner CubeSource, clk srcClocks) PendingCube {
	p := &asyncFetch{done: make(chan struct{})}
	f, err := s.fetch(seq, lo, hi, attempt, dst, clk)
	if err != nil {
		owner.Recycle(dst)
		p.err = err
		close(p.done)
		return p
	}
	if !s.FS.Async() {
		p.err = f.advance(f.steps() - 1)
	}
	go func() {
		defer close(p.done)
		if p.err == nil {
			p.err = f.advance(f.steps() - f.step)
		}
		if p.err = f.finish(p.err); p.err != nil {
			owner.Recycle(dst)
			return
		}
		p.cb = dst
	}()
	return p
}

// Wait implements PendingCube. A corrupt payload that chunk re-reads could
// not repair surfaces as cube.ErrCorrupt, which the pipeline's retry layer
// treats as retryable (a whole new fetch).
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

// fetchWindow is the floor of a fetch window's size in bytes (see
// FileSource).
const fetchWindow = 1 << 20

// chunkFetch is one fetch of range gates [lo, hi) of a CPI into dst: the
// payload chunks the gates touch, the landed bytes of the current window
// of them, and the chunks whose CRC failed. Pooled, because fetches
// overlap under readahead; its decode closure is bound once, so a warm
// serial fetch allocates nothing.
type chunkFetch struct {
	s      *FileSource
	name   string
	seq    uint64
	tag    int
	h      *cube.Header
	lo, hi int
	dst    *cube.Cube
	clk    srcClocks
	// chunks lists the payload chunks the gates touch, ascending. Window w
	// is chunks[w*per : (w+1)*per]; chunks[k] of the current window
	// [k0, k1) lands at buf[(k-k0)*ChunkSize:] (only the file's last chunk
	// is short, and it can only be listed last).
	chunks []int
	per    int
	k0, k1 int
	buf    []byte
	// step is the next step (see steps); repaired notes a chunk re-read
	// that salvaged a window.
	step     int
	repaired bool
	// bad holds, per decode worker, the positions in chunks whose CRC
	// failed.
	bad         [][]int
	decodeRange func(widx int, blk cube.Block) error
}

// fetch plans fetch number attempt of gates [lo, hi) of CPI seq into dst
// on a pooled chunkFetch. The fault-plan tag folds the CPI sequence number
// in with the attempt: staging files are reused round-robin, so without
// the seq every visit to a file would draw the same injected fate, and a
// retry re-draws instead of replaying the same fault forever.
func (s *FileSource) fetch(seq uint64, lo, hi, attempt int, dst *cube.Cube, clk srcClocks) (*chunkFetch, error) {
	d := s.Dims
	if lo < 0 || hi > d.Ranges || lo >= hi {
		return nil, fmt.Errorf("pipexec: band [%d,%d) outside range extent %d", lo, hi, d.Ranges)
	}
	if dst.Dims != (cube.Dims{Channels: d.Channels, Pulses: d.Pulses, Ranges: hi - lo}) {
		return nil, fmt.Errorf("pipexec: band slab %v does not hold [%d,%d) of %v", dst.Dims, lo, hi, d)
	}
	f, _ := s.fetches.Get().(*chunkFetch)
	if f == nil {
		s.fetchNews.Add(1)
		f = &chunkFetch{s: s}
		f.decodeRange = f.decodeBlock
	}
	file := radar.FileFor(seq, s.Files)
	h := &s.hdrs[file]
	f.name, f.seq, f.tag = s.names[file], seq, int(seq)<<8|attempt&0xff
	f.h, f.lo, f.hi, f.dst, f.clk = h, lo, hi, dst, clk
	f.step, f.repaired = 0, false
	// Rows are range-minor: row (c,p) holds samples [row*Ranges,
	// (row+1)*Ranges), of which the gates are [row*Ranges+lo, row*Ranges+hi).
	cs := int64(h.ChunkSize)
	f.chunks = f.chunks[:0]
	for row := 0; row < d.Channels*d.Pulses; row++ {
		first := int(int64(row*d.Ranges+lo) * 8 / cs)
		last := int((int64(row*d.Ranges+hi)*8 - 1) / cs)
		if n := len(f.chunks); n > 0 && f.chunks[n-1] >= first {
			first = f.chunks[n-1] + 1
		}
		for c := first; c <= last; c++ {
			f.chunks = append(f.chunks, c)
		}
	}
	gates := int64(d.Channels*d.Pulses*(hi-lo)) * 8
	f.per = int((max(fetchWindow, gates) + cs - 1) / cs)
	// The first window is the largest: a later one is either as full or
	// holds the file's short last chunk.
	n := min(f.per, len(f.chunks))
	clo, chi := h.ChunkSpan(f.chunks[n-1])
	if size := int64(n-1)*cs + chi - clo; int64(cap(f.buf)) < size {
		f.buf = make([]byte, size)
	} else {
		f.buf = f.buf[:size]
	}
	return f, nil
}

// steps is the number of steps the fetch takes: step 2w lands window w,
// step 2w+1 settles it.
func (f *chunkFetch) steps() int {
	return 2 * ((len(f.chunks) + f.per - 1) / f.per)
}

// advance runs the fetch's next n steps. With a clock armed, a landed
// window's read time goes on the read clock and a settle's time on the
// decode clock; only Begin arms them, and a whole cube is one window, so
// each gets one sample per fetch — the tuner's serial work for the
// frontend.
func (f *chunkFetch) advance(n int) error {
	for ; n > 0; n-- {
		t0, clk := time.Now(), f.clk.dec
		var err error
		if f.step%2 == 0 {
			if err = f.land(); err != nil {
				return err
			}
			clk = f.clk.read
		} else {
			err = f.repair(f.verifyDecode())
		}
		if clk != nil {
			clk(time.Since(t0))
		}
		if f.step++; err != nil {
			return err
		}
	}
	return nil
}

// finish resolves the fetch with its outcome err: it counts a salvaged
// fetch as one repaired read and returns the state to the pool.
func (f *chunkFetch) finish(err error) error {
	if err == nil && f.repaired {
		f.s.repairedReads.Add(1)
	}
	f.s.fetches.Put(f)
	return err
}

// data returns the landed bytes of chunks[k], k in the current window.
func (f *chunkFetch) data(k int) []byte {
	lo, hi := f.h.ChunkSpan(f.chunks[k])
	off := int64(k-f.k0) * int64(f.h.ChunkSize)
	return f.buf[off : off+hi-lo]
}

// land reads the next window: one striped request per contiguous run of
// its chunks.
func (f *chunkFetch) land() error {
	f.k0 = f.step / 2 * f.per
	f.k1 = min(f.k0+f.per, len(f.chunks))
	for k := f.k0; k < f.k1; {
		e := k + 1
		for e < f.k1 && f.chunks[e] == f.chunks[e-1]+1 {
			e++
		}
		lo, _ := f.h.ChunkSpan(f.chunks[k])
		off := int64(k-f.k0) * int64(f.h.ChunkSize)
		_, hi := f.h.ChunkSpan(f.chunks[e-1])
		if err := f.s.FS.ReadAtAttempt(f.name, f.h.PayloadOffset()+lo, f.buf[off:off+hi-lo], f.tag); err != nil {
			return err
		}
		k = e
	}
	return nil
}

// verifyDecode runs decodeBlock across the decode pool over the current
// window and returns the positions of its corrupt chunks, ascending.
func (f *chunkFetch) verifyDecode() []int {
	workers := min(f.s.decodeWorkers(), f.k1-f.k0)
	for len(f.bad) < workers {
		f.bad = append(f.bad, nil)
	}
	for w := range f.bad {
		f.bad[w] = f.bad[w][:0]
	}
	parallel(workers, f.k1-f.k0, f.decodeRange) // decodeBlock never fails
	for _, b := range f.bad[1:] {
		f.bad[0] = append(f.bad[0], b...) // worker blocks are ordered
	}
	return f.bad[0]
}

// decodeBlock verifies and decodes the window's chunks blk (relative to
// the window start), noting the corrupt ones on worker widx's list.
func (f *chunkFetch) decodeBlock(widx int, blk cube.Block) error {
	for k := f.k0 + blk.Lo; k < f.k0+blk.Hi; k++ {
		if cube.VerifyChunkData(f.h, f.chunks[k], f.data(k)) != nil {
			f.bad[widx] = append(f.bad[widx], k)
			continue
		}
		f.decodeChunk(k)
	}
	return nil
}

// repair re-reads the corrupt chunks at positions bad individually, for
// up to ChunkRetries rounds, each a fresh attempt number, so a
// deterministic fault plan re-draws per round as it does for whole-fetch
// retries.
func (f *chunkFetch) repair(bad []int) error {
	if len(bad) == 0 {
		return nil
	}
	s := f.s
	retries := s.chunkRetries()
	for r := 0; r < retries && len(bad) > 0; r++ {
		remaining := bad[:0]
		for _, k := range bad {
			i, data := f.chunks[k], f.data(k)
			lo, _ := f.h.ChunkSpan(i)
			s.chunkRereads.Add(1)
			s.chunkRereadBytes.Add(int64(len(data)))
			if s.FS.ReadAtAttempt(f.name, f.h.PayloadOffset()+lo, data, f.tag+1+r) != nil ||
				cube.VerifyChunkData(f.h, i, data) != nil {
				remaining = append(remaining, k)
				continue
			}
			f.decodeChunk(k)
		}
		bad = remaining
	}
	if len(bad) > 0 {
		return fmt.Errorf("pipexec: CPI %d: %w: %d of %d fetched chunks unrecoverable after %d chunk re-read rounds (first: chunk %d)",
			f.seq, cube.ErrCorrupt, len(bad), len(f.chunks), retries, f.chunks[bad[0]])
	}
	f.repaired = true
	return nil
}

// decodeChunk decodes the in-band samples of chunks[k] into dst: the
// little-endian float32 pair decode of cube.DecodeChunkData, filtered to
// gates [lo, hi).
func (f *chunkFetch) decodeChunk(k int) {
	i, data := f.chunks[k], f.data(k)
	d := f.h.Dims
	clo, chi := f.h.ChunkSpan(i)
	sLo, sHi := int(clo/8), int(chi/8)
	bw := f.hi - f.lo
	for row := sLo / d.Ranges; row*d.Ranges < sHi; row++ {
		// Intersect the chunk's sample span with the row's in-band span;
		// the row's band starts at global sample row*Ranges+lo. A chunk
		// that starts past its first row's band misses that row.
		base := row*d.Ranges + f.lo
		a, z := max(base, sLo), min(row*d.Ranges+f.hi, sHi)
		if a >= z {
			continue
		}
		out := f.dst.Data[row*bw+a-base:]
		for g := a; g < z; g++ {
			off := (g - sLo) * 8
			out[g-a] = complex(
				math.Float32frombits(binary.LittleEndian.Uint32(data[off:])),
				math.Float32frombits(binary.LittleEndian.Uint32(data[off+4:])))
		}
	}
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

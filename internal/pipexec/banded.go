package pipexec

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"stapio/internal/cube"
)

// Banded (external-memory) execution: RunBanded streams each CPI through
// the pipeline one range band at a time, so peak residency is O(band) for
// the cube and Doppler intermediates instead of O(cube). The stages are
// Run's: every CPI becomes nb = ceil(Ranges/band) items, which the read
// stage fetches, the Doppler stage filters, the weight stages fold into
// their covariance accumulators and the BF stages beamform into the CPI's
// beam cube; a full-cube run is the case nb = 1. Only the beam cube —
// which pulse compression and CFAR consume along the range axis — is held
// whole; it is the residency floor of this mode (see DESIGN.md §14).
// Detections are byte-identical to Run and the sequential
// stap.Processor: every banded kernel is pinned bit-exact against its
// full-cube counterpart by the stap banded tests, and bands are fed in
// ascending range order so floating-point accumulation never reassociates.

// BandedSource supplies range-band slabs of CPI cubes: ReadBand fills dst
// (dims {Channels, Pulses, hi-lo}) with global range gates [lo, hi) of CPI
// seq. Under readahead, reads of different bands overlap, so
// implementations must be safe for concurrent calls with distinct dst.
type BandedSource interface {
	ReadBand(seq uint64, lo, hi int, dst *cube.Cube) error
}

// FuncBandSource adapts a function to BandedSource — generator-backed
// tests build the full cube per CPI and CopyBand out of it.
type FuncBandSource func(seq uint64, lo, hi int, dst *cube.Cube) error

// ReadBand implements BandedSource.
func (f FuncBandSource) ReadBand(seq uint64, lo, hi int, dst *cube.Cube) error {
	return f(seq, lo, hi, dst)
}

// bands maps a run's items onto range bands: item k is band k mod nb of
// CPI k / nb, and the last band of a CPI is short when band does not
// divide the range extent.
type bands struct {
	ranges, band, nb int
}

// newBands resolves a band size (< 1 or beyond the extent: the extent).
func newBands(ranges, band int) bands {
	if band < 1 || band > ranges {
		band = ranges
	}
	return bands{ranges: ranges, band: band, nb: (ranges + band - 1) / band}
}

// span returns item k's CPI and its global range gates [lo, hi).
func (b bands) span(k uint64) (seq uint64, lo, hi int) {
	nb := uint64(b.nb)
	lo = int(k%nb) * b.band
	return k / nb, lo, min(lo+b.band, b.ranges)
}

func (b bands) seq(item uint64) uint64 { return item / uint64(b.nb) }

// width returns the range extent of item's band.
func (b bands) width(item uint64) int {
	_, lo, hi := b.span(item)
	return hi - lo
}

// widths lists the distinct band widths: the band, and the tail band's
// when the extent does not divide.
func (b bands) widths() []int {
	if tail := b.ranges % b.band; tail != 0 {
		return []int{b.band, tail}
	}
	return []int{b.band}
}

// RunBanded pushes n CPIs from src through the pipeline in range bands of
// Config.BandRanges gates (< 1 means the full range extent). It runs Run's
// stages, so every Config knob applies: workers and AutoTune, ReadAhead
// (counted in bands), Retry and Degrade (a CPI whose band read stays
// failed is dropped whole) and MemBudget (validated against
// BandedMinResidency; landed bands are evicted and re-read under
// pressure). A *FileSource re-draws its fault plan on every retry and
// reports its chunk-repair counters; other sources are re-read as they
// are. Band reads have no I/O frontend, so AutoTune balances the compute
// stages only.
func RunBanded(ctx context.Context, cfg Config, src BandedSource, n int) (*Result, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	d := cfg.Params.Dims
	bs := &bandCubes{src: src, bands: newBands(d.Ranges, cfg.BandRanges), dims: d, slabs: make(map[int]*sync.Pool)}
	bs.file, _ = src.(*FileSource)
	for _, w := range bs.bands.widths() {
		sd := cube.Dims{Channels: d.Channels, Pulses: d.Pulses, Ranges: w}
		bs.slabs[w] = &sync.Pool{New: func() any { return cube.New(sd) }}
	}
	return run(ctx, cfg, bs, n)
}

// bandCubes adapts a BandedSource to the CubeSource contract the read
// stage consumes: Begin(k, attempt) fetches item k's band into a pooled
// slab, and Recycle takes the slab back once Doppler filtering has
// consumed it.
type bandCubes struct {
	NoFrontend
	src   BandedSource
	file  *FileSource // src, when it is the dataset's file source
	bands bands
	dims  cube.Dims
	slabs map[int]*sync.Pool // band width -> pooled *cube.Cube slabs
}

// Begin implements CubeSource.
func (b *bandCubes) Begin(item uint64, attempt int) PendingCube {
	seq, lo, hi := b.bands.span(item)
	dst := b.slabs[hi-lo].Get().(*cube.Cube)
	p := &asyncFetch{done: make(chan struct{})}
	go func() {
		defer close(p.done)
		var err error
		if b.file != nil {
			err = b.file.readBand(seq, lo, hi, attempt, dst)
		} else {
			err = b.src.ReadBand(seq, lo, hi, dst)
		}
		if err != nil {
			b.Recycle(dst)
			p.err = err
			return
		}
		p.cb = dst
	}()
	return p
}

// Recycle implements CubeSource; slabs of foreign geometry are refused.
func (b *bandCubes) Recycle(cb *cube.Cube) {
	if cb == nil {
		return
	}
	if p := b.slabs[cb.Dims.Ranges]; p != nil && cb.Dims.Channels == b.dims.Channels && cb.Dims.Pulses == b.dims.Pulses {
		p.Put(cb)
	}
}

// Refetchable implements CubeSource: a band is read again like any retry.
func (b *bandCubes) Refetchable() bool { return true }

// IOStats implements CubeSource: a file source's chunk-repair counters.
func (b *bandCubes) IOStats() IOStats {
	if b.file != nil {
		return b.file.IOStats()
	}
	return IOStats{}
}

// ---- chunk-granular banded reads from the striped store ----

// ReadBand implements BandedSource over the dataset's staging files: it
// reads only the chunks overlapping the requested range band — each
// (channel, pulse) row contributes one contiguous byte span — verifies
// their CRCs, repairs corrupt chunks with individual re-reads, and decodes
// the in-band samples straight into the band slab. The whole-file image is
// never materialised; per-call I/O is O(band) plus chunk-alignment waste.
func (s *FileSource) ReadBand(seq uint64, lo, hi int, dst *cube.Cube) error {
	return s.readBand(seq, lo, hi, 0, dst)
}

// bandScratch is the per-call state of a band read — the chunk mask and
// the coalesced-run buffer — pooled because band reads overlap under
// readahead.
type bandScratch struct {
	need []bool
	buf  []byte
}

// readBand is ReadBand's fetch number attempt (0 = first try): like
// Begin, the fault-plan tag folds the attempt in, so a retry re-draws.
func (s *FileSource) readBand(seq uint64, lo, hi, attempt int, dst *cube.Cube) error {
	d := s.Dims
	if dst.Dims.Channels != d.Channels || dst.Dims.Pulses != d.Pulses || dst.Dims.Ranges != hi-lo {
		return fmt.Errorf("pipexec: band slab %v does not hold [%d,%d) of %v", dst.Dims, lo, hi, d)
	}
	if lo < 0 || hi > d.Ranges || lo >= hi {
		return fmt.Errorf("pipexec: band [%d,%d) outside range extent %d", lo, hi, d.Ranges)
	}
	name := s.fileName(seq)
	h, err := s.bandHeader(name)
	if err != nil {
		return err
	}
	sc, _ := s.bandScratch.Get().(*bandScratch)
	if sc == nil {
		sc = &bandScratch{}
	}
	defer s.bandScratch.Put(sc)
	// Mark the chunks the band's row spans touch. Rows are range-minor:
	// row (c,p) holds samples [row*Ranges, (row+1)*Ranges), of which the
	// band needs [row*Ranges+lo, row*Ranges+hi).
	need := sc.need[:0]
	for range h.Chunks() {
		need = append(need, false)
	}
	sc.need = need
	rows := d.Channels * d.Pulses
	for row := 0; row < rows; row++ {
		bLo := int64(row*d.Ranges+lo) * 8
		bHi := int64(row*d.Ranges+hi) * 8
		for c := int(bLo / int64(h.ChunkSize)); int64(c)*int64(h.ChunkSize) < bHi && c < len(need); c++ {
			need[c] = true
		}
	}
	tag := int(seq)<<8 | attempt&0xff
	for c := 0; c < len(need); {
		if !need[c] {
			c++
			continue
		}
		// Coalesce a run of consecutive needed chunks into one striped
		// read, capped so one run never balloons past ~1 MiB.
		runEnd := c
		for runEnd < len(need) && need[runEnd] &&
			(runEnd == c || int64(runEnd-c)*int64(h.ChunkSize) < 1<<20) {
			runEnd++
		}
		runLo, _ := h.ChunkSpan(c)
		_, runHi := h.ChunkSpan(runEnd - 1)
		n := int(runHi - runLo)
		if cap(sc.buf) < n {
			sc.buf = make([]byte, n)
		}
		buf := sc.buf[:n]
		if err := s.FS.ReadAtAttempt(name, h.PayloadOffset()+runLo, buf, tag); err != nil {
			return fmt.Errorf("pipexec: band read CPI %d: %w", seq, err)
		}
		for i := c; i < runEnd; i++ {
			clo, chi := h.ChunkSpan(i)
			data := buf[clo-runLo : chi-runLo]
			if cube.VerifyChunkData(h, i, data) != nil {
				if data, err = s.repairBandChunk(name, h, i, data, tag); err != nil {
					return fmt.Errorf("pipexec: band read CPI %d: %w", seq, err)
				}
			}
			decodeBandChunk(dst, h, d, lo, hi, i, data)
		}
		c = runEnd
	}
	return nil
}

// repairBandChunk re-reads one corrupt chunk individually, re-drawing the
// fault plan per round like dataset ingest; counters land on the same
// IOStats the pipeline reports.
func (s *FileSource) repairBandChunk(name string, h *cube.Header, i int, data []byte, tag int) ([]byte, error) {
	clo, chi := h.ChunkSpan(i)
	retries := s.chunkRetries()
	for r := 0; r < retries; r++ {
		s.chunkRereads.Add(1)
		s.chunkRereadBytes.Add(chi - clo)
		if s.FS.ReadAtAttempt(name, h.PayloadOffset()+clo, data, tag+1+r) == nil &&
			cube.VerifyChunkData(h, i, data) == nil {
			s.repairedReads.Add(1)
			return data, nil
		}
	}
	return data, fmt.Errorf("%w: chunk %d unrecoverable after %d re-read rounds", cube.ErrCorrupt, i, retries)
}

// decodeBandChunk decodes the in-band samples of payload chunk i (held
// standalone in data) into the band slab — the same little-endian float32
// pair decode as cube.DecodeChunkData, filtered to gates [lo, hi).
func decodeBandChunk(dst *cube.Cube, h *cube.Header, d cube.Dims, lo, hi, i int, data []byte) {
	clo, chi := h.ChunkSpan(i)
	sLo := int(clo / 8)
	sHi := int(chi / 8)
	bw := hi - lo
	rows := d.Channels * d.Pulses
	for row := sLo / d.Ranges; row < rows && row*d.Ranges < sHi; row++ {
		// Intersect the chunk's sample span with the row's in-band span.
		a := row*d.Ranges + lo
		z := row*d.Ranges + hi
		if a < sLo {
			a = sLo
		}
		if z > sHi {
			z = sHi
		}
		base := row*d.Ranges + lo // global sample index of the row's band start
		for s := a; s < z; s++ {
			off := (s - sLo) * 8
			dst.Data[row*bw+(s-base)] = complex(
				math.Float32frombits(binary.LittleEndian.Uint32(data[off:])),
				math.Float32frombits(binary.LittleEndian.Uint32(data[off+4:])))
		}
	}
}

// bandHeader returns the cached parsed header (fixed header + chunk table)
// of one staging file, probing it on first use. The probe bypasses fault
// injection, like NewFileSource's: startup metadata reads are not part of
// the modelled data path.
func (s *FileSource) bandHeader(name string) (*cube.Header, error) {
	s.bandMu.Lock()
	defer s.bandMu.Unlock()
	if h, ok := s.bandHdrs[name]; ok {
		return h, nil
	}
	pre := make([]byte, cube.HeaderSize+8)
	if err := s.FS.ProbeAt(name, 0, pre); err != nil {
		return nil, fmt.Errorf("pipexec: probing %s: %w", name, err)
	}
	fh, err := cube.DecodeHeader(pre[:cube.HeaderSize])
	if err != nil {
		return nil, fmt.Errorf("pipexec: probing %s: %w", name, err)
	}
	chunk := int(binary.LittleEndian.Uint32(pre[cube.HeaderSize:]))
	if chunk <= 0 || chunk%8 != 0 {
		return nil, fmt.Errorf("pipexec: %s declares invalid chunk size %d", name, chunk)
	}
	// Re-probe the full header + chunk table prefix and parse it whole.
	fh.ChunkSize = chunk
	full := make([]byte, fh.PayloadOffset())
	if err := s.FS.ProbeAt(name, 0, full); err != nil {
		return nil, fmt.Errorf("pipexec: probing %s: %w", name, err)
	}
	h, err := cube.ParseHeader(full)
	if err != nil {
		return nil, fmt.Errorf("pipexec: probing %s: %w", name, err)
	}
	if s.bandHdrs == nil {
		s.bandHdrs = make(map[string]*cube.Header)
	}
	s.bandHdrs[name] = &h
	return &h, nil
}

var _ BandedSource = (*FileSource)(nil)

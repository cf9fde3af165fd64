package pipexec

import (
	"context"
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
// pressure). A *FileSource reads each band with the fetch a whole-cube
// run uses: landed in windows of at most max(1 MiB, band bytes), reads
// inside Begin on a sync-only store, verify and decode across
// DecodeWorkers, its fault plan re-drawn on every retry and its
// chunk-repair counters reported. Other sources are re-read as they are.
// Band reads have no I/O frontend (no stage clocks), so AutoTune balances
// the compute stages only.
func RunBanded(ctx context.Context, cfg Config, src BandedSource, n int) (*Result, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	return run(ctx, cfg, newBandCubes(src, cfg.Params.Dims, cfg.BandRanges), n)
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

// newBandCubes wraps src for CPIs of dims cut into bands of band gates.
func newBandCubes(src BandedSource, d cube.Dims, band int) *bandCubes {
	b := &bandCubes{src: src, bands: newBands(d.Ranges, band), dims: d, slabs: make(map[int]*sync.Pool)}
	b.file, _ = src.(*FileSource)
	for _, w := range b.bands.widths() {
		sd := cube.Dims{Channels: d.Channels, Pulses: d.Pulses, Ranges: w}
		b.slabs[w] = &sync.Pool{New: func() any { return cube.New(sd) }}
	}
	return b
}

// Begin implements CubeSource.
func (b *bandCubes) Begin(item uint64, attempt int) PendingCube {
	seq, lo, hi := b.bands.span(item)
	dst := b.slabs[hi-lo].Get().(*cube.Cube)
	if b.file != nil {
		return b.file.begin(seq, lo, hi, attempt, dst, b, srcClocks{})
	}
	p := &asyncFetch{done: make(chan struct{})}
	go func() {
		defer close(p.done)
		if err := b.src.ReadBand(seq, lo, hi, dst); err != nil {
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

// SetDecodeWorkers implements CubeSource: a file source's band fetches
// decode across the pool Config.DecodeWorkers sizes, as whole cubes do.
func (b *bandCubes) SetDecodeWorkers(n int) {
	if b.file != nil {
		b.file.SetDecodeWorkers(n)
	}
}

var _ BandedSource = (*FileSource)(nil)

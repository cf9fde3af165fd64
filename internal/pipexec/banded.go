package pipexec

import (
	"context"

	"stapio/internal/cube"
)

// Banded (external-memory) execution: with Config.BandRanges set, Run and
// Stream push each CPI through the pipeline one range band at a time, so
// peak residency is O(band) for the cube and Doppler intermediates instead
// of O(cube). Every CPI becomes nb = ceil(Ranges/band) items: the read
// driver asks the source for each item's gate span (CubeSource.Begin), the
// Doppler stage filters it, the weight stages fold it into their
// covariance accumulators and the BF stages beamform it into the CPI's
// beam cube; a full-cube run is the case nb = 1. Only the beam cube —
// which pulse compression and CFAR consume along the range axis — is held
// whole; it is the residency floor of this mode (see DESIGN.md §14).
// Detections are byte-identical to whole-cube runs and the sequential
// stap.Processor: every banded kernel is pinned bit-exact against its
// full-cube counterpart by the stap banded tests, and bands are fed in
// ascending range order so floating-point accumulation never reassociates.

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

// BandedSource is a source RunBanded accepts: a *FileSource, or a
// FuncBandSource.
//
// Deprecated: every CubeSource serves range spans; set Config.BandRanges
// and call Run.
type BandedSource interface {
	cubeSource(d cube.Dims) CubeSource
}

// cubeSource implements BandedSource: the file source serves spans itself.
func (s *FileSource) cubeSource(cube.Dims) CubeSource { return s }

// FuncBandSource adapts a function that fills dst (dims {Channels, Pulses,
// hi-lo}) with gates [lo, hi) of CPI seq to BandedSource. Band reads
// overlap under readahead, so it must be safe for concurrent calls with
// distinct dst.
//
// Deprecated: implement CubeSource, whose Begin receives the span.
type FuncBandSource func(seq uint64, lo, hi int, dst *cube.Cube) error

// cubeSource implements BandedSource.
func (f FuncBandSource) cubeSource(d cube.Dims) CubeSource {
	return &funcBands{read: f, slabs: slabPool{dims: d}}
}

// funcBands serves a FuncBandSource's bands as a CubeSource without a
// frontend, into pooled slabs.
type funcBands struct {
	NoFrontend
	read  FuncBandSource
	slabs slabPool
}

// Begin implements CubeSource.
func (b *funcBands) Begin(seq uint64, lo, hi, attempt int) PendingCube {
	p := &asyncFetch{done: make(chan struct{})}
	go func() {
		defer close(p.done)
		dst := b.slabs.get(hi - lo)
		if p.err = b.read(seq, lo, hi, dst); p.err != nil {
			b.Recycle(dst)
			return
		}
		p.cb = dst
	}()
	return p
}

// Recycle implements CubeSource.
func (b *funcBands) Recycle(cb *cube.Cube) { b.slabs.put(cb) }

// Refetchable implements CubeSource: a band is read again like any retry.
func (b *funcBands) Refetchable() bool { return true }

// RunBanded is Run over src in bands of Config.BandRanges gates.
//
// Deprecated: set Config.BandRanges and call Run.
func RunBanded(ctx context.Context, cfg Config, src BandedSource, n int) (*Result, error) {
	return Run(ctx, cfg, src.cubeSource(cfg.Params.Dims), n)
}

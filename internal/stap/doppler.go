package stap

import (
	"fmt"

	"stapio/internal/cube"
	"stapio/internal/signal"
)

// DopplerCube holds the output of Doppler filter processing in a compact
// per-bin layout: each bin stores exactly the snapshots its adaptive
// problem reads. Bin d's panel is Ranges snapshots of DoF(d) values —
// stagger 0 only (Channels values) for an easy bin, all K staggers
// (K*Channels values, [stagger0 ch0..chC-1, stagger1 ch0..chC-1, ...])
// for a hard bin — and the panels follow each other in bin order:
//
//	Data[Off(d)*Ranges + r*DoF(d) + st*Channels + ch],  Off(d) = Σ_{d'<d} DoF(d')
//
// so a cube holds Ranges*Σ_d DoF(d) values, the paper's Doppler-to-
// beamforming volume (e·R·C + h·R·K·C). Snapshots and bin panels are
// contiguous, so beamforming and covariance estimation stream over them
// without gathering.
type DopplerCube struct {
	Bins, Ranges, Channels int
	Data                   []complex128
	// Seq is the CPI sequence number the cube was filtered from.
	Seq uint64
	// off[d] is Off(d) above (len Bins+1): bin d's panel starts at
	// off[d]*Ranges and its snapshots are off[d+1]-off[d] values long.
	off []int
}

// snapOffsets returns the prefix sums of DoF over p's bins (len Bins+1):
// the DopplerCube layout table.
func snapOffsets(p *Params) []int {
	off := make([]int, p.Bins()+1)
	for d := 0; d < p.Bins(); d++ {
		off[d+1] = off[d] + p.DoF(d)
	}
	return off
}

// snapValues returns Σ_d DoF(d), the values one range gate of a Doppler
// cube holds.
func snapValues(p *Params) int {
	n := 0
	for d := 0; d < p.Bins(); d++ {
		n += p.DoF(d)
	}
	return n
}

// DopplerBytes returns the size in bytes of a Doppler cube covering
// ranges range gates — what NewDopplerCubeBand(p, ranges) allocates.
func DopplerBytes(p *Params, ranges int) int64 {
	return int64(ranges) * int64(snapValues(p)) * 16
}

// NewDopplerCube allocates a zeroed Doppler cube for the given parameters.
func NewDopplerCube(p *Params) *DopplerCube { return NewDopplerCubeBand(p, p.Dims.Ranges) }

// dof returns the snapshot length of bin d.
func (dc *DopplerCube) dof(d int) int { return dc.off[d+1] - dc.off[d] }

// panel returns bin d's Ranges x DoF(d) snapshot panel.
func (dc *DopplerCube) panel(d int) []complex128 {
	return dc.Data[dc.off[d]*dc.Ranges : dc.off[d+1]*dc.Ranges]
}

// Snapshot returns the space-time snapshot at (bin, range) as a slice
// aliasing the cube storage, DoF(bin) values long.
func (dc *DopplerCube) Snapshot(bin, r int) []complex128 {
	n := dc.dof(bin)
	o := dc.off[bin]*dc.Ranges + r*n
	return dc.Data[o : o+n : o+n]
}

// At returns the Doppler output for (bin, stagger, channel, range). An
// easy bin stores stagger 0 only: asking it for a later stagger panics
// rather than read a neighbouring snapshot.
func (dc *DopplerCube) At(bin, stagger, ch, r int) complex128 {
	snap := dc.Snapshot(bin, r)
	if stagger < 0 || (stagger+1)*dc.Channels > len(snap) || ch < 0 || ch >= dc.Channels {
		panic(fmt.Sprintf("stap: DopplerCube.At: bin %d stores %d stagger(s) of %d channels, no (stagger %d, channel %d)",
			bin, len(snap)/dc.Channels, dc.Channels, stagger, ch))
	}
	return snap[stagger*dc.Channels+ch]
}

// laidOutFor reports whether dc's bins and snapshot lengths are p's, so
// the kernels may index it with p's DoF (the range extent is checked by
// the caller: full cubes and band slabs differ there).
func (dc *DopplerCube) laidOutFor(p *Params) bool {
	if dc.Bins != p.Bins() || dc.Channels != p.Dims.Channels || len(dc.off) != dc.Bins+1 {
		return false
	}
	for d := 0; d < dc.Bins; d++ {
		if dc.dof(d) != p.DoF(d) {
			return false
		}
	}
	return true
}

// dopplerTileBudget bounds the per-worker output staging tile (in bytes):
// the tile buffers the bin-major rows of a few range gates so they land in
// the Doppler cube as one contiguous copy per bin. The budget only sets
// the tile depth; results are identical for any value.
const dopplerTileBudget = 128 << 10

// dopplerTileRanges returns the staging-tile depth for p's geometry: as
// many range gates as fit the budget, clamped to [1, 8].
func dopplerTileRanges(p *Params) int {
	rt := dopplerTileBudget / (snapValues(p) * 16)
	return max(1, min(rt, 8))
}

// DopplerScratch is the reusable per-worker state of Doppler filter
// processing: the window coefficients, the length-L FFT plan, the
// per-(stagger, channel) FFT buffers with their column views, and the
// bin-major staging tile. Build one per Doppler worker with
// NewDopplerScratch (once per stage, not once per CPI) and pass it to
// DopplerFilterRanges; steady-state filtering then allocates nothing. A
// scratch must not be shared by two goroutines at once.
type DopplerScratch struct {
	win  []float64
	plan *signal.Plan
	// cols[c] is the slow-time column buffer of channel c; srcs are the
	// K*C staggered views cols[c][st:st+L] in snapshot order (st*C+c),
	// built once so the batched windowed transform needs no per-call
	// slicing.
	cols [][]complex64
	srcs [][]complex64
	// bufs[st*C+c] receives the Doppler spectrum of (stagger st, channel
	// c) for the range gate in flight — snapshot order, so assembling one
	// (bin, range) snapshot reads the buffers in index order.
	bufs [][]complex128
	// tile stages rt range gates of output in the cube's bin-major
	// layout: tile[off[d]*rt + ri*DoF(d) + k], off being the cube's DoF
	// prefix table. Flushing copies one contiguous run per bin into the
	// Doppler cube instead of scattering per range gate.
	tile []complex128
	rt   int
}

// NewDopplerScratch builds the reusable filtering state for p.
func NewDopplerScratch(p *Params) *DopplerScratch {
	l := p.Bins()
	k := p.StaggerCount()
	c := p.Dims.Channels
	sc := &DopplerScratch{
		win:  signal.Window(p.Window, l),
		plan: signal.PlanFor(l),
		cols: make([][]complex64, c),
		srcs: make([][]complex64, k*c),
		bufs: make([][]complex128, k*c),
		rt:   dopplerTileRanges(p),
	}
	for ch := range sc.cols {
		sc.cols[ch] = make([]complex64, p.Dims.Pulses)
	}
	for st := 0; st < k; st++ {
		for ch := 0; ch < c; ch++ {
			sc.srcs[st*c+ch] = sc.cols[ch][st : st+l]
			sc.bufs[st*c+ch] = make([]complex128, l)
		}
	}
	sc.tile = make([]complex128, sc.rt*snapValues(p))
	return sc
}

// fits reports whether the scratch was built for p's geometry.
func (sc *DopplerScratch) fits(p *Params) bool {
	return sc.plan.Len() == p.Bins() &&
		len(sc.bufs) == p.StaggerCount()*p.Dims.Channels &&
		len(sc.cols) == p.Dims.Channels &&
		len(sc.cols[0]) == p.Dims.Pulses &&
		sc.rt == dopplerTileRanges(p) &&
		len(sc.tile) == sc.rt*snapValues(p)
}

// DopplerFilter runs Doppler filter processing over the full cube. It is
// equivalent to DopplerFilterRanges over the whole range extent.
func DopplerFilter(p *Params, cb *cube.Cube, seq uint64) (*DopplerCube, error) {
	out := NewDopplerCube(p)
	out.Seq = seq
	if err := DopplerFilterRanges(p, cb, cube.Block{Lo: 0, Hi: p.Dims.Ranges}, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// DopplerFilterRanges performs Doppler filtering for the range gates in
// block rb only, writing into out. Distinct range blocks touch disjoint
// regions of out, so the pipeline's Doppler task workers each process one
// block concurrently. The input cube must match p.Dims. sc is the worker's
// reusable scratch; nil allocates a fresh one for the call (convenient for
// one-shot use, but the hot path should reuse a per-worker scratch).
func DopplerFilterRanges(p *Params, cb *cube.Cube, rb cube.Block, out *DopplerCube, sc *DopplerScratch) error {
	if cb.Dims != p.Dims {
		return fmt.Errorf("stap: cube dims %v do not match params dims %v", cb.Dims, p.Dims)
	}
	if rb.Lo < 0 || rb.Hi > p.Dims.Ranges || rb.Lo > rb.Hi {
		return fmt.Errorf("stap: range block %v outside [0,%d]", rb, p.Dims.Ranges)
	}
	if out.Ranges != p.Dims.Ranges || !out.laidOutFor(p) {
		return fmt.Errorf("stap: output cube geometry does not match params")
	}
	if sc == nil {
		sc = NewDopplerScratch(p)
	} else if !sc.fits(p) {
		return fmt.Errorf("stap: doppler scratch geometry does not match params")
	}
	dopplerBody(p, cb, rb, out, sc)
	return nil
}

// dopplerBody is the shared kernel of DopplerFilterRanges and
// DopplerFilterBand: range gates are processed in staging tiles of sc.rt
// gates. For each gate, all channels' slow-time columns are read once and
// the K*C windowed transforms run as one batched call (the window multiply
// fused into the bit-reversal copy); each bin's snapshot — the first
// DoF(d) spectra, so easy bins drop their stagger >= 1 values — is staged
// bin-major in the tile and flushed to the output cube as one contiguous
// copy per bin — blocked tiles instead of scattering one element per
// (bin, stagger) across the whole cube per column. Only the write order
// differs from the element-at-a-time form, so the output is bit-identical
// for any tile depth. Cube and output range indices coincide (both are
// band-local in the banded case).
func dopplerBody(p *Params, cb *cube.Cube, rb cube.Block, out *DopplerCube, sc *DopplerScratch) {
	l := p.Bins()
	c := p.Dims.Channels
	off := out.off
	rt := sc.rt
	for r0 := rb.Lo; r0 < rb.Hi; r0 += rt {
		n := min(rt, rb.Hi-r0)
		for ri := 0; ri < n; ri++ {
			for ch := 0; ch < c; ch++ {
				cb.PulseColumn(ch, r0+ri, sc.cols[ch])
			}
			sc.plan.ForwardWindowedMany(sc.srcs, sc.win, sc.bufs)
			for d := 0; d < l; d++ {
				dof := out.dof(d)
				row := sc.tile[off[d]*rt+ri*dof : off[d]*rt+(ri+1)*dof]
				for k, buf := range sc.bufs[:dof] {
					row[k] = buf[d]
				}
			}
		}
		for d := 0; d < l; d++ {
			dof := out.dof(d)
			src := sc.tile[off[d]*rt : off[d]*rt+n*dof]
			dst := out.Data[off[d]*out.Ranges+r0*dof:]
			copy(dst[:len(src)], src)
		}
	}
}

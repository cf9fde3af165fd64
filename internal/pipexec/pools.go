package pipexec

import (
	"sync"
	"sync/atomic"

	"stapio/internal/cube"
	"stapio/internal/stap"
)

// dopplerConsumers is the number of stages a Doppler cube fans out to: the
// easy and hard weight stages plus the easy and hard beamforming stages.
// Each releases its reference when done reading; the last release returns
// the cube to the pool for the next CPI.
const dopplerConsumers = 4

// dopplerHandle pairs a pooled DopplerCube with the count of downstream
// stages still reading it. The handle is pooled together with its cube so
// the refcount itself costs no per-CPI allocation.
type dopplerHandle struct {
	dc   *stap.DopplerCube
	refs atomic.Int32
}

// pipePools recycles the large per-CPI intermediates of one pipeline run —
// Doppler cubes, beam cubes and weight sets — so steady-state CPIs reuse the buffers of
// CPIs that already drained instead of allocating fresh ones. Both cube
// kinds are fully overwritten by their producing stage (the union of range
// blocks covers every gate; easy and hard bins together cover every bin),
// so recycled buffers need no zeroing.
//
// The news counters record how many buffers were ever built; with hand-back
// working they are bounded by the pipeline depth, not the CPI count, which
// the pool regression test pins.
type pipePools struct {
	doppler sync.Pool // *dopplerHandle
	beam    sync.Pool // *stap.BeamCube

	dopplerNews atomic.Int64
	beamNews    atomic.Int64

	// Weight sets of the easy and hard bin sets; built by launch, which
	// knows the channel depth they must cover.
	easyW, hardW *weightPool
}

func newPipePools(p *stap.Params) *pipePools {
	pl := &pipePools{}
	pl.doppler.New = func() any {
		pl.dopplerNews.Add(1)
		return &dopplerHandle{dc: stap.NewDopplerCube(p)}
	}
	pl.beam.New = func() any {
		pl.beamNews.Add(1)
		return stap.NewBeamCube(p)
	}
	return pl
}

// getDoppler leases a Doppler cube for one CPI with its fan-out references
// armed.
func (pl *pipePools) getDoppler(seq uint64) *dopplerHandle {
	h := pl.doppler.Get().(*dopplerHandle)
	h.dc.Seq = seq
	h.refs.Store(dopplerConsumers)
	return h
}

// releaseDoppler drops one stage's reference; the last consumer's release
// recycles the cube and reports true so the caller can retire the cube's
// budget charge. Error and cancellation paths may skip releasing — the
// run is dying and the garbage collector reclaims the cube.
func (pl *pipePools) releaseDoppler(h *dopplerHandle) bool {
	if h.refs.Add(-1) == 0 {
		pl.doppler.Put(h)
		return true
	}
	return false
}

func (pl *pipePools) getBeam(seq uint64) *stap.BeamCube {
	bc := pl.beam.Get().(*stap.BeamCube)
	bc.Seq = seq
	return bc
}

// putBeam recycles a beam cube once CFAR has extracted its detections.
func (pl *pipePools) putBeam(bc *stap.BeamCube) {
	pl.beam.Put(bc)
}

// recycleCube hands an input cube back to its source as soon as Doppler
// filtering has consumed it. Recycle is part of the CubeSource contract;
// pool-less sources implement it as a no-op and leave the cube to the
// garbage collector.
func (r *runner) recycleCube(cb *cube.Cube) {
	r.src.Recycle(cb)
}

// weightPool recycles one bin set's WeightSets between its weight stage,
// which solves each CPI's weights into a set it takes from the pool, and
// its beamforming stage, which hands back the set it was beamforming with
// as soon as the next CPI's set replaces it — the weight-stage analogue of
// the Doppler hand-back. The free list is a buffered channel sized to hold
// every set in flight, so put never blocks and news stays bounded by the
// pipeline depth.
type weightPool struct {
	p    *stap.Params
	bins []int
	free chan *stap.WeightSet
	news atomic.Int64
}

// newWeightPool sizes the free list for a weight channel of buf+1 slots
// plus the set being solved, the one blocked in send, and the one
// beamforming holds.
func newWeightPool(p *stap.Params, bins []int, buf int) *weightPool {
	return &weightPool{p: p, bins: bins, free: make(chan *stap.WeightSet, buf+4)}
}

// get leases a set to solve into; its contents are stale until overwritten.
func (wp *weightPool) get() *stap.WeightSet {
	select {
	case ws := <-wp.free:
		return ws
	default:
		wp.news.Add(1)
		return stap.NewWeightSet(wp.p, wp.bins)
	}
}

// put returns a set no stage reads any more.
func (wp *weightPool) put(ws *stap.WeightSet) {
	select {
	case wp.free <- ws:
	default:
	}
}

package pipexec

import (
	"sync"
	"sync/atomic"

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

// pipePools recycles the large intermediates of one pipeline run —
// Doppler bands, beam cubes and weight sets — so steady-state items reuse
// the buffers of items that already drained instead of allocating fresh
// ones. Both cube kinds are fully overwritten by their producing stage
// (the union of range blocks covers every gate of a band, the bands of a
// CPI cover every gate, and easy and hard bins together cover every bin),
// so recycled buffers need no zeroing.
//
// The news counters record how many buffers were ever built; with hand-back
// working they are bounded by the pipeline depth, not the CPI count, which
// the pool regression test pins.
type pipePools struct {
	doppler map[int]*sync.Pool // *dopplerHandle, keyed by band width
	beam    sync.Pool          // *stap.BeamCube

	dopplerNews atomic.Int64
	beamNews    atomic.Int64

	// Weight sets of the easy and hard bin sets; built by launch, which
	// knows the channel depth they must cover.
	easyW, hardW *weightPool
}

// newPipePools builds the pools of a run whose items span the given band
// widths (the band and, when the range extent does not divide, the tail).
func newPipePools(p *stap.Params, widths ...int) *pipePools {
	pl := &pipePools{doppler: make(map[int]*sync.Pool, len(widths))}
	for _, w := range widths {
		pl.doppler[w] = &sync.Pool{New: func() any {
			pl.dopplerNews.Add(1)
			return &dopplerHandle{dc: stap.NewDopplerCubeBand(p, w)}
		}}
	}
	pl.beam.New = func() any {
		pl.beamNews.Add(1)
		return stap.NewBeamCube(p)
	}
	return pl
}

// getDoppler leases a Doppler band of the given width for CPI seq with its
// fan-out references armed.
func (pl *pipePools) getDoppler(seq uint64, width int) *dopplerHandle {
	h := pl.doppler[width].Get().(*dopplerHandle)
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
		pl.doppler[h.dc.Ranges].Put(h)
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

// weightPool recycles one bin set's WeightSets between its weight stage,
// which solves each CPI's weights into a set it takes from the pool, and
// its beamforming stage, which hands back the set it was beamforming with
// as soon as the CPI's last band is beamformed — the weight-stage analogue
// of the Doppler hand-back. The free list is a buffered channel sized to hold
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

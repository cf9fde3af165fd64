package pipexec

import (
	"fmt"

	"stapio/internal/membudget"
	"stapio/internal/stap"
)

// Memory-budgeted execution: every large slab the pipeline holds is
// charged against a membudget.Budget before the slab is filled and
// released as soon as its last consumer drains it. Charges follow the
// slabs at item granularity, an item being one range band of one CPI (a
// full-cube run has one item per CPI): the read driver (nextItem) charges
// an item's band slab when it issues the fetch; the Doppler stage releases it when
// filtering has consumed it and charges the item's Doppler band in the
// same breath, plus the CPI's beam cube on its first band; the last
// weight/BF consumer releases the Doppler band, and CFAR releases the
// beam cube when the detections are extracted.
//
// Deadlock freedom comes from admission ordering, not from luck: only the
// read driver and the Doppler stage ever block on the budget, and their
// priorities are keyed to the item index so the oldest in-flight item —
// the only one whose intermediates can drain the pipe — always outranks
// newer reads. Every slab admission also leaves the oldest unadmitted
// item's compute charges admissible (see headroom). Downstream stages
// (weights, BF, PC, CFAR) only release, so once an item is admitted it
// runs to completion and frees its bytes. See DESIGN.md §14.

// MemCosts returns the tracked byte cost of the three per-CPI slabs: the
// input cube (complex64 samples), the Doppler cube (complex128 snapshots,
// sized by stap's layout), and the beam cube (complex128 profiles).
func MemCosts(p *stap.Params) (cubeB, dopB, beamB int64) {
	cubeB = p.Dims.Bytes()
	dopB = stap.DopplerBytes(p, p.Dims.Ranges)
	beamB = int64(len(p.Beams)) * int64(p.Bins()) * int64(p.Dims.Ranges) * 16
	return
}

// BandedMinResidency is the smallest budget a run in bands of the given
// size can run in: one band slab plus its Doppler band, and the beam
// cube, which pulse compression and CFAR consume whole. Bands < 1 or
// beyond the range extent mean the full extent.
func BandedMinResidency(p *stap.Params, band int) int64 {
	if band < 1 || band > p.Dims.Ranges {
		band = p.Dims.Ranges
	}
	cubeB, dopB, beamB := MemCosts(p)
	return beamB + (cubeB+dopB)/int64(p.Dims.Ranges)*int64(band)
}

// MinResidency is the smallest budget the full-cube pipeline can run in:
// one CPI's cube plus its Doppler and beam intermediates. Tighter budgets
// need bands (Config.BandRanges).
func MinResidency(p *stap.Params) int64 { return BandedMinResidency(p, p.Dims.Ranges) }

// Admission priorities (lower is more urgent): item k's compute
// intermediates outrank its own read, and both outrank everything of every
// later item — the oldest item always wins, so the pipe drains front-first.
func compPri(item uint64) uint64 { return item * 2 }
func readPri(item uint64) uint64 { return item*2 + 1 }

// initBudget resolves the runner's budget: the configured one, or a
// private unlimited budget so the high-water/stall observability works on
// unbudgeted runs too. Called by Run and Stream after newRunner.
func (r *runner) initBudget() error {
	cubeB, dopB, beamB := MemCosts(r.p)
	r.cubeB = cubeB / int64(r.p.Dims.Ranges) * int64(r.bands.band)
	r.dopB = dopB / int64(r.p.Dims.Ranges) * int64(r.bands.band)
	r.beamB = beamB
	r.budget = r.cfg.MemBudget
	if r.budget == nil {
		r.budget = membudget.New("pipeline", 0)
	}
	if lim := r.budget.PathLimit(); lim > 0 {
		if min := BandedMinResidency(r.p, r.bands.band); lim < min {
			return fmt.Errorf("pipexec: memory budget %s is below the minimum residency %s at band %d (one band slab + its Doppler band + the beam cube): %w — shrink the band",
				membudget.FormatBytes(lim), membudget.FormatBytes(min), r.bands.band, membudget.ErrBudgetExceeded)
		}
		if r.src.Refetchable() {
			r.budget.OnPressure(r.evict)
		}
	}
	if r.cubeCharged == nil {
		r.cubeCharged = make(map[uint64]bool)
	}
	return nil
}

// itemBytes returns the band slab and Doppler band bytes of an item
// spanning width range gates.
func (r *runner) itemBytes(width int) (slabB, dopB int64) {
	return r.cubeB / int64(r.bands.band) * int64(width), r.dopB / int64(r.bands.band) * int64(width)
}

// acquireMem blocks until n bytes are admitted at the given priority.
// Stall counts and stall time accumulate inside the budget itself
// (membudget.Stats), which snapshotStats folds into RunStats.
func (r *runner) acquireMem(n int64, pri uint64) error {
	return r.budget.AcquirePri(r.ctx, n, pri)
}

func (r *runner) releaseMem(n int64) { r.budget.Release(n) }

// headroom is what must stay admissible after the slab of item is
// charged: the Doppler band of the oldest item the Doppler stage has yet
// to admit and — when a CPI's first band is among the unadmitted items up
// to item — the beam cube that first band charges. Later bands of a CPI
// need no beam headroom: their CPI's beam is already charged, and the
// previous CPI's beam drains before the next first band is admitted. The
// admitted count only grows, so a stale load overestimates, never under.
func (r *runner) headroom(item uint64) int64 {
	a := uint64(r.admitted.Load())
	nb := uint64(r.bands.nb)
	if a%nb == 0 || a/nb != item/nb {
		return r.dopB + r.beamB
	}
	return r.dopB
}

// tryAcquireReadAhead admits one more readahead slab only when doing so
// still leaves the headroom free: it reserves slab + headroom together,
// then hands the headroom straight back. This is the deadlock-freedom
// invariant of budgeted prefetch — however deep the window grows, the
// bytes the oldest item's compute admission needs were provably free
// after every opportunistic charge, and only drainable charges (which
// downstream stages always release) can take them.
func (r *runner) tryAcquireReadAhead(item uint64) bool {
	slabB, _ := r.itemBytes(r.bands.width(item))
	h := r.headroom(item)
	if !r.budget.TryAcquire(slabB + h) {
		return false
	}
	r.budget.Release(h)
	return true
}

// acquireReadHead blocks until the window-head slab of item is admitted,
// under the same invariant. It first waits until the Doppler stage has
// admitted every item sent so far, so the head is the oldest unadmitted
// item and the headroom is exactly its own compute charges: the head may
// not be admitted on slab bytes alone — if the slabs of items k and k+1
// are both charged before the compute admission for k is even enqueued,
// k's intermediates no longer fit and no downstream stage holds
// releasable bytes. Embedded, the Doppler stage admits item k before it
// asks for k+1, so that wait never blocks; only the separate design's
// read stage, which runs ahead of the Doppler stage, ever waits in it.
func (r *runner) acquireReadHead(item uint64, sent int64) error {
	for r.admitted.Load() < sent {
		select {
		case <-r.admitKick:
		case <-r.ctx.Done():
			return r.ctx.Err()
		}
	}
	slabB, _ := r.itemBytes(r.bands.width(item))
	h := r.headroom(item)
	if err := r.acquireMem(slabB+h, readPri(item)); err != nil {
		return err
	}
	r.releaseMem(h)
	return nil
}

// admit records that the Doppler stage has admitted item and wakes a
// separate read stage waiting in acquireReadHead.
func (r *runner) admit(item uint64) {
	r.admitted.Store(int64(item) + 1)
	select {
	case r.admitKick <- struct{}{}:
	default:
	}
}

// Slab-charge bookkeeping: the read driver charges each item's band slab
// when the fetch is issued; whichever path consumes the slab — Doppler
// filtering, a drop, or an eviction — releases exactly once. chargeMu
// guards the map because the pressure handler races the Doppler stage.

func (r *runner) setCubeCharged(item uint64) {
	r.chargeMu.Lock()
	r.cubeCharged[item] = true
	r.chargeMu.Unlock()
}

// releaseCubeCharge drops item's slab charge if it is still held,
// returning the bytes this call released.
func (r *runner) releaseCubeCharge(item uint64) int64 {
	r.chargeMu.Lock()
	held := r.cubeCharged[item]
	delete(r.cubeCharged, item)
	r.chargeMu.Unlock()
	if !held {
		return 0
	}
	slabB, _ := r.itemBytes(r.bands.width(item))
	r.releaseMem(slabB)
	return slabB
}

// evict is the budget's pressure handler when the source can fetch an
// item again: it evicts landed readahead items from the window's tail —
// the ones FIFO delivery consumes last — recycling each slab and
// releasing its charge, until need bytes are freed. A fetch that landed
// with an error stays for the retry policy at the head. The read driver
// re-fetches an evicted item when it reaches the head (nextItem), so
// eviction writes nothing and a blocked waiter that finds nothing to
// evict waits for the downstream release admission order guarantees.
func (r *runner) evict(need int64) (freed int64) {
	r.winMu.Lock()
	defer r.winMu.Unlock()
	for i := len(r.window) - 1; i >= 0 && freed < need; i-- {
		s := &r.window[i]
		if s.evicted || !s.pend.Ready() {
			continue
		}
		cb, err := s.pend.Wait()
		if err != nil {
			continue
		}
		r.src.Recycle(cb)
		s.pend, s.evicted = nil, true
		r.stats.evictions.Add(1)
		freed += r.releaseCubeCharge(s.item)
	}
	return freed
}

// refetch brings an evicted item back at the window head: it admits the
// slab like any head read (acquireReadHead) and replays the fetch. Window
// fetches are all attempt 0, so the re-fetch replays the fault draw that
// landed and the drop set cannot change.
func (r *runner) refetch(s *raSlot, sent int64) error {
	if err := r.acquireReadHead(s.item, sent); err != nil {
		return err
	}
	r.setCubeCharged(s.item)
	s.pend = r.begin(s.item, 0)
	slabB, _ := r.itemBytes(r.bands.width(s.item))
	r.stats.refetchBytes.Add(slabB)
	return nil
}

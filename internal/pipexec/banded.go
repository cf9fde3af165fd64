package pipexec

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"stapio/internal/cube"
	"stapio/internal/membudget"
	"stapio/internal/radar"
	"stapio/internal/stap"
)

// Banded (external-memory) execution: RunBanded streams each CPI through
// the front of the STAP chain one range band at a time, so peak residency
// is O(band) for the cube and Doppler intermediates instead of O(cube).
// Only the beam cube — which pulse compression and CFAR consume along the
// range axis — is held whole; it is the residency floor of this mode (see
// DESIGN.md §14). Detections are byte-identical to Run and the sequential
// stap.Processor: every banded kernel is pinned bit-exact against its
// full-cube counterpart by the stap banded tests, and bands are fed in
// ascending range order so floating-point accumulation never reassociates.

// BandedSource supplies range-band slabs of CPI cubes: ReadBand fills dst
// (dims {Channels, Pulses, hi-lo}) with global range gates [lo, hi) of CPI
// seq. Implementations must be safe for sequential reuse of dst.
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

// BandedMinResidency returns the tracked working set of a banded run at
// the given band size: the beam cube plus the band-sized cube and Doppler
// slabs (including the tail band's, when the extent does not divide).
func BandedMinResidency(p *stap.Params, band int) int64 {
	if band < 1 || band > p.Dims.Ranges {
		band = p.Dims.Ranges
	}
	_, _, beamB := MemCosts(p)
	snapB := int64(p.Bins()) * int64(p.StaggerCount()*p.Dims.Channels) * 16
	rowB := int64(p.Dims.Channels*p.Dims.Pulses) * 8
	total := beamB + int64(band)*(snapB+rowB)
	if tail := p.Dims.Ranges % band; tail != 0 && p.Dims.Ranges > band {
		total += int64(tail) * (snapB + rowB)
	}
	return total
}

// RunBanded pushes n CPIs from src through the banded chain. Config fields
// honoured: Params, Workers (per-stage parallelism within each band),
// BandRanges (the band size; < 1 means the full range extent), MemBudget
// (the working set is reserved up front and validated against the path
// limit), Reports, and CombinePCCFAR (stage accounting only — the math is
// identical). The pipelined-execution knobs (ReadAhead, AutoTune, Retry,
// Degrade, Spill) do not apply: the banded mode is a sequential
// out-of-core executor, trading the pipeline's overlap for an O(band)
// footprint.
func RunBanded(ctx context.Context, cfg Config, src BandedSource, n int) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("pipexec: need at least one CPI, got %d", n)
	}
	p := &cfg.Params
	ranges := p.Dims.Ranges
	band := cfg.BandRanges
	if band < 1 || band > ranges {
		band = ranges
	}
	budget := cfg.MemBudget
	if budget == nil {
		budget = membudget.New("banded", 0)
	}
	working := BandedMinResidency(p, band)
	if lim := budget.PathLimit(); lim > 0 && lim < working {
		return nil, fmt.Errorf("pipexec: memory budget %s is below the banded working set %s at band %d: %w — shrink -band",
			membudget.FormatBytes(lim), membudget.FormatBytes(working), band, membudget.ErrBudgetExceeded)
	}
	// The whole working set is one reservation at the most urgent
	// priority: a banded run inside a shared budget (a serve replica
	// spilling its neighbours) must never deadlock against readahead.
	if err := budget.AcquirePri(ctx, working, 0); err != nil {
		return nil, err
	}
	defer budget.Release(working)

	b := newBandedRun(cfg, p, band)
	start := time.Now()
	res := &Result{}
	for k := 0; k < n; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cr, err := b.processCPI(src, uint64(k))
		if err != nil {
			return nil, err
		}
		if cfg.Reports != nil {
			if err := cfg.Reports.WriteReports(cr.Seq, cr.Detections); err != nil {
				return nil, err
			}
		}
		res.CPIs = append(res.CPIs, cr)
	}
	res.Elapsed = time.Since(start)
	if res.Elapsed > 0 {
		res.Throughput = float64(len(res.CPIs)) / res.Elapsed.Seconds()
	}
	for _, c := range b.clocks {
		res.Stages = append(res.Stages, c.stat())
	}
	for _, c := range b.clocks {
		res.Stats.StageTimes = append(res.Stats.StageTimes, c.timeStats())
	}
	ms := budget.Stats()
	res.Stats.MemLimit = budget.PathLimit()
	res.Stats.MemHighWater = ms.HighWater
	res.Stats.MemStalls = ms.Stalls
	res.Stats.MemStall = ms.StallTime
	return res, nil
}

// bandedRun is the reusable state of one RunBanded invocation: the band
// slabs, per-worker scratches, covariance accumulators, weight feedback,
// and stage clocks.
type bandedRun struct {
	cfg  Config
	p    *stap.Params
	band int

	easyBins []int
	hardBins []int

	slab     *cube.Cube // band-sized input slab
	tailSlab *cube.Cube // tail band's slab (nil when the extent divides)
	dop      *stap.DopplerCube
	tailDop  *stap.DopplerCube
	bc       *stap.BeamCube

	scratches []*stap.DopplerScratch
	accEasy   *stap.CovAccumulator
	accHard   *stap.CovAccumulator
	smEasy    stap.CovarianceSmoother
	smHard    stap.CovarianceSmoother
	solvEasy  *stap.WeightSolver
	solvHard  *stap.WeightSolver
	// Double-buffered weights: bands beamform with w* while the CPI's
	// solve fills next*, then the two swap.
	wEasy, nextEasy *stap.WeightSet
	wHard, nextHard *stap.WeightSet

	comps []*stap.Compressor
	pairs []stap.BeamBin
	cfar  *cfarState

	clocks []*stageClock
	ck     struct {
		read, dop, we, wh, bfe, bfh, pc, cf *stageClock
	}
}

func newBandedRun(cfg Config, p *stap.Params, band int) *bandedRun {
	b := &bandedRun{cfg: cfg, p: p, band: band}
	b.easyBins = p.EasyBins()
	b.hardBins = p.HardBins()
	d := p.Dims
	b.slab = cube.New(cube.Dims{Channels: d.Channels, Pulses: d.Pulses, Ranges: band})
	b.dop = stap.NewDopplerCubeBand(p, band)
	if tail := d.Ranges % band; tail != 0 && d.Ranges > band {
		b.tailSlab = cube.New(cube.Dims{Channels: d.Channels, Pulses: d.Pulses, Ranges: tail})
		b.tailDop = stap.NewDopplerCubeBand(p, tail)
	}
	b.bc = stap.NewBeamCube(p)
	for i := 0; i < workersOf(cfg.Workers.Doppler); i++ {
		b.scratches = append(b.scratches, stap.NewDopplerScratch(p))
	}
	// The bin sets are validated by Params.Validate; accumulator
	// construction cannot fail after that.
	b.accEasy, _ = stap.NewCovAccumulator(p, b.easyBins, false)
	b.accHard, _ = stap.NewCovAccumulator(p, b.hardBins, true)
	b.smEasy = stap.CovarianceSmoother{Lambda: p.Forgetting}
	b.smHard = stap.CovarianceSmoother{Lambda: p.Forgetting}
	b.solvEasy, _ = stap.NewWeightSolver(p, b.easyBins, false)
	b.solvHard, _ = stap.NewWeightSolver(p, b.hardBins, true)
	b.wEasy = b.solvEasy.InitialWeights()
	b.wHard = b.solvHard.InitialWeights()
	b.nextEasy = b.solvEasy.NewWeightSet()
	b.nextHard = b.solvHard.NewWeightSet()
	b.comps = []*stap.Compressor{stap.NewCompressor(p)}
	b.pairs = stap.AllBeamBins(len(p.Beams), p.Bins())
	b.cfar = newCFARState(p, workersOf(cfg.Workers.CFAR))
	clock := func(name string) *stageClock {
		c := &stageClock{name: name}
		b.clocks = append(b.clocks, c)
		return c
	}
	b.ck.read = clock("band read")
	b.ck.dop = clock("doppler")
	b.ck.we = clock("easy weight")
	b.ck.wh = clock("hard weight")
	b.ck.bfe = clock("easy BF")
	b.ck.bfh = clock("hard BF")
	if cfg.CombinePCCFAR {
		b.ck.pc = clock("pulse compr+CFAR")
	} else {
		b.ck.pc = clock("pulse compr")
		b.ck.cf = clock("CFAR")
	}
	return b
}

func workersOf(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// processCPI runs one CPI through the banded chain: per band — read,
// Doppler filter, accumulate covariances, beamform with the previous CPI's
// weights — then solve this CPI's weights for the next, pulse-compress,
// and CFAR the assembled beam cube.
func (b *bandedRun) processCPI(src BandedSource, seq uint64) (CPIResult, error) {
	p := b.p
	start := time.Now()
	b.bc.Seq = seq // CFAR stamps this into every detection
	for lo := 0; lo < p.Dims.Ranges; lo += b.band {
		hi := lo + b.band
		slab, dop := b.slab, b.dop
		if hi > p.Dims.Ranges {
			hi = p.Dims.Ranges
			slab, dop = b.tailSlab, b.tailDop
		}
		if err := b.processBand(src, seq, lo, hi, slab, dop); err != nil {
			return CPIResult{}, err
		}
	}
	// Weight feedback: this CPI's accumulated covariances train the
	// weights the NEXT CPI beamforms with — the same temporal dependency
	// as the pipeline and the sequential chain.
	if err := b.solve(b.ck.we, b.accEasy, &b.smEasy, b.solvEasy, b.nextEasy, seq, workersOf(b.cfg.Workers.EasyWeight)); err != nil {
		return CPIResult{}, err
	}
	if err := b.solve(b.ck.wh, b.accHard, &b.smHard, b.solvHard, b.nextHard, seq, workersOf(b.cfg.Workers.HardWeight)); err != nil {
		return CPIResult{}, err
	}
	b.wEasy, b.nextEasy = b.nextEasy, b.wEasy
	b.wHard, b.nextHard = b.nextHard, b.wHard

	// Pulse compression over the assembled beam cube, per (beam, bin)
	// pair — identical partitioning and math to the pipeline's pcStage.
	pcW := workersOf(b.cfg.Workers.PulseComp)
	for len(b.comps) < pcW {
		b.comps = append(b.comps, b.comps[0].Clone())
	}
	t0 := time.Now()
	err := parallel(pcW, len(b.pairs), func(widx int, blk cube.Block) error {
		return stap.Compress(p, b.bc, b.comps[widx], b.pairs[blk.Lo:blk.Hi])
	})
	if err != nil {
		return CPIResult{}, fmt.Errorf("pipexec: banded pulse compression CPI %d: %w", seq, err)
	}
	pcClk, cfClk := b.ck.pc, b.ck.cf
	if b.cfg.CombinePCCFAR {
		cfClk = b.ck.pc
	} else {
		pcClk.add(time.Since(t0))
		t0 = time.Now()
	}
	cfW := workersOf(b.cfg.Workers.CFAR)
	b.cfar.resize(p, cfW)
	all, err := bandedCFAR(p, b.bc, b.cfar, cfW)
	if err != nil {
		return CPIResult{}, fmt.Errorf("pipexec: banded CFAR CPI %d: %w", seq, err)
	}
	cfClk.add(time.Since(t0))
	now := time.Now()
	return CPIResult{Seq: seq, Detections: all, Latency: now.Sub(start), Done: now}, nil
}

// processBand runs the front of the chain over global gates [lo, hi).
func (b *bandedRun) processBand(src BandedSource, seq uint64, lo, hi int, slab *cube.Cube, dop *stap.DopplerCube) error {
	p := b.p
	t0 := time.Now()
	if err := src.ReadBand(seq, lo, hi, slab); err != nil {
		return fmt.Errorf("pipexec: banded read CPI %d [%d,%d): %w", seq, lo, hi, err)
	}
	b.ck.read.add(time.Since(t0))

	t0 = time.Now()
	err := parallel(len(b.scratches), hi-lo, func(widx int, blk cube.Block) error {
		return stap.DopplerFilterBand(p, slab, blk, dop, b.scratches[widx])
	})
	if err != nil {
		return fmt.Errorf("pipexec: banded doppler CPI %d: %w", seq, err)
	}
	b.ck.dop.add(time.Since(t0))

	// Covariance accumulation: disjoint bin blocks touch disjoint
	// matrices, so each set shards across its stage's workers.
	accumulate := func(clk *stageClock, acc *stap.CovAccumulator, bins []int, workers int) error {
		t := time.Now()
		err := parallel(workers, len(bins), func(_ int, blk cube.Block) error {
			return acc.AddBand(dop, lo, blk)
		})
		clk.add(time.Since(t))
		return err
	}
	if err := accumulate(b.ck.we, b.accEasy, b.easyBins, workersOf(b.cfg.Workers.EasyWeight)); err != nil {
		return fmt.Errorf("pipexec: banded easy covariances CPI %d: %w", seq, err)
	}
	if err := accumulate(b.ck.wh, b.accHard, b.hardBins, workersOf(b.cfg.Workers.HardWeight)); err != nil {
		return fmt.Errorf("pipexec: banded hard covariances CPI %d: %w", seq, err)
	}

	// Beamform the band with the previous CPI's weights; easy and hard
	// fill disjoint bins of the shared beam cube.
	beamform := func(clk *stageClock, ws *stap.WeightSet, bins []int, workers int) error {
		t := time.Now()
		err := parallel(workers, len(bins), func(_ int, blk cube.Block) error {
			return stap.BeamformBand(p, dop, ws, bins[blk.Lo:blk.Hi], lo, b.bc)
		})
		clk.add(time.Since(t))
		return err
	}
	if err := beamform(b.ck.bfe, b.wEasy, b.easyBins, workersOf(b.cfg.Workers.EasyBF)); err != nil {
		return fmt.Errorf("pipexec: banded easy beamform CPI %d: %w", seq, err)
	}
	if err := beamform(b.ck.bfh, b.wHard, b.hardBins, workersOf(b.cfg.Workers.HardBF)); err != nil {
		return fmt.Errorf("pipexec: banded hard beamform CPI %d: %w", seq, err)
	}
	return nil
}

// solve finishes one bin set's covariance accumulation, smooths, and
// solves the weights into ws — the banded counterpart of the pipeline's
// solveWeightSet, sharded the same way.
func (b *bandedRun) solve(clk *stageClock, acc *stap.CovAccumulator, sm *stap.CovarianceSmoother, s *stap.WeightSolver, ws *stap.WeightSet, seq uint64, workers int) error {
	t0 := time.Now()
	defer func() { clk.add(time.Since(t0)) }()
	hard := s == b.solvHard
	est, err := acc.Finish()
	if err != nil {
		return fmt.Errorf("pipexec: banded %s covariances CPI %d: %w", setName(hard), seq, err)
	}
	covs := sm.Update(est)
	s.Grow(workers)
	err = parallel(workers, len(s.Bins()), func(widx int, blk cube.Block) error {
		return s.Solve(widx, covs, blk, ws)
	})
	if err != nil {
		return fmt.Errorf("pipexec: banded %s weights CPI %d: %w", setName(hard), seq, err)
	}
	ws.Seq = seq
	// The solve copies the covariances it factors, and with smoothing the
	// smoother holds its own copies — resetting the accumulator for the
	// next CPI is safe in both lambda regimes.
	acc.Reset()
	return nil
}

// bandedCFAR mirrors the pipeline's runCFAR exactly — same worker-block
// partition, same merge order, same sort — so detections stay
// byte-identical across executors.
func bandedCFAR(p *stap.Params, bc *stap.BeamCube, st *cfarState, workers int) ([]stap.Detection, error) {
	err := parallel(workers, workers, func(_ int, wblk cube.Block) error {
		for w := wblk.Lo; w < wblk.Hi; w++ {
			blk := st.blocks[w]
			dets, err := stap.CFARWithScratch(p, p.CFAR.Kind, bc, st.pairs[blk.Lo:blk.Hi], st.scratch[w])
			if err != nil {
				return err
			}
			st.partial[w] = dets
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var all []stap.Detection
	for w, d := range st.partial {
		all = append(all, d...)
		st.partial[w] = nil
	}
	stap.SortDetections(all)
	return all, nil
}

// ---- chunk-granular banded reads from the striped store ----

// ReadBand implements BandedSource over the dataset's staging files: it
// reads only the chunks overlapping the requested range band — each
// (channel, pulse) row contributes one contiguous byte span — verifies
// their CRCs, repairs corrupt chunks with individual re-reads, and decodes
// the in-band samples straight into the band slab. The whole-file image is
// never materialised; per-call I/O is O(band) plus chunk-alignment waste.
func (s *FileSource) ReadBand(seq uint64, lo, hi int, dst *cube.Cube) error {
	d := s.Dims
	if dst.Dims.Channels != d.Channels || dst.Dims.Pulses != d.Pulses || dst.Dims.Ranges != hi-lo {
		return fmt.Errorf("pipexec: band slab %v does not hold [%d,%d) of %v", dst.Dims, lo, hi, d)
	}
	if lo < 0 || hi > d.Ranges || lo >= hi {
		return fmt.Errorf("pipexec: band [%d,%d) outside range extent %d", lo, hi, d.Ranges)
	}
	name := radar.FileName(radar.FileFor(seq, s.Files))
	h, err := s.bandHeader(name)
	if err != nil {
		return err
	}
	// Mark the chunks the band's row spans touch. Rows are range-minor:
	// row (c,p) holds samples [row*Ranges, (row+1)*Ranges), of which the
	// band needs [row*Ranges+lo, row*Ranges+hi).
	need := make([]bool, h.Chunks())
	rows := d.Channels * d.Pulses
	for row := 0; row < rows; row++ {
		bLo := int64(row*d.Ranges+lo) * 8
		bHi := int64(row*d.Ranges+hi) * 8
		for c := int(bLo / int64(h.ChunkSize)); int64(c)*int64(h.ChunkSize) < bHi && c < len(need); c++ {
			need[c] = true
		}
	}
	tag := int(seq) << 8
	var buf []byte
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
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
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

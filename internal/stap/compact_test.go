package stap

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"stapio/internal/cube"
	"stapio/internal/linalg"
)

// fullDopplerCube is the Doppler layout as it stood before the compact
// one: every (bin, gate) stores the full K*C snapshot, easy bins
// included — Data[((bin*Ranges)+r)*SnapLen + k].
type fullDopplerCube struct {
	Ranges, SnapLen int
	Data            []complex128
}

func newFullDopplerCube(p *Params) *fullDopplerCube {
	sl := p.StaggerCount() * p.Dims.Channels
	return &fullDopplerCube{Ranges: p.Dims.Ranges, SnapLen: sl, Data: make([]complex128, p.Bins()*p.Dims.Ranges*sl)}
}

func (fc *fullDopplerCube) Snapshot(d, r int) []complex128 {
	off := (d*fc.Ranges + r) * fc.SnapLen
	return fc.Data[off : off+fc.SnapLen]
}

// refFullDopplerBody is the full-stride Doppler body over the whole
// range extent: the same batched windowed transforms (through sc's plan,
// window and buffers), staged in a full-stride bin-major tile and flushed
// one contiguous run per bin.
func refFullDopplerBody(p *Params, cb *cube.Cube, out *fullDopplerCube, sc *DopplerScratch) {
	l := p.Bins()
	c := p.Dims.Channels
	sl := out.SnapLen
	rt := max(1, min(dopplerTileBudget/(l*sl*16), 8))
	tile := make([]complex128, l*rt*sl)
	for r0 := 0; r0 < out.Ranges; r0 += rt {
		n := min(rt, out.Ranges-r0)
		for ri := 0; ri < n; ri++ {
			for ch := 0; ch < c; ch++ {
				cb.PulseColumn(ch, r0+ri, sc.cols[ch])
			}
			sc.plan.ForwardWindowedMany(sc.srcs, sc.win, sc.bufs)
			for d := 0; d < l; d++ {
				row := tile[(d*rt+ri)*sl : (d*rt+ri+1)*sl]
				for k, buf := range sc.bufs {
					row[k] = buf[d]
				}
			}
		}
		for d := 0; d < l; d++ {
			src := tile[d*rt*sl : (d*rt+n)*sl]
			dst := out.Data[(d*out.Ranges+r0)*sl:]
			copy(dst[:len(src)], src)
		}
	}
}

// refFullBeamform is the full-stride beamformBin over every listed bin:
// the bin's panel strides SnapLen and the kernels read its first DoF(d)
// values per gate.
func refFullBeamform(p *Params, fc *fullDopplerCube, ws *WeightSet, bins []int, out *BeamCube) {
	sl := fc.SnapLen
	stride := out.Bins * out.Ranges
	n := fc.Ranges
	for _, d := range bins {
		perBeam := ws.For(d)
		dof := p.DoF(d)
		panel := fc.Data[d*fc.Ranges*sl : (d+1)*fc.Ranges*sl]
		dOff := d * out.Ranges
		for b := 0; b < len(perBeam); b += 3 {
			o := dOff + b*stride
			switch len(perBeam) - b {
			case 1:
				linalg.ConjDotPanel1(panel, sl, dof, n, perBeam[b], out.Data[o:o+n])
			case 2:
				linalg.ConjDotPanel2(panel, sl, dof, n, perBeam[b], perBeam[b+1],
					out.Data[o:o+n], out.Data[o+stride:o+stride+n])
			default:
				linalg.ConjDotPanel3(panel, sl, dof, n, perBeam[b], perBeam[b+1], perBeam[b+2],
					out.Data[o:o+n], out.Data[o+stride:o+stride+n], out.Data[o+2*stride:o+2*stride+n])
			}
		}
	}
}

func randWeights(rng *rand.Rand, p *Params, bins []int) *WeightSet {
	ws := NewWeightSet(p, bins)
	for _, perBeam := range ws.W {
		for _, w := range perBeam {
			for k := range w {
				w[k] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
	}
	return ws
}

func sameValues(got, want []complex128) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func sameMatrices(t *testing.T, what string, got, want []*linalg.Matrix) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matrices, want %d", what, len(got), len(want))
	}
	for i := range want {
		for k := range want[i].Data {
			if got[i].Data[k] != want[i].Data[k] {
				t.Fatalf("%s: matrix %d element %d = %v, want %v", what, i, k, got[i].Data[k], want[i].Data[k])
			}
		}
	}
}

func sameBeams(t *testing.T, what string, got, want *BeamCube) {
	t.Helper()
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: beam sample %d = %v, want %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestCompactDopplerMatchesFullLayout holds the compact Doppler layout
// to the full-stride one it replaced: every stored snapshot, and every
// beamforming and covariance output computed from the cube, full or in
// band slabs, must be bit-identical to the same computation over the
// full layout — across stagger counts, clutter notches (0.5 makes every
// bin hard, so the layouts coincide), Bluestein and power-of-two bin
// counts, and band sizes.
func TestCompactDopplerMatchesFullLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, k := range []int{1, 2, 3} {
		for _, notch := range []float64{0, 0.1, 0.5} {
			for _, bins := range []int{8, 11, 15, 16} {
				c := 1 + rng.Intn(5)
				dims := cube.Dims{Channels: c, Pulses: bins + k - 1, Ranges: 24 + rng.Intn(41)}
				p := DefaultParams(dims)
				p.Staggers = k
				p.ClutterNotch = notch
				p.TrainEasy = min(p.TrainEasy, dims.Ranges)
				p.TrainHard = min(p.TrainHard, dims.Ranges)
				p.Beams = []float64{-0.5, 0, 0.5, 0.25}[:1+rng.Intn(4)]
				if err := p.Validate(); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("K%d/notch%g/L%d/%v/beams%d", k, notch, bins, dims, len(p.Beams))
				t.Run(name, func(t *testing.T) { checkCompactMatchesFull(t, rng, &p) })
			}
		}
	}
}

func checkCompactMatchesFull(t *testing.T, rng *rand.Rand, p *Params) {
	cb := randCube(rng, p.Dims)
	full := newFullDopplerCube(p)
	refFullDopplerBody(p, cb, full, NewDopplerScratch(p))
	dc, err := DopplerFilter(p, cb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int64(len(dc.Data))*16, DopplerBytes(p, p.Dims.Ranges); got != want {
		t.Fatalf("cube holds %d B, DopplerBytes says %d", got, want)
	}
	for d := 0; d < p.Bins(); d++ {
		for r := 0; r < p.Dims.Ranges; r++ {
			if got, want := dc.Snapshot(d, r), full.Snapshot(d, r)[:p.DoF(d)]; !sameValues(got, want) {
				t.Fatalf("bin %d gate %d: snapshot %v, want %v", d, r, got, want)
			}
		}
	}

	type set struct {
		bins []int
		hard bool
		ws   *WeightSet
		want []*linalg.Matrix
	}
	var sets []set
	for _, hard := range []bool{false, true} {
		bins := p.EasyBins()
		if hard {
			bins = p.HardBins()
		}
		if len(bins) == 0 {
			continue
		}
		s := set{bins: bins, hard: hard, ws: randWeights(rng, p, bins), want: refEstimateCovariances(p, full, bins, hard)}
		covs, err := EstimateCovariances(p, dc, bins, hard)
		if err != nil {
			t.Fatal(err)
		}
		sameMatrices(t, fmt.Sprintf("EstimateCovariances(hard=%v)", hard), covs, s.want)
		sets = append(sets, s)
	}

	want := NewBeamCube(p)
	got := NewBeamCube(p)
	for _, s := range sets {
		refFullBeamform(p, full, s.ws, s.bins, want)
		if err := Beamform(p, dc, s.ws, s.bins, got); err != nil {
			t.Fatal(err)
		}
	}
	sameBeams(t, "Beamform", got, want)

	sc := NewDopplerScratch(p)
	for _, band := range []int{1, 7, p.Dims.Ranges} {
		accs := make([]*CovAccumulator, len(sets))
		for i, s := range sets {
			if accs[i], err = NewCovAccumulator(p, s.bins, s.hard); err != nil {
				t.Fatal(err)
			}
		}
		banded := NewBeamCube(p)
		for lo := 0; lo < p.Dims.Ranges; lo += band {
			hi := min(lo+band, p.Dims.Ranges)
			slab := cube.New(cube.Dims{Channels: p.Dims.Channels, Pulses: p.Dims.Pulses, Ranges: hi - lo})
			if err := CopyBand(slab, cb, lo); err != nil {
				t.Fatal(err)
			}
			out := NewDopplerCubeBand(p, hi-lo)
			if err := DopplerFilterBand(p, slab, cube.Block{Lo: 0, Hi: hi - lo}, out, sc); err != nil {
				t.Fatal(err)
			}
			for d := 0; d < p.Bins(); d++ {
				for r := lo; r < hi; r++ {
					if !sameValues(out.Snapshot(d, r-lo), full.Snapshot(d, r)[:p.DoF(d)]) {
						t.Fatalf("band %d: bin %d gate %d snapshot differs from the full layout", band, d, r)
					}
				}
			}
			for i, s := range sets {
				if err := accs[i].AddBand(out, lo, cube.Block{Lo: 0, Hi: len(s.bins)}); err != nil {
					t.Fatal(err)
				}
				if err := BeamformBand(p, out, s.ws, s.bins, lo, banded); err != nil {
					t.Fatal(err)
				}
			}
		}
		sameBeams(t, fmt.Sprintf("BeamformBand(band %d)", band), banded, want)
		for i, s := range sets {
			covs, err := accs[i].Finish()
			if err != nil {
				t.Fatal(err)
			}
			sameMatrices(t, fmt.Sprintf("CovAccumulator(band %d, hard=%v)", band, s.hard), covs, s.want)
		}
	}
}

// TestDopplerCubeAtMissingStaggerPanics: an easy bin stores stagger 0
// only, so asking it for stagger 1 must panic with a message naming the
// bin and stagger rather than read the neighbouring snapshot.
func TestDopplerCubeAtMissingStaggerPanics(t *testing.T) {
	p := DefaultParams(testDims())
	easy := p.EasyBins()[0]
	dc := NewDopplerCube(&p)
	_ = dc.At(p.HardBins()[0], 1, 0, 0) // hard bins store stagger 1
	defer func() {
		msg := fmt.Sprint(recover())
		want := fmt.Sprintf("bin %d", easy)
		if !strings.Contains(msg, want) || !strings.Contains(msg, "stagger 1") {
			t.Fatalf("At(easy bin, stagger 1) panic = %q, want one naming %q and stagger 1", msg, want)
		}
	}()
	_ = dc.At(easy, 1, 0, 0)
}

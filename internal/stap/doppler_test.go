package stap

import (
	"math"
	"math/cmplx"
	"testing"

	"stapio/internal/cube"
	"stapio/internal/radar"
	"stapio/internal/signal"
)

// toneCube builds a cube containing a single space-time tone at angle u,
// Doppler fd, constant over all range gates.
func toneCube(d cube.Dims, u, fd float64) *cube.Cube {
	cb := cube.New(d)
	sp := signal.SteeringVector(d.Channels, u)
	tm := signal.DopplerSteeringVector(d.Pulses, fd)
	for c := 0; c < d.Channels; c++ {
		for p := 0; p < d.Pulses; p++ {
			v := complex64(sp[c] * tm[p])
			row := cb.PulseRow(c, p)
			for r := range row {
				row[r] = v
			}
		}
	}
	return cb
}

func TestDopplerFilterTonePeaksAtBin(t *testing.T) {
	p := DefaultParams(testDims())
	p.Window = signal.WindowRect
	// Bin 1 lies inside the clutter notch, so it is hard and stores both
	// staggers.
	const bin = 1
	if !p.IsHard(bin) {
		t.Fatalf("bin %d is easy; the stagger check needs a hard bin", bin)
	}
	fd := p.BinDoppler(bin) // exactly on the bin
	cb := toneCube(p.Dims, 0, fd)
	dc, err := DopplerFilter(&p, cb, 9)
	if err != nil {
		t.Fatal(err)
	}
	if dc.Seq != 9 {
		t.Errorf("Seq = %d, want 9", dc.Seq)
	}
	// Energy at (bin, stagger 0, ch 0) must be L; other bins ~0.
	l := p.Bins()
	for d := 0; d < l; d++ {
		a := cmplx.Abs(dc.At(d, 0, 0, 10))
		if d == bin {
			if math.Abs(a-float64(l)) > 1e-6 {
				t.Errorf("on-bin magnitude %g, want %d", a, l)
			}
		} else if a > 1e-6 {
			t.Errorf("off-bin %d magnitude %g, want 0", d, a)
		}
	}
	// Stagger phase relation: stagger1 = stagger0 * e^{i 2 pi fd} for an
	// on-bin tone.
	rot := cmplx.Exp(complex(0, 2*math.Pi*fd))
	for c := 0; c < p.Dims.Channels; c++ {
		s0 := dc.At(bin, 0, c, 3)
		s1 := dc.At(bin, 1, c, 3)
		if cmplx.Abs(s1-s0*rot) > 1e-6 {
			t.Errorf("stagger phase mismatch at channel %d: %v vs %v", c, s1, s0*rot)
		}
	}
}

func TestDopplerFilterSpatialPhasePreserved(t *testing.T) {
	p := DefaultParams(testDims())
	p.Window = signal.WindowRect
	u := 0.5
	cb := toneCube(p.Dims, u, p.BinDoppler(2))
	dc, err := DopplerFilter(&p, cb, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp := signal.SteeringVector(p.Dims.Channels, u)
	base := dc.At(2, 0, 0, 0)
	for c := 1; c < p.Dims.Channels; c++ {
		want := base * sp[c] / sp[0]
		if cmplx.Abs(dc.At(2, 0, c, 0)-want) > 1e-6 {
			t.Errorf("spatial phase broken at channel %d", c)
		}
	}
}

func TestDopplerFilterRangesBlocksCompose(t *testing.T) {
	// Filtering two half-blocks must equal filtering the whole extent.
	s := radar.SmallTestScenario()
	cb, err := s.Generate(0)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(s.Dims)
	whole, err := DopplerFilter(&p, cb, 0)
	if err != nil {
		t.Fatal(err)
	}
	parts := NewDopplerCube(&p)
	sc := NewDopplerScratch(&p)
	for _, blk := range cube.Split(p.Dims.Ranges, 3) {
		if err := DopplerFilterRanges(&p, cb, blk, parts, sc); err != nil {
			t.Fatal(err)
		}
	}
	for i := range whole.Data {
		if cmplx.Abs(whole.Data[i]-parts.Data[i]) > 1e-9 {
			t.Fatalf("block composition differs at %d", i)
		}
	}
}

func TestDopplerFilterErrors(t *testing.T) {
	p := DefaultParams(testDims())
	wrong := cube.New(cube.Dims{Channels: 2, Pulses: 4, Ranges: 8})
	if _, err := DopplerFilter(&p, wrong, 0); err == nil {
		t.Error("expected dims mismatch error")
	}
	cb := cube.New(p.Dims)
	out := NewDopplerCube(&p)
	if err := DopplerFilterRanges(&p, cb, cube.Block{Lo: -1, Hi: 4}, out, nil); err == nil {
		t.Error("expected block range error")
	}
	if err := DopplerFilterRanges(&p, cb, cube.Block{Lo: 0, Hi: p.Dims.Ranges + 1}, out, nil); err == nil {
		t.Error("expected block range error (hi)")
	}
	wrongScratch := NewDopplerScratch(&p)
	bigger := p
	bigger.Staggers = p.StaggerCount() + 1
	if err := DopplerFilterRanges(&bigger, cube.New(bigger.Dims), cube.Block{Lo: 0, Hi: 1}, NewDopplerCube(&bigger), wrongScratch); err == nil {
		t.Error("expected scratch geometry error")
	}
}

package stap

import (
	"math"
	"math/cmplx"
	"testing"

	"stapio/internal/cube"
	"stapio/internal/radar"
	"stapio/internal/signal"
)

func TestStaggerCountDefaults(t *testing.T) {
	p := DefaultParams(testDims())
	if p.StaggerCount() != DefaultStaggers {
		t.Errorf("zero Staggers should default to %d", DefaultStaggers)
	}
	p.Staggers = 3
	if p.StaggerCount() != 3 {
		t.Errorf("StaggerCount = %d, want 3", p.StaggerCount())
	}
	if p.Bins() != p.Dims.Pulses-2 {
		t.Errorf("Bins = %d, want P-K+1 = %d", p.Bins(), p.Dims.Pulses-2)
	}
	p.Staggers = -1
	if err := p.Validate(); err == nil {
		t.Error("negative staggers should fail validation")
	}
	p.Staggers = p.Dims.Pulses
	if err := p.Validate(); err == nil {
		t.Error("staggers >= pulses should fail validation")
	}
}

func TestThreeStaggerSteeringPhases(t *testing.T) {
	p := DefaultParams(testDims())
	p.Staggers = 3
	hard := p.HardBins()
	d := hard[0]
	c := p.Dims.Channels
	s := p.Steering(0.3, d)
	if len(s) != 3*c {
		t.Fatalf("steering len %d, want %d", len(s), 3*c)
	}
	rot := cmplx.Exp(complex(0, 2*math.Pi*p.BinDoppler(d)))
	for st := 1; st < 3; st++ {
		for i := 0; i < c; i++ {
			want := s[(st-1)*c+i] * rot
			if cmplx.Abs(s[st*c+i]-want) > 1e-12 {
				t.Fatalf("stagger %d element %d: phase progression broken", st, i)
			}
		}
	}
}

func TestThreeStaggerDopplerFilter(t *testing.T) {
	// An on-bin tone must produce stagger outputs related by e^{i 2 pi fd}
	// between consecutive staggers, for all three.
	p := DefaultParams(testDims())
	p.Staggers = 3
	p.Window = signal.WindowRect
	// Bin 1 is hard (inside the clutter notch), so it stores all three
	// staggers; the easy bin 3 stores stagger 0 only.
	const hard, easy = 1, 3
	if !p.IsHard(hard) || p.IsHard(easy) {
		t.Fatalf("bin %d must be hard and bin %d easy", hard, easy)
	}
	fd := p.BinDoppler(hard)
	cb := toneCube(p.Dims, 0, fd)
	dc, err := DopplerFilter(&p, cb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(dc.Snapshot(hard, 7)); n != 3*p.Dims.Channels {
		t.Fatalf("hard snapshot length %d, want %d", n, 3*p.Dims.Channels)
	}
	if n := len(dc.Snapshot(easy, 7)); n != p.Dims.Channels {
		t.Fatalf("easy snapshot length %d, want %d", n, p.Dims.Channels)
	}
	rot := cmplx.Exp(complex(0, 2*math.Pi*fd))
	for st := 1; st < 3; st++ {
		prev := dc.At(hard, st-1, 0, 7)
		curr := dc.At(hard, st, 0, 7)
		if cmplx.Abs(curr-prev*rot) > 1e-6 {
			t.Errorf("stagger %d phase relation broken: %v vs %v", st, curr, prev*rot)
		}
	}
}

func TestThreeStaggerEndToEnd(t *testing.T) {
	// The full chain still detects targets with K=3.
	dims := cube.Dims{Channels: 4, Pulses: 18, Ranges: 64}
	s := &radar.Scenario{
		Dims:       dims,
		PulseLen:   8,
		Bandwidth:  0.8,
		NoisePower: 1,
		Targets:    []radar.Target{{Angle: 0, Doppler: 0.25, Range: 20, SNR: 12}},
		Seed:       5,
	}
	p := DefaultParams(dims)
	p.Staggers = 3
	p.PulseLen = s.PulseLen
	p.Bandwidth = s.Bandwidth
	pr, err := NewProcessor(p)
	if err != nil {
		t.Fatal(err)
	}
	var dets []Detection
	for seq := uint64(0); seq < 2; seq++ {
		cb, err := s.Generate(seq)
		if err != nil {
			t.Fatal(err)
		}
		dets, err = pr.Process(cb, seq)
		if err != nil {
			t.Fatal(err)
		}
	}
	dets = ClusterDetections(dets, 3)
	wantBin := p.BinForDoppler(0.25)
	found := false
	for _, d := range dets {
		if d.Beam == 1 && absInt(d.Bin-wantBin) <= 1 && absInt(d.Range-20) <= 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("3-stagger chain missed the target; %d detections", len(dets))
	}
}

func TestMoreStaggersImproveHardBinSuppression(t *testing.T) {
	// More staggers give the hard bins more adaptive DoF; against a rank-
	// limited clutter ridge the residual output power should not get
	// worse, and typically improves.
	s := radar.SmallTestScenario()
	s.Dims = cube.Dims{Channels: 4, Pulses: 34, Ranges: 96}
	s.Targets = nil
	s.Clutter = radar.Clutter{Patches: 16, CNR: 40, Beta: 1}
	cb, err := s.Generate(0)
	if err != nil {
		t.Fatal(err)
	}
	suppression := func(k int) float64 {
		p := DefaultParams(s.Dims)
		p.Staggers = k
		p.TrainHard = 80
		dc, err := DopplerFilter(&p, cb, 0)
		if err != nil {
			t.Fatal(err)
		}
		hard := p.HardBins()
		ws, err := ComputeWeights(&p, dc, hard, true)
		if err != nil {
			t.Fatal(err)
		}
		gain, err := SINRImprovement(&p, dc, ws, hard)
		if err != nil {
			t.Fatal(err)
		}
		return gain
	}
	g2 := suppression(2)
	g3 := suppression(3)
	t.Logf("clutter suppression: K=2 %.1f dB, K=3 %.1f dB", g2, g3)
	if g3 < g2-1.5 {
		t.Errorf("3 staggers (%.1f dB) much worse than 2 (%.1f dB)", g3, g2)
	}
	if g2 < 3 {
		t.Errorf("2-stagger suppression %.1f dB implausibly low", g2)
	}
}

func TestWorkloadScalesWithStaggers(t *testing.T) {
	base := DefaultParams(cube.Dims{Channels: 8, Pulses: 64, Ranges: 256})
	w2 := ComputeWorkloads(&base)
	k3 := base
	k3.Staggers = 3
	w3 := ComputeWorkloads(&k3)
	// Doppler and hard-weight work must grow with staggers.
	if w3.Flops[0] <= w2.Flops[0] {
		t.Error("Doppler workload should grow with staggers")
	}
	if w3.Flops[2] <= w2.Flops[2] {
		t.Error("hard-weight workload should grow with staggers")
	}
	// Easy-side work is stagger-independent (up to the small change in
	// bin count).
	if math.Abs(w3.Flops[3]-w2.Flops[3]) > 0.1*w2.Flops[3] {
		t.Error("easy beamforming workload should be nearly unchanged")
	}
}

package pfs

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stapio/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	for _, c := range []Config{ParagonPFS(16), ParagonPFS(64), PIOFS()} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
	bad := []Config{
		{Name: "a", StripeDirs: 0, StripeUnit: 1, ServerBandwidth: 1},
		{Name: "b", StripeDirs: 1, StripeUnit: 0, ServerBandwidth: 1},
		{Name: "c", StripeDirs: 1, StripeUnit: 1, ServerBandwidth: 0},
		{Name: "d", StripeDirs: 1, StripeUnit: 1, ServerBandwidth: 1, ServerLatency: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.Name)
		}
	}
}

func TestPaperConfigurations(t *testing.T) {
	// Reconstructed paper setup: 64 KB stripe unit everywhere; Paragon PFS
	// async, PIOFS sync with 80 slices.
	if u := ParagonPFS(16).StripeUnit; u != 64<<10 {
		t.Errorf("stripe unit = %d, want 64 KiB", u)
	}
	if !ParagonPFS(64).Async {
		t.Error("Paragon PFS must support async reads")
	}
	p := PIOFS()
	if p.Async {
		t.Error("PIOFS must not support async reads")
	}
	if p.StripeDirs != 80 {
		t.Errorf("PIOFS slices = %d, want 80", p.StripeDirs)
	}
	// A 16 MiB CPI file spans 256 units: evenly divisible across 16 and
	// 64 stripe dirs.
	units := ParagonPFS(16).UnitsFor(16 << 20)
	if units != 256 {
		t.Errorf("16 MiB = %d units, want 256", units)
	}
}

func TestUnitSpanAndServer(t *testing.T) {
	c := Config{Name: "t", StripeDirs: 4, StripeUnit: 100, ServerBandwidth: 1}
	first, count := c.unitSpan(250, 300) // bytes 250..549 -> units 2..5
	if first != 2 || count != 4 {
		t.Errorf("unitSpan = (%d,%d), want (2,4)", first, count)
	}
	if _, count := c.unitSpan(0, 0); count != 0 {
		t.Errorf("empty span count = %d", count)
	}
	for u := 0; u < 8; u++ {
		if got := c.ServerFor(u); got != u%4 {
			t.Errorf("ServerFor(%d) = %d", u, got)
		}
	}
}

func TestEstimateReadTimeScalesWithStripeFactor(t *testing.T) {
	fileBytes := int64(16 << 20)
	t16 := ParagonPFS(16).EstimateReadTime(0, fileBytes)
	t64 := ParagonPFS(64).EstimateReadTime(0, fileBytes)
	if t64 >= t16 {
		t.Errorf("stripe factor 64 read %.3fs not faster than 16 %.3fs", t64, t16)
	}
	// 256 units over 16 dirs = 16 units/server; over 64 dirs = 4:
	// exactly 4x fewer, so the estimate must be exactly 4x smaller.
	if math.Abs(t16/t64-4) > 1e-9 {
		t.Errorf("expected exact 4x ratio, got %v", t16/t64)
	}
	if ParagonPFS(16).EstimateReadTime(0, 0) != 0 {
		t.Error("empty read estimate should be 0")
	}
}

func TestModelReadMatchesEstimate(t *testing.T) {
	// A single uncontended read in the DES must complete in exactly the
	// analytic estimate.
	for _, cfg := range []Config{ParagonPFS(16), ParagonPFS(64), PIOFS()} {
		var eng sim.Engine
		m, err := NewModel(&eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fileBytes := int64(16<<20) + 32
		var completed float64 = -1
		m.Read(0, fileBytes, func() { completed = eng.Now() })
		eng.Run()
		want := cfg.EstimateReadTime(0, fileBytes)
		if math.Abs(completed-want) > 1e-9 {
			t.Errorf("%s: DES read %.6fs, estimate %.6fs", cfg.Name, completed, want)
		}
		if m.Reads() != 1 || m.BytesRead() != fileBytes {
			t.Errorf("%s: stats reads=%d bytes=%d", cfg.Name, m.Reads(), m.BytesRead())
		}
		if u := m.BusiestUtilization(completed); u <= 0 || u > 1+1e-9 {
			t.Errorf("%s: utilization %v outside (0,1]", cfg.Name, u)
		}
	}
}

func TestModelContention(t *testing.T) {
	// Two concurrent full-file reads must take about twice as long as one
	// (every server serves twice the units).
	cfg := ParagonPFS(16)
	var eng sim.Engine
	m, err := NewModel(&eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fileBytes := int64(16 << 20)
	var t1, t2 float64
	m.Read(0, fileBytes, func() { t1 = eng.Now() })
	m.Read(0, fileBytes, func() { t2 = eng.Now() })
	eng.Run()
	single := cfg.EstimateReadTime(0, fileBytes)
	last := math.Max(t1, t2)
	if last < 1.9*single || last > 2.1*single {
		t.Errorf("two concurrent reads finished at %.3fs, want ~%.3fs", last, 2*single)
	}
	if m.BusiestUtilization(last) < 0.99 {
		t.Errorf("servers should be saturated, got %v", m.BusiestUtilization(last))
	}
}

func TestModelEmptyRead(t *testing.T) {
	var eng sim.Engine
	m, err := NewModel(&eng, ParagonPFS(16))
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	m.Read(0, 0, func() { fired = true })
	eng.Run()
	if !fired {
		t.Error("empty read completion did not fire")
	}
}

func TestNewModelRejectsBadConfig(t *testing.T) {
	var eng sim.Engine
	if _, err := NewModel(&eng, Config{Name: "bad"}); err == nil {
		t.Error("expected config error")
	}
}

func TestRealFSRoundTrip(t *testing.T) {
	fs, err := CreateReal(t.TempDir(), 4, 128, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 1000) // 7.8 units -> uneven tail
	rng.Read(data)
	if err := fs.WriteFile("a.dat", data); err != nil {
		t.Fatal(err)
	}
	size, err := fs.FileSize("a.dat")
	if err != nil {
		t.Fatal(err)
	}
	if size != 1000 {
		t.Errorf("FileSize = %d, want 1000", size)
	}
	// Full read.
	buf := make([]byte, 1000)
	if err := fs.ReadAt("a.dat", 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Error("full read mismatch")
	}
	// Partial, unaligned reads.
	for _, span := range []struct{ off, n int64 }{{0, 1}, {127, 2}, {100, 500}, {990, 10}, {383, 129}} {
		b := make([]byte, span.n)
		if err := fs.ReadAt("a.dat", span.off, b); err != nil {
			t.Fatalf("ReadAt(%d,%d): %v", span.off, span.n, err)
		}
		if !bytes.Equal(b, data[span.off:span.off+span.n]) {
			t.Errorf("ReadAt(%d,%d) mismatch", span.off, span.n)
		}
	}
}

func TestRealFSReadProperty(t *testing.T) {
	fs, err := CreateReal(t.TempDir(), 3, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	data := make([]byte, 777)
	rng.Read(data)
	if err := fs.WriteFile("p.dat", data); err != nil {
		t.Fatal(err)
	}
	f := func(offRaw, nRaw uint16) bool {
		off := int64(offRaw) % 777
		n := int64(nRaw) % (777 - off)
		if n == 0 {
			return true
		}
		b := make([]byte, n)
		if err := fs.ReadAt("p.dat", off, b); err != nil {
			return false
		}
		return bytes.Equal(b, data[off:off+n])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// A fan-out read decomposes into per-directory runs without materialising
// them, reads through sub-file handles opened once, and launches its
// per-directory goroutines from a pooled request, so a warm read allocates
// nothing however many stripe units it spans. ProbeAt serves the same
// bytes without fan-out.
func TestRealFSReadAllocsIndependentOfUnits(t *testing.T) {
	fs, err := CreateReal(t.TempDir(), 4, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	data := make([]byte, 64*256)
	rand.New(rand.NewSource(9)).Read(data)
	if err := fs.WriteFile("a.dat", data); err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		buf := make([]byte, n)
		return testing.AllocsPerRun(20, func() {
			if err := fs.ReadAt("a.dat", 32, buf); err != nil {
				t.Fatal(err)
			}
		})
	}
	// 4 units vs 255 units, both touching all four directories.
	small, large := allocs(4*64), allocs(255*64)
	if large > small {
		t.Errorf("ReadAt over 255 units allocated %v times, over 4 units %v: per-unit allocation", large, small)
	}
	if !raceEnabled && (small != 0 || large != 0) {
		t.Errorf("warm ReadAt allocated %v times over 4 units, %v over 255; want 0", small, large)
	}
	probe := make([]byte, len(data)-100)
	if err := fs.ProbeAt("a.dat", 100, probe); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(probe, data[100:]) {
		t.Error("ProbeAt returned different bytes than were written")
	}
}

func TestRealFSOverwriteShrinks(t *testing.T) {
	fs, err := CreateReal(t.TempDir(), 4, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 64*8) // 8 units, 2 per dir
	for i := range big {
		big[i] = byte(i)
	}
	if err := fs.WriteFile("f", big); err != nil {
		t.Fatal(err)
	}
	small := []byte{1, 2, 3}
	if err := fs.WriteFile("f", small); err != nil {
		t.Fatal(err)
	}
	size, err := fs.FileSize("f")
	if err != nil {
		t.Fatal(err)
	}
	if size != 3 {
		t.Errorf("after shrink FileSize = %d, want 3", size)
	}
	buf := make([]byte, 3)
	if err := fs.ReadAt("f", 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, small) {
		t.Error("shrunken file content mismatch")
	}
}

func TestRealFSErrors(t *testing.T) {
	if _, err := CreateReal(t.TempDir(), 0, 64, true); err == nil {
		t.Error("expected geometry error")
	}
	fs, err := CreateReal(t.TempDir(), 2, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.FileSize("missing"); err == nil {
		t.Error("expected missing-file error")
	}
	buf := make([]byte, 10)
	if err := fs.ReadAt("missing", 0, buf); err == nil {
		t.Error("expected read error for missing file")
	}
	if fs.StripeDirs() != 2 || fs.StripeUnit() != 64 || !fs.Async() {
		t.Error("accessor mismatch")
	}
}

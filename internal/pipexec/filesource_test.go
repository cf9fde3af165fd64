package pipexec

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"stapio/internal/cube"
	"stapio/internal/pfs"
	"stapio/internal/radar"
)

// fileSourceOn writes a small four-file dataset to a fresh striped store
// and opens a FileSource over it.
func fileSourceOn(t *testing.T, async bool, chunk int) (*FileSource, *pfs.RealFS, *radar.Scenario) {
	t.Helper()
	s := radar.SmallTestScenario()
	fs, err := pfs.CreateReal(t.TempDir(), 4, 4096, async)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	if _, err := radar.WriteDatasetChunked(fs, s, 4, 4, false, chunk); err != nil {
		t.Fatal(err)
	}
	src, err := NewFileSource(fs, s.Dims, 4)
	if err != nil {
		t.Fatal(err)
	}
	return src, fs, s
}

// Begin is the paper's iread(): on an async store it returns at once and
// the striped read lands in the fetch goroutine; on a sync-only store
// (PIOFS semantics) the read lands before Begin returns. A latency spike
// on every stripe read makes the difference visible, for a whole cube and
// for a band through RunBanded's adapter alike, and both stores deliver
// the same samples.
func TestFileSourceBeginSyncAsync(t *testing.T) {
	const delay = 200 * time.Millisecond
	const band = 16
	var got [2][2]*cube.Cube // [store][whole cube, band 2 of CPI 1]
	var d cube.Dims
	for i, async := range []bool{false, true} {
		src, fs, s := fileSourceOn(t, async, cube.DefaultChunkSize)
		d = s.Dims
		fs.SetFaults(&pfs.FaultPlan{Seed: 1, SlowRate: 1, SlowDelay: delay})
		bands := newBandCubes(src, d, band)
		for j, begin := range []func() PendingCube{
			func() PendingCube { return src.Begin(1, 0) },
			func() PendingCube { return bands.Begin(uint64(bands.bands.nb)+2, 0) },
		} {
			leg := [2]string{"whole cube", "band"}[j]
			t0 := time.Now()
			p := begin()
			issued := time.Since(t0)
			if !async && issued < delay {
				t.Errorf("sync store %s: Begin returned after %v, before the %v read landed", leg, issued, delay)
			}
			if async && issued >= delay/2 {
				t.Errorf("async store %s: Begin took %v, want it to return before the %v read lands", leg, issued, delay)
			}
			cb, err := p.Wait()
			if err != nil {
				t.Fatalf("async=%v %s: %v", async, leg, err)
			}
			if waited := time.Since(t0); waited < delay {
				t.Errorf("async=%v %s: delivered after %v, before the %v read landed", async, leg, waited, delay)
			}
			got[i][j] = cb
		}
	}
	for j := range got[0] {
		for k := range got[0][j].Data {
			if got[0][j].Data[k] != got[1][j].Data[k] {
				t.Fatalf("sync and async fetches (leg %d) differ at sample %d", j, k)
			}
		}
	}
	whole, b := got[0][0], got[0][1]
	for row := 0; row < d.Channels*d.Pulses; row++ {
		for r := 0; r < band; r++ {
			if b.Data[row*band+r] != whole.Data[row*d.Ranges+2*band+r] {
				t.Fatalf("band 2 row %d gate %d differs from the whole cube", row, 2*band+r)
			}
		}
	}
}

// A warm fetch — staging-file header cached, fetch state pooled, the
// store's sub-file handles open and a fan-out request free — allocates
// nothing, for a band and for the full extent alike.
func TestFileSourceReadBandAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items deliberately under the race detector; the zero pin holds only without it")
	}
	src, _, s := fileSourceOn(t, true, 256)
	d := s.Dims
	for _, band := range [][2]int{{16, 40}, {0, d.Ranges}} {
		lo, hi := band[0], band[1]
		dst := cube.New(cube.Dims{Channels: d.Channels, Pulses: d.Pulses, Ranges: hi - lo})
		read := func() {
			if err := src.ReadBand(2, lo, hi, dst); err != nil {
				t.Fatal(err)
			}
		}
		read()
		if n := testing.AllocsPerRun(20, read); n != 0 {
			t.Fatalf("warm ReadBand of [%d,%d) allocates %.1f times per call", lo, hi, n)
		}
	}
}

// Every staging file's header is checked, not only the first: a file of
// the wrong geometry behind a good first one fails NewFileSource with an
// error naming the file and both geometries, instead of a later band read
// decoding the wrong rows.
func TestFileSourceChecksEveryFileHeader(t *testing.T) {
	s := radar.SmallTestScenario()
	fs, err := pfs.CreateReal(t.TempDir(), 4, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	if _, err := radar.WriteDatasetChunked(fs, s, 2, 2, false, 256); err != nil {
		t.Fatal(err)
	}
	narrow := cube.New(cube.Dims{Channels: s.Dims.Channels, Pulses: s.Dims.Pulses, Ranges: s.Dims.Ranges / 2})
	for i := range narrow.Data {
		narrow.Data[i] = complex(float32(i), 1)
	}
	buf := make([]byte, cube.FileBytesChunked(narrow.Dims, 256))
	cube.EncodeChunked(narrow, 1, 256, buf)
	if err := fs.WriteFile(radar.FileName(1), buf); err != nil {
		t.Fatal(err)
	}
	_, err = NewFileSource(fs, s.Dims, 2)
	if err == nil {
		t.Fatalf("a source of %v over a %v staging file opened", s.Dims, narrow.Dims)
	}
	for _, want := range []string{radar.FileName(1), narrow.Dims.String(), s.Dims.String()} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// RepairedReads counts fetches that chunk re-reads salvaged, not chunks:
// a band fetch that needed several re-reads adds exactly one.
func TestRepairedReadsCountsFetches(t *testing.T) {
	src, fs, s := fileSourceOn(t, true, 256)
	fs.SetFaults(&pfs.FaultPlan{Seed: 3, CorruptRate: 0.3})
	d := s.Dims
	dst := cube.New(cube.Dims{Channels: d.Channels, Pulses: d.Pulses, Ranges: 16})
	for seq := uint64(0); seq < 64; seq++ {
		before := src.IOStats()
		if err := src.ReadBand(seq, 0, 16, dst); err != nil {
			continue
		}
		after := src.IOStats()
		rereads := after.ChunkRereads - before.ChunkRereads
		if rereads < 2 {
			continue
		}
		if got := after.RepairedReads - before.RepairedReads; got != 1 {
			t.Fatalf("CPI %d: a fetch repaired with %d chunk re-reads added %d repaired reads, want 1", seq, rereads, got)
		}
		return
	}
	t.Fatal("no successful fetch needed two or more chunk re-reads; the test exercises nothing")
}

// A fetch lands at most the larger of 1 MiB and its gates' own bytes at a
// time. A narrow band over rows shorter than a chunk touches every chunk
// of a 4 MiB payload, yet its scratch stays one window; a whole cube is
// one window of the full payload. Window by window — over contiguous and
// gapped chunk runs, a short last chunk, sync and async stores, and
// injected corruption — the samples match the staged cube, and a fetch
// that chunk re-reads salvaged counts one repaired read.
func TestFetchWindowsBoundScratch(t *testing.T) {
	d := cube.Dims{Channels: 4, Pulses: 128, Ranges: 1024}
	staged := cube.New(d)
	for i := range staged.Data {
		staged.Data[i] = complex(float32(i), float32(-i))
	}
	for _, chunk := range []int{cube.DefaultChunkSize, 2000} {
		for _, async := range []bool{true, false} {
			fs, err := pfs.CreateReal(t.TempDir(), 4, 4096, async)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fs.Close() })
			buf := make([]byte, cube.FileBytesChunked(d, chunk))
			for i := 0; i < 2; i++ {
				cube.EncodeChunked(staged, uint64(i), chunk, buf)
				if err := fs.WriteFile(radar.FileName(i), buf); err != nil {
					t.Fatal(err)
				}
			}
			src, err := NewFileSource(fs, d, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, band := range [][2]int{{250, 260}, {0, d.Ranges}} {
				lo, hi := band[0], band[1]
				leg := fmt.Sprintf("chunk %d async=%v band [%d,%d)", chunk, async, lo, hi)
				dst := cube.New(cube.Dims{Channels: d.Channels, Pulses: d.Pulses, Ranges: hi - lo})
				f, err := src.fetch(0, lo, hi, 0, dst, srcClocks{})
				if err != nil {
					t.Fatal(err)
				}
				windows, scratch := f.steps()/2, len(f.buf)
				f.finish(nil)
				if hi-lo == d.Ranges && windows != 1 {
					t.Errorf("%s: a whole cube takes %d windows, want 1", leg, windows)
				}
				if hi-lo < d.Ranges && (windows < 2 || scratch >= fetchWindow+chunk) {
					t.Errorf("%s: %d windows of %d bytes, want several of under %d", leg, windows, scratch, fetchWindow+chunk)
				}
				fs.SetFaults(&pfs.FaultPlan{Seed: 5, CorruptRate: 0.05})
				bands := newBandCubes(src, d, hi-lo)
				salvaged := false
				for seq := uint64(0); seq < 8; seq++ {
					before := src.IOStats()
					cb, err := bands.Begin(seq*uint64(bands.bands.nb)+uint64(lo/(hi-lo)), 0).Wait()
					if err != nil {
						continue
					}
					for row := 0; row < d.Channels*d.Pulses; row++ {
						for r := lo; r < hi; r++ {
							if cb.Data[row*(hi-lo)+r-lo] != staged.Data[row*d.Ranges+r] {
								t.Fatalf("%s CPI %d: row %d gate %d differs from the staged cube", leg, seq, row, r)
							}
						}
					}
					after := src.IOStats()
					rereads, repaired := after.ChunkRereads-before.ChunkRereads, after.RepairedReads-before.RepairedReads
					if want := min(rereads, 1); repaired != want {
						t.Fatalf("%s CPI %d: %d chunk re-reads added %d repaired reads, want %d", leg, seq, rereads, repaired, want)
					}
					salvaged = salvaged || repaired == 1
				}
				fs.SetFaults(nil)
				if !salvaged {
					t.Errorf("%s: no fetch was salvaged by chunk re-reads; the repair leg exercises nothing", leg)
				}
			}
		}
	}
}

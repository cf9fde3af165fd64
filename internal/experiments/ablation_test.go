package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"stapio/internal/core"
	"stapio/internal/machine"
	"stapio/internal/pfs"
	"stapio/internal/pipesim"
	"stapio/internal/stap"
)

// The design-choice ablations of DESIGN.md §4, each pinned at the values
// EXPERIMENTS.md quotes. The DES is deterministic, so a value moves only
// when the model does; pin's 0.5% band absorbs the quoted rounding only.

func pin(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 0.005*want {
		t.Errorf("%s = %.4g, want %.4g", what, got, want)
	}
}

// same reports whether two figures agree up to float rounding: "equal"
// claims are exact, but event order can move the last bits.
func same(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }

func build(t *testing.T, d Design, scale int) *core.Pipeline {
	t.Helper()
	p, err := Build(d, scale)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// measure runs p on the Paragon over fs.
func measure(t *testing.T, p *core.Pipeline, fs pfs.Config, opts pipesim.Options) *pipesim.Result {
	t.Helper()
	r, err := pipesim.Measure(p, machine.Paragon(), fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// At 200 nodes on PFS-16 one CPI read already saturates the stripe
// servers, so a deeper async prefetch window cannot add bandwidth.
func TestAblationPrefetchDepth(t *testing.T) {
	p := build(t, Embedded, 4)
	var depth1 float64
	for _, depth := range []int{1, 2, 4, 8} {
		opts := QuickOptions()
		opts.PrefetchDepth = depth
		thr := measure(t, p, pfs.ParagonPFS(16), opts).Throughput
		if depth == 1 {
			depth1 = thr
			pin(t, "depth-1 throughput", thr, 5.492)
		} else if !same(thr, depth1) {
			t.Errorf("depth %d: %.4f CPIs/s, want depth 1's %.4f", depth, thr, depth1)
		}
	}
}

// Sweeping the stripe factor at 200 nodes: throughput doubles with each
// doubling up to 32, where the Doppler read-wait reaches zero, then stays
// flat to 256. The knee of the paper's PFS-16 vs PFS-64 comparison lies
// at 32.
func TestAblationStripeFactor(t *testing.T) {
	p := build(t, Embedded, 4)
	want := map[int]float64{4: 1.390, 8: 2.769, 16: 5.492, 32: 9.858}
	var at32 float64
	for _, sf := range []int{4, 8, 16, 32, 64, 128, 256} {
		r := measure(t, p, pfs.ParagonPFS(sf), QuickOptions())
		if sf <= 32 {
			pin(t, fmt.Sprintf("stripe %d throughput", sf), r.Throughput, want[sf])
			at32 = r.Throughput
		} else if !same(r.Throughput, at32) {
			t.Errorf("stripe %d: %.4f CPIs/s, want stripe 32's %.4f", sf, r.Throughput, at32)
		}
		if wait := r.Tasks[0].ReadWait; (sf >= 32) != (wait == 0) {
			t.Errorf("stripe %d: Doppler read-wait %.3f s", sf, wait)
		}
	}
}

// Merging other task pairs of the separate design (case 1, PFS-64;
// baseline 2.618 CPIs/s, 946.8 ms). PC+CFAR buys the largest latency cut
// at unchanged throughput, but Doppler+easy-weight beats the baseline on
// both axes too (a deviation from the paper: it hands the bottleneck
// Doppler task the weight task's nodes). Read+Doppler is the embedded
// graph plus the read task's nodes, so it outruns embedded's 2.72.
func TestAblationMergePairs(t *testing.T) {
	fs := pfs.ParagonPFS(64)
	sep := build(t, Separate, 1)
	base := measure(t, sep, fs, QuickOptions())
	pin(t, "baseline throughput", base.Throughput, 2.618)
	pin(t, "baseline latency", base.Latency, 0.9468)
	merged := func(i, j int) *pipesim.Result {
		m, err := sep.Merge(i, j)
		if err != nil {
			t.Fatal(err)
		}
		return measure(t, m, fs, QuickOptions())
	}
	rd, de, pc := merged(0, 1), merged(1, 2), merged(6, 7)
	pin(t, "read+Doppler throughput", rd.Throughput, 3.860)
	pin(t, "read+Doppler latency", rd.Latency, 0.7071)
	pin(t, "Doppler+easy-weight throughput", de.Throughput, 2.720)
	pin(t, "Doppler+easy-weight latency", de.Latency, 0.9310)
	if !same(pc.Throughput, base.Throughput) {
		t.Errorf("PC+CFAR throughput %.4f, want the baseline's %.4f", pc.Throughput, base.Throughput)
	}
	pin(t, "PC+CFAR latency", pc.Latency, 0.8729)
	if _, err := sep.Merge(2, 4); err == nil || !strings.Contains(err.Error(), "temporal") {
		t.Errorf("easy-weight+easy-BF merge: err %v, want the temporal-edge refusal", err)
	}
}

// The stripe unit at stripe factor 16, 200 nodes: larger units cut the
// per-request overhead, so throughput rises monotonically from 16 KiB to
// 1 MiB.
func TestAblationStripeUnit(t *testing.T) {
	p := build(t, Embedded, 4)
	want := []float64{3.067, 5.492, 6.846, 7.295}
	for i, unit := range []int64{16 << 10, 64 << 10, 256 << 10, 1 << 20} {
		fs := pfs.ParagonPFS(16)
		fs.StripeUnit = unit
		thr := measure(t, p, fs, QuickOptions()).Throughput
		pin(t, fmt.Sprintf("unit %d KiB throughput", unit>>10), thr, want[i])
	}
}

// The radar refilling one 16 MiB staging file per consumed CPI costs
// PFS-16 at 200 nodes, whose busiest stripe server is already 95.8%
// utilised, half its throughput (5.49 -> 2.77 CPIs/s); PFS-64 stays at
// exactly 9.86.
func TestAblationRadarWriter(t *testing.T) {
	p := build(t, Embedded, 4)
	opts := QuickOptions()
	r16 := measure(t, p, pfs.ParagonPFS(16), opts)
	r64 := measure(t, p, pfs.ParagonPFS(64), opts)
	opts.RadarWriteBytes = 16 << 20
	w16 := measure(t, p, pfs.ParagonPFS(16), opts)
	w64 := measure(t, p, pfs.ParagonPFS(64), opts)
	pin(t, "PFS-16 busiest stripe server utilisation", r16.FSBusiestUtilization, 0.9578)
	pin(t, "PFS-16 throughput", r16.Throughput, 5.492)
	pin(t, "PFS-16 throughput with the writer", w16.Throughput, 2.769)
	pin(t, "PFS-64 throughput", r64.Throughput, 9.858)
	if !same(w64.Throughput, r64.Throughput) {
		t.Errorf("PFS-64 throughput %.4f with the writer, want %.4f", w64.Throughput, r64.Throughput)
	}
}

// Persisting 1 MiB of reports per CPI from CFAR (100 nodes, stripe 64) is
// free on the async file system (432.3 ms either way) and costs the sync
// one 10% latency (480.1 -> 530.1 ms).
func TestAblationReportOutput(t *testing.T) {
	base := build(t, Embedded, 2)
	reports, err := core.AttachReportOutput(base, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	async := pfs.ParagonPFS(64)
	sync := async
	sync.Async = false
	a, ar := measure(t, base, async, QuickOptions()), measure(t, reports, async, QuickOptions())
	s, sr := measure(t, base, sync, QuickOptions()), measure(t, reports, sync, QuickOptions())
	pin(t, "async latency", a.Latency, 0.4323)
	if !same(ar.Latency, a.Latency) || !same(ar.Throughput, a.Throughput) {
		t.Errorf("async with reports: %.4f CPIs/s, %.4f s; want %.4f, %.4f",
			ar.Throughput, ar.Latency, a.Throughput, a.Latency)
	}
	pin(t, "sync latency", s.Latency, 0.4801)
	pin(t, "sync latency with reports", sr.Latency, 0.5301)
}

// More PRI staggers raise the hard bins' adaptive degrees of freedom but
// grow the Doppler and weight workloads: at 100 nodes on PFS-64,
// throughput falls from 5.27 (K=2) to 3.71 (K=3) and 2.82 CPIs/s (K=4).
func TestAblationStaggers(t *testing.T) {
	want := map[int]float64{2: 5.270, 3: 3.708, 4: 2.823}
	for _, k := range []int{2, 3, 4} {
		params := PaperParams()
		params.Staggers = k
		w := stap.ComputeWorkloads(&params)
		p, err := core.BuildEmbedded(w, BaseNodes().Scale(2))
		if err != nil {
			t.Fatal(err)
		}
		thr := measure(t, p, pfs.ParagonPFS(64), QuickOptions()).Throughput
		pin(t, fmt.Sprintf("K=%d throughput", k), thr, want[k])
	}
}

package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"testing"
	"time"

	"stapio/internal/radar"
)

// The seed is the only source of the inputs: the same seed gives the same
// frames and the same fault draws, another seed gives other cubes.
func TestSeedDeterminesInputs(t *testing.T) {
	w := workloadByName("slowstore-file")
	gen := func(seed int64) [][]byte {
		s := w.scenario()
		s.Seed = seed
		frames, err := radar.EncodeCPIs(s, w.files, w.chunk)
		if err != nil {
			t.Fatal(err)
		}
		return frames
	}
	a, b, c := gen(11), gen(11), gen(12)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("seed 11 gave two different frames for CPI %d", i)
		}
		if bytes.Equal(a[i], c[i]) {
			t.Fatalf("seeds 11 and 12 gave the same frame for CPI %d", i)
		}
	}

	draws := func(seed int64) (out []bool) {
		plan := w.faults(seed)
		plan.CorruptRate = 0.3 // dense enough to compare draw for draw
		for seq := 0; seq < 64; seq++ {
			for dir := 0; dir < w.stripeDirs; dir++ {
				o := plan.ReadOutcome(radar.FileName(seq%w.files), int64(seq)*4096, dir, 0)
				out = append(out, o.Corrupt, o.Slow)
			}
		}
		return out
	}
	d1, d2, d3 := draws(11), draws(11), draws(12)
	same := true
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatal("seed 11 drew two different fault streams")
		}
		same = same && d1[i] == d3[i]
	}
	if same {
		t.Error("seeds 11 and 12 drew the same fault stream")
	}
}

// Short real runs: every run emits exactly the declared end-to-end metrics,
// whatever the seed; traced runs emit only declared per-layer metrics, and
// between them the workloads cover every one. paper-file is left out (its
// set-up alone takes longer than this test may): it shares every code path
// with slowstore-file.
func TestRunsEmitTheDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real workloads for a few seconds")
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	declared := make(map[string]bool)
	for _, d := range perLayer {
		declared[d.Name] = true
	}
	emitted := make(map[string]bool)
	for _, name := range []string{"slowstore-file", "mid-banded", "small-serve"} {
		w := workloadByName(name)
		// Untraced runs repeat the set-up, so they run where that is cheap
		// (twice, on two seeds, where it is cheapest); the banded executor
		// is covered by the traced run.
		seeds := map[string][]int64{"slowstore-file": {3, 4}, "small-serve": {3}}[name]
		for _, seed := range seeds {
			r, err := runOnce(context.Background(), options{w: w, seed: seed, seconds: 300 * time.Millisecond}, &tally{}, io.Discard)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s seed %d: correct %t, %d of %d failed", name, seed, r.Correct, r.Failed, r.Attempted)
			}
			if len(r.Metrics) != len(endToEnd) {
				t.Errorf("%s seed %d emitted %d metrics, want %d", name, seed, len(r.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if v, ok := r.Metrics[d.Name]; !ok || v <= 0 {
					t.Errorf("%s seed %d: %s = %v (emitted %t), want a positive value", name, seed, d.Name, v, ok)
				}
			}
		}
		r, err := runOnce(context.Background(), options{w: w, seed: 3, seconds: 600 * time.Millisecond, trace: true, outDir: tmp}, &tally{}, io.Discard)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if !r.Correct {
			t.Errorf("%s traced: %d of %d failed", name, r.Failed, r.Attempted)
		}
		for k := range r.Metrics {
			if !declared[k] {
				t.Errorf("%s traced emitted undeclared metric %q", name, k)
			}
			emitted[k] = true
		}
		if _, err := os.Stat(tmp + "/trace-" + name + ".json"); err != nil {
			t.Errorf("%s traced: %v", name, err)
		}
	}
	for k := range declared {
		if !emitted[k] {
			t.Errorf("declared per-layer metric %q is emitted by no workload", k)
		}
	}
	if left, _ := os.ReadDir(tmp); len(left) != 3 {
		t.Errorf("%d entries left in the temp dir, want the 3 trace files", len(left))
	}
	if leak := leaked(baselineGoroutines); leak != "" {
		t.Error(leak)
	}
}

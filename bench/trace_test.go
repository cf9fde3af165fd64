package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Self time is the span minus what its children cover: overlapping
// children count once, a child running past its parent is clipped, and
// grandchildren come off their own parent only.
func TestSpanSelfTime(t *testing.T) {
	u := time.Millisecond
	spans := []span{
		{Name: "cpi", Start: 0, End: 100 * u, Parent: -1},
		{Name: "read", Start: 10 * u, End: 30 * u, Parent: 0},
		{Name: "decode", Start: 20 * u, End: 50 * u, Parent: 0}, // overlaps read
		{Name: "late", Start: 90 * u, End: 120 * u, Parent: 0},  // runs past the parent
		{Name: "crc", Start: 12 * u, End: 17 * u, Parent: 1},    // grandchild
	}
	want := []time.Duration{50 * u, 15 * u, 30 * u, 30 * u, 5 * u}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got, want[i])
		}
	}
}

func TestTracerWritesChromeTrace(t *testing.T) {
	tr := newTracer()
	root := tr.begin("walk.kernels", -1, 3)
	tr.in("stap.doppler", root, 3, func() error { time.Sleep(time.Millisecond); return nil })
	tr.end(root)
	tr.begin("never.ended", -1, -1)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			Ts, Dur       float64
			Tid           int
			Args          map[string]any
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2 (the open span is left out)", len(doc.TraceEvents))
	}
	child := doc.TraceEvents[1]
	if child.Name != "stap.doppler" || child.Cat != "stap" || child.Ph != "X" || child.Dur < 1000 {
		t.Errorf("child event = %+v", child)
	}
	if child.Tid != doc.TraceEvents[0].Tid {
		t.Error("a child renders on another track than its parent")
	}
	if child.Args["cpi"] != float64(3) || child.Args["parent"] != float64(0) {
		t.Errorf("child args = %v", child.Args)
	}

	var off *tracer // spans off: every call is a no-op
	id := off.begin("x", -1, 0)
	off.end(id)
	if err := off.in("y", id, 0, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
}

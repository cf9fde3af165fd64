package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// public function it calls. Times are offsets from the tracer's origin;
// Parent is the index of the span that caused it (-1 for a root) and CPI
// the sequence number all spans of one CPI share (-1 when not per-CPI).
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int
	CPI        int64
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so measured code paths take the same calls traced or not.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index for end (and for children).
func (t *tracer) begin(name string, parent int, cpi int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, CPI: cpi})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose ends were measured elsewhere — per-CPI spans
// reconstructed from what the pipeline's results export.
func (t *tracer) add(name string, start, end time.Time, parent int, cpi int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.origin), End: end.Sub(t.origin), Parent: parent, CPI: cpi})
	t.mu.Unlock()
}

// in times fn under a span.
func (t *tracer) in(name string, parent int, cpi int64, fn func() error) error {
	id := t.begin(name, parent, cpi)
	err := fn()
	t.end(id)
	return err
}

// selfTimes returns each span's duration minus the part of it its direct
// children cover (overlapping children are counted once).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered := s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < covered {
				lo = covered
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				out[i] -= hi - lo
				covered = hi
			}
		}
	}
	return out
}

// totals sums span durations and counts by name.
func (t *tracer) totals() (sum map[string]time.Duration, count map[string]int) {
	sum, count = make(map[string]time.Duration), make(map[string]int)
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.End >= s.Start {
			sum[s.Name] += s.End - s.Start
			count[s.Name]++
		}
	}
	return
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which chrome://tracing and ui.perfetto.dev open as is.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as Chrome trace-event JSON. Each root span and its
// descendants share a track, so nesting renders as a flame.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	track := make([]int, len(spans))
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		switch {
		case s.Parent >= 0:
			track[i] = track[s.Parent]
		case s.CPI >= 0:
			// Concurrent per-CPI roots spread over a few tracks.
			track[i] = 2 + int(s.CPI%32)
		default:
			track[i] = 1
		}
		cat, _, _ := strings.Cut(s.Name, ".")
		events = append(events, chromeEvent{
			Name: s.Name, Cat: cat, Ph: "X",
			Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: track[i],
			Args: map[string]any{"cpi": s.CPI, "parent": s.Parent, "self_us": us(self[i])},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

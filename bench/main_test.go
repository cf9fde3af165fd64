package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

var baselineGoroutines int

func TestMain(m *testing.M) {
	baselineGoroutines = runtime.NumGoroutine() + 2 // the test runner's own
	os.Exit(m.Run())
}

// The result line is one JSON object with exactly the contract's keys,
// every declared metric in it, non-finite values flattened to 0.
func TestResultLine(t *testing.T) {
	r := result{Correct: true, Attempted: 10, Metrics: map[string]float64{"allocs_per_cpi": 5.25, "setup_s": 1.0 / 3}}
	var got struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(r.line(endToEnd)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted != 10 || got.Failed == nil || *got.Failed != 0 {
		t.Errorf("header fields wrong in %s", r.line(endToEnd))
	}
	if len(got.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics in the line, want %d", len(got.Metrics), len(endToEnd))
	}
	if m := got.Metrics["setup_s"]; m.Value == nil || *m.Value != 1.0/3 || m.Unit != "s" {
		t.Errorf("setup_s = %+v, want every digit of 1/3", m)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-file", "--trace", "2"},
		{"--workload", "paper-file", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := realMain(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote %q to standard output", args, out.String())
		}
	}
}

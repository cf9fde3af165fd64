package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile is BENCHMARK.json as the contract lays it out.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the program's lists say the same thing, within the
// contract's limits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := top[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(top) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(top))
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Command) != 2 || bf.Command[0] != "sh" || bf.Command[1] != "bench/run.sh" {
		t.Errorf("command = %v", bf.Command)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}

	seen := make(map[string]bool)
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's pattern", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(bf.Workloads) != 4 || len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program, want 4", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q, program has %q (or the why differs)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why is %d characters", w.Name, len(w.Why))
		}
	}

	if len(bf.EndToEnd) < 1 || len(bf.EndToEnd) > 16 || len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in the program, limit 16", len(bf.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, d := range bf.EndToEnd {
		name(d.Name)
		want := endToEnd[i]
		if d.Bound == nil || d.Name != want.Name || d.Unit != want.Unit || d.Better != want.Better || *d.Bound != want.Bound {
			t.Errorf("end-to-end metric %d: declared %+v, program has %+v", i, d, want)
			continue
		}
		if *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, *d.Bound)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(bf.PerLayer) > 128 || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in the program, limit 128", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range bf.PerLayer {
		name(d.Name)
		want := perLayer[i]
		if d.Name != want.Name || d.Unit != want.Unit || d.Better != want.Better {
			t.Errorf("per-layer metric %d: declared %+v, program has %+v", i, d, want)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
}

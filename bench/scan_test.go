package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The benchmark runs everything in one process: nothing under bench/ may
// start another (PRs 12 and 13 died of a process left running).
func TestNoProcessLaunchingCode(t *testing.T) {
	// Spelled in halves so this file passes its own scan.
	needles := []string{"os/" + "exec", "Start" + "Process", "Fork" + "Exec"}
	shell := []string{"go " + "run", "no" + "hup", "go test -" + "bench"}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".out" {
				return filepath.SkipDir
			}
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		src := string(data)
		switch filepath.Ext(path) {
		case ".go":
			for _, n := range needles {
				if strings.Contains(src, n) {
					t.Errorf("%s mentions %s", path, n)
				}
			}
		case ".sh":
			for _, n := range shell {
				if strings.Contains(src, n) {
					t.Errorf("%s uses %q", path, n)
				}
			}
			for _, line := range strings.Split(src, "\n") {
				if l := strings.TrimSpace(line); strings.HasSuffix(l, "&") && !strings.HasSuffix(l, "&&") && !strings.HasPrefix(l, "#") {
					t.Errorf("%s backgrounds a command: %q", path, l)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// run.sh must refuse a bare directory before it runs any go command, and
// switch telemetry off before the first one.
func TestRunScriptOrder(t *testing.T) {
	data, err := os.ReadFile("run.sh")
	if err != nil {
		t.Fatal(err)
	}
	src := string(data)
	guard := strings.Index(src, "[ -f go.mod ] && [ -f bench/go.mod ]")
	mode := strings.Index(src, "telemetry/mode")
	build := strings.Index(src, "go build")
	if guard < 0 || mode < 0 || build < 0 || !(guard < mode && mode < build) {
		t.Errorf("run.sh order: guard at %d, telemetry mode at %d, go build at %d", guard, mode, build)
	}
}

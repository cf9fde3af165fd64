// Command stapledger is the stapio benchmark: four workloads, each loading
// a different layer, measured end to end (--trace 0) or layer by layer
// (--trace 1) from outside the program through its public functions and
// the statistics it already exports. bench/README.md is the manual;
// bench/run.sh is the only supported way to launch it.
//
//	stapledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	stapledger --study 10 [--sets 2]
//
// The last line of standard output is the result object. Exit codes: 0 a
// correct run, 1 wrong or missing CPIs (or a failed study), 2 usage, 3 the
// watchdog fired, 4 something outlived the run, 130 interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// rootSet is the temp roots currently on disk, so the watchdog and the
// signal handler can remove them from outside the run.
type rootSet struct {
	mu    sync.Mutex
	roots map[string]bool
}

var activeRoots = rootSet{roots: make(map[string]bool)}

func (s *rootSet) add(r string)    { s.mu.Lock(); s.roots[r] = true; s.mu.Unlock() }
func (s *rootSet) remove(r string) { s.mu.Lock(); delete(s.roots, r); s.mu.Unlock() }
func (s *rootSet) removeAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for r := range s.roots {
		os.RemoveAll(r)
	}
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("stapledger", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		name    = fl.String("workload", "", "workload to run: "+strings.Join(workloadNames(), " | "))
		seed    = fl.Int64("seed", 1, "seed of the generated inputs (radar.Scenario.Seed and pfs.FaultPlan.Seed)")
		seconds = fl.Int("seconds", 20, "seconds the measured blocks fill")
		trace   = fl.Int("trace", 0, "0: end-to-end metrics, spans off; 1: per-layer metrics from the traced run")
		limit   = fl.Duration("limit", 170*time.Second, "per-run watchdog")
		study   = fl.Int("study", 0, "run every workload on this many seeds and judge the spreads (see study.go)")
		sets    = fl.Int("sets", 1, "with --study: independent sets of runs; a second set's medians are compared with the first's")
		outDir  = fl.String("out", os.Getenv("STAPLEDGER_OUT"), "directory for trace-<workload>.json (default $STAPLEDGER_OUT)")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 || *study < 0 || *sets < 1 {
		fmt.Fprintln(stderr, "stapledger: bad arguments")
		fl.Usage()
		return 2
	}

	w := workloadByName(*name)
	if w == nil && *study == 0 {
		fmt.Fprintf(stderr, "stapledger: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), " | "))
		return 2
	}

	// Two threads whatever the host has: results stay comparable between
	// machines with more cores, and the load generator gets its own.
	procs := 2
	if runtime.NumCPU() < 2 {
		procs = 1
	}
	runtime.GOMAXPROCS(procs)

	// Interrupts remove the temp root before the process goes; in-process
	// servers and pipelines die with it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(stderr, "stapledger: %v: removing the temp root and exiting\n", s)
		activeRoots.removeAll()
		os.Exit(130)
	}()
	baseline := runtime.NumGoroutine()

	once := func(o options) (result, error) {
		tl := &tally{log: stderr}
		wd := time.AfterFunc(*limit, func() {
			fmt.Fprintf(stderr, "stapledger: watchdog: %s still running after %v; %d CPIs attempted, %d failed so far, the rest marked failed\n",
				o.w.name, *limit, tl.attempted.Load(), tl.failed.Load())
			activeRoots.removeAll()
			os.Exit(3)
		})
		defer wd.Stop()
		r, err := runOnce(context.Background(), o, tl, stderr)
		if leak := leaked(baseline); leak != "" {
			fmt.Fprintf(stderr, "stapledger: %s\n", leak)
			activeRoots.removeAll()
			os.Exit(4)
		}
		return r, err
	}

	if *study > 0 {
		return runStudy(*study, *sets, time.Duration(*seconds)*time.Second, once, stdout, stderr)
	}
	r, err := once(options{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, outDir: *outDir})
	if err != nil {
		fmt.Fprintf(stderr, "stapledger: %v\n", err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	fmt.Fprintln(stdout, r.line(defs))
	if !r.Correct {
		fmt.Fprintf(stderr, "stapledger: %d of %d CPIs failed\n", r.Failed, r.Attempted)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// line renders the result object: every declared metric, in declaration
// order, each value with all its digits.
func (r result) line(defs []metricDef) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.Correct, r.Attempted, r.Failed)
	for i, d := range defs {
		v := r.Metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, `%q: {"value": %s, "unit": %q}`, d.Name, strconv.FormatFloat(v, 'g', -1, 64), d.Unit)
	}
	sb.WriteString("}}")
	return sb.String()
}

// leaked checks what a finished run must not leave behind: a temp root, a
// child process, or goroutines beyond the start-up baseline. It returns a
// description of the first leak, or "".
func leaked(baseline int) string {
	activeRoots.mu.Lock()
	for r := range activeRoots.roots {
		activeRoots.mu.Unlock()
		return "temp root " + r + " still on disk after the run"
	}
	activeRoots.mu.Unlock()
	tasks, _ := filepath.Glob("/proc/self/task/*/children")
	for _, t := range tasks {
		if data, err := os.ReadFile(t); err == nil && len(strings.TrimSpace(string(data))) > 0 {
			return "child processes alive after the run: " + strings.TrimSpace(string(data))
		}
	}
	// Pipeline and connection goroutines unwind asynchronously after their
	// owners return; give them a moment before calling it a leak.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Sprintf("%d goroutines alive after the run, %d at start:\n%s", runtime.NumGoroutine(), baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return ""
}

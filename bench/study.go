package main

import (
	"fmt"
	"io"
	"time"
)

// runStudy rehearses the acceptance rule the benchmark is held to: every
// workload runs n times on n seeds, strictly one after another in this
// process, and for each (metric, workload) the inter-quartile distance as
// a share of the median must stay within the metric's bound (setup_s is
// exempt from the spread rule). With a second set, its median may not be
// worse than the first's by more than the bound — setup_s included. The
// tables are what bench/README.md records. Returns the exit code.
func runStudy(n, sets int, seconds time.Duration, once func(options) (result, error), stdout, stderr io.Writer) int {
	// values[set][workload][metric] holds the n runs' values.
	values := make([]map[string]map[string][]float64, sets)
	ok := true
	start := time.Now()
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		for _, w := range workloads {
			values[set][w.name] = make(map[string][]float64)
			for i := 0; i < n; i++ {
				seed := int64(1000*(set+1) + i + 1)
				t0 := time.Now()
				r, err := once(options{w: w, seed: seed, seconds: seconds})
				if err != nil {
					fmt.Fprintf(stderr, "stapledger: study: %s seed %d: %v\n", w.name, seed, err)
					return 1
				}
				fmt.Fprintf(stderr, "stapledger: study: set %d %s seed %d took %.1fs: %s\n",
					set+1, w.name, seed, time.Since(t0).Seconds(), r.line(endToEnd))
				if !r.Correct {
					fmt.Fprintf(stdout, "FAIL %s seed %d: %d of %d CPIs failed\n", w.name, seed, r.Failed, r.Attempted)
					ok = false
				}
				for _, d := range endToEnd {
					values[set][w.name][d.Name] = append(values[set][w.name][d.Name], r.Metrics[d.Name])
				}
			}
		}
	}

	for set := range values {
		fmt.Fprintf(stdout, "\nset %d: %d seeds per workload, %v per run\n", set+1, n, seconds)
		fmt.Fprintf(stdout, "%-15s %-19s %12s %8s %6s  %s\n", "workload", "metric", "median", "IQR/med", "bound", "verdict")
		for _, w := range workloads {
			for _, d := range endToEnd {
				xs := values[set][w.name][d.Name]
				sp := spread(xs)
				verdict := "PASS"
				switch {
				case d.Name == "setup_s":
					verdict = "exempt"
				case sp > d.Bound:
					verdict = "FAIL"
					ok = false
				case sp > d.Bound/3:
					verdict = "PASS (above a third of the bound)"
				}
				fmt.Fprintf(stdout, "%-15s %-19s %12.6g %7.2f%% %5.0f%%  %s\n", w.name, d.Name, median(xs), 100*sp, 100*d.Bound, verdict)
			}
		}
	}
	for set := 1; set < sets; set++ {
		fmt.Fprintf(stdout, "\nset %d medians against set 1\n", set+1)
		fmt.Fprintf(stdout, "%-15s %-19s %12s %12s %8s %6s  %s\n", "workload", "metric", "first", "second", "worse by", "bound", "verdict")
		for _, w := range workloads {
			for _, d := range endToEnd {
				first, second := median(values[0][w.name][d.Name]), median(values[set][w.name][d.Name])
				worse := (second - first) / first
				if d.Better == "higher" {
					worse = -worse
				}
				verdict := "PASS"
				if worse > d.Bound {
					verdict = "FAIL"
					ok = false
				}
				fmt.Fprintf(stdout, "%-15s %-19s %12.6g %12.6g %7.2f%% %5.0f%%  %s\n", w.name, d.Name, first, second, 100*worse, 100*d.Bound, verdict)
			}
		}
	}
	fmt.Fprintf(stdout, "\n%d runs in %.0fs\n", n*sets*len(workloads), time.Since(start).Seconds())
	if !ok {
		fmt.Fprintln(stdout, "study: FAIL")
		return 1
	}
	fmt.Fprintln(stdout, "study: PASS")
	return 0
}

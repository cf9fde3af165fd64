// I/O strategies: reproduce the paper's central comparison on the
// simulated machines — embedding the parallel read in the Doppler task
// versus adding a separate I/O task — across the three parallel file
// systems and three node-assignment cases.
//
//	go run ./examples/iostrategies
package main

import (
	"fmt"
	"log"
	"math"
	"os"

	"stapio/internal/experiments"
	"stapio/internal/pipesim"
	"stapio/internal/report"
)

func main() {
	opts := pipesim.DefaultOptions()
	emb, err := experiments.RunGrid(experiments.Embedded, opts)
	if err != nil {
		log.Fatal(err)
	}
	sep, err := experiments.RunGrid(experiments.Separate, opts)
	if err != nil {
		log.Fatal(err)
	}

	t := &report.Table{
		Title: "Embedded I/O vs separate I/O task (simulated)",
		Columns: []string{"file system", "case",
			"thr emb", "thr sep", "lat emb (s)", "lat sep (s)", "read wait emb (s)"},
	}
	// The largest throughput gap between the designs, per read mode.
	var asyncGap, syncGain float64
	for si, row := range emb.Cells {
		for ci, e := range row {
			s := sep.Cells[si][ci]
			gap := 100 * (s.Measured.Throughput/e.Measured.Throughput - 1)
			if e.Setup.FS.Async {
				asyncGap = math.Max(asyncGap, math.Abs(gap))
			} else {
				syncGain = math.Max(syncGain, gap)
			}
			t.AddRow(
				e.Setup.Label, e.Case.Label,
				fmt.Sprintf("%.2f", e.Measured.Throughput),
				fmt.Sprintf("%.2f", s.Measured.Throughput),
				fmt.Sprintf("%.3f", e.Measured.Latency),
				fmt.Sprintf("%.3f", s.Measured.Latency),
				fmt.Sprintf("%.3f", e.Measured.Tasks[0].ReadWait),
			)
		}
	}
	t.Render(os.Stdout)

	fmt.Println()
	fmt.Println("Observations (the paper's findings, and one deviation):")
	fmt.Printf("  * on the async Paragon PFS throughput is within %.0f%% between designs — the\n", asyncGap)
	fmt.Println("    bottleneck task is unchanged;")
	fmt.Printf("  * on the sync SP PIOFS the separate task raises throughput by up to %.0f%%: it\n", syncGain)
	fmt.Println("    restores the pipelining that blocking embedded reads forfeit;")
	fmt.Println("  * the separate-task latency is strictly worse — one more pipeline term (eq. 4);")
	fmt.Println("  * with stripe factor 16 the Doppler read-wait phase blows up at 200 nodes:")
	fmt.Println("    the parallel file system has become the pipeline bottleneck, relieved at 64.")
}

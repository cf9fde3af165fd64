// Fault injection and graceful degradation: write a round-robin CPI
// dataset onto a striped local store, then run the real pipeline three
// times against increasingly hostile stripe servers — healthy, faulty
// under fail-fast, and faulty under skip-CPI with retries — and show what
// the resilience layer buys. A seeded fault plan makes the injected
// failures, latency spikes, and payload corruption fully reproducible.
//
//	go run ./examples/faultinjection
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"stapio/internal/core"
	"stapio/internal/pfs"
	"stapio/internal/pipexec"
	"stapio/internal/radar"
	"stapio/internal/stap"
)

func main() {
	scenario := radar.SmallTestScenario()
	root, err := os.MkdirTemp("", "stapio-faults-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	const files = radar.DefaultFileCount
	const stripeDirs = 4
	fs, err := pfs.CreateReal(root, stripeDirs, 4096, true)
	if err != nil {
		log.Fatal(err)
	}
	defer fs.Close()
	if _, err := radar.WriteDataset(fs, scenario, files, files, false); err != nil {
		log.Fatal(err)
	}
	src, err := pipexec.NewFileSource(fs, scenario.Dims, files)
	if err != nil {
		log.Fatal(err)
	}

	params := stap.DefaultParams(scenario.Dims)
	params.PulseLen = scenario.PulseLen
	params.Bandwidth = scenario.Bandwidth
	base := pipexec.Config{
		Params: params,
		Workers: core.STAPNodes{
			Doppler: 2, EasyWeight: 1, HardWeight: 1,
			EasyBF: 2, HardBF: 1, PulseComp: 2, CFAR: 1,
		},
	}

	const cpis = 32
	run := func(label string, plan *pfs.FaultPlan, cfg pipexec.Config) *pipexec.Result {
		fs.SetFaults(plan)
		res, err := pipexec.Run(context.Background(), cfg, src, cpis)
		if err != nil {
			fmt.Printf("%-28s aborted: %v\n", label, err)
			return nil
		}
		fmt.Printf("%-28s %2d/%d CPIs, %6.1f CPIs/s   %v\n",
			label, len(res.CPIs), cpis, res.Throughput, res.Stats)
		return res
	}

	fmt.Printf("dataset: %d files striped across %d dirs; %d-CPI runs\n\n", files, stripeDirs, cpis)
	clean := run("healthy servers", nil, base)

	// 5% of stripe reads fail, 2% of payloads arrive corrupted, 2% are
	// served slow. Fail-fast (the pre-resilience behaviour) dies on the
	// first CPI whose retries run out.
	plan := func() *pfs.FaultPlan {
		return &pfs.FaultPlan{
			Seed: 7, FailRate: 0.05, CorruptRate: 0.02,
			SlowRate: 0.02, SlowDelay: 200 * time.Microsecond,
		}
	}
	strict := base
	strict.Retry = pipexec.RetryPolicy{MaxAttempts: 1}
	run("faulty, fail-fast", plan(), strict)

	resilient := base
	resilient.Retry = pipexec.RetryPolicy{MaxAttempts: 6, BaseBackoff: 200 * time.Microsecond}
	resilient.Degrade = pipexec.DegradeSkipCPI
	degraded := run("faulty, skip-CPI + retries", plan(), resilient)

	if clean == nil || degraded == nil {
		return
	}
	// Every CPI the degraded run delivered carries exactly the detections
	// of the healthy run: retries re-draw the fault plan until the read
	// comes back clean, and the CRC rejects corrupted payloads.
	same := 0
	byIdx := make(map[uint64][]stap.Detection, len(clean.CPIs))
	for _, c := range clean.CPIs {
		byIdx[c.Seq] = c.Detections
	}
	for _, c := range degraded.CPIs {
		if equal(byIdx[c.Seq], c.Detections) {
			same++
		}
	}
	fmt.Printf("\ndelivered CPIs identical to the healthy run: %d/%d\n", same, len(degraded.CPIs))
	fmt.Printf("(%d bytes per CPI; injected faults are a pure function of the seed,\n",
		radar.DatasetFileBytes(scenario.Dims))
	fmt.Println(" so every run of this example reports the same counters)")
}

func equal(a, b []stap.Detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

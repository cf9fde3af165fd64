// The one end-to-end record the ledger (bench/) has no row for. The
// paper's tables, figures and ablations are checked as tests on the
// simulated machines (internal/experiments, examples/).
//
//	go test -bench=. -benchmem -run='^$' .
package stapio_test

import (
	"context"
	"testing"

	"stapio/internal/core"
	"stapio/internal/pfs"
	"stapio/internal/pipexec"
	"stapio/internal/radar"
	"stapio/internal/stap"
)

// BenchmarkRealPipelineIODesigns compares the two I/O designs and task
// combination on the real executor with real striped files — the
// wall-clock analogue of Tables 1-3.
func BenchmarkRealPipelineIODesigns(b *testing.B) {
	s := radar.SmallTestScenario()
	root := b.TempDir()
	fs, err := pfs.CreateReal(root, 4, 4096, true)
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	const files = 4
	if _, err := radar.WriteDataset(fs, s, files, files, false); err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name     string
		separate bool
		combine  bool
	}{
		{"embedded", false, false},
		{"separate", true, false},
		{"combined", false, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			p := stap.DefaultParams(s.Dims)
			p.PulseLen = s.PulseLen
			p.Bandwidth = s.Bandwidth
			pc := pipexec.Config{
				Params: p,
				Workers: core.STAPNodes{
					Doppler: 2, EasyWeight: 1, HardWeight: 1,
					EasyBF: 2, HardBF: 1, PulseComp: 2, CFAR: 1,
				},
				SeparateIO:    cfg.separate,
				CombinePCCFAR: cfg.combine,
			}
			src, err := pipexec.NewFileSource(fs, s.Dims, files)
			if err != nil {
				b.Fatal(err)
			}
			var last *pipexec.Result
			for i := 0; i < b.N; i++ {
				last, err = pipexec.Run(context.Background(), pc, src, 8)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.SteadyThroughput(), "CPIs/s")
			b.ReportMetric(float64(last.MeanLatency().Microseconds())/1e3, "latency-ms")
		})
	}
}

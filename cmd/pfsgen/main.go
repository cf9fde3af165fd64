// Command pfsgen generates the radar's round-robin staging dataset on a
// striped local store — the on-disk substitute for the radar writing its
// four data files into the parallel file system:
//
//	pfsgen -root /tmp/stap-data                     # paper-scale, 4 files
//	pfsgen -root /tmp/d -small -stripedirs 8        # small test dataset
//	pfsgen -root /tmp/d -cpis 8 -files 4 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"

	"stapio/internal/pfs"
	"stapio/internal/radar"
)

func main() {
	var (
		root    = flag.String("root", "", "root directory of the striped store (required)")
		dirs    = flag.Int("stripedirs", 16, "stripe factor (number of stripe directories)")
		unit    = flag.Int64("unit", 64<<10, "stripe unit in bytes")
		files   = flag.Int("files", radar.DefaultFileCount, "round-robin staging files")
		cpis    = flag.Int("cpis", radar.DefaultFileCount, "CPIs to generate (file i holds the last CPI = i mod files)")
		small   = flag.Bool("small", false, "generate the small test scenario instead of the paper-scale one")
		seed    = flag.Int64("seed", 0, "override the scenario seed (0 keeps the default)")
		targets = flag.Int("targets", -1, "limit the number of injected targets (-1 keeps all)")
	)
	flag.Parse()
	if *root == "" {
		flag.Usage()
		os.Exit(2)
	}
	sc := radar.PaperScenario()
	if *small {
		sc = radar.SmallTestScenario()
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *targets >= 0 && *targets < len(sc.Targets) {
		sc.Targets = sc.Targets[:*targets]
	}
	fs, err := pfs.CreateReal(*root, *dirs, *unit, true)
	if err != nil {
		fatal(err)
	}
	defer fs.Close()
	if _, err := radar.WriteDataset(fs, sc, *cpis, *files, false); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d CPIs (%v, %d bytes each) into %d round-robin files striped over %d dirs at %s\n",
		*cpis, sc.Dims, radar.DatasetFileBytes(sc.Dims), *files, *dirs, *root)
	for i, tg := range sc.Targets {
		fmt.Printf("  truth target %d: angle=%.2f doppler=%.3f range=%d snr=%.1fdB\n",
			i, tg.Angle, tg.Doppler, tg.Range, tg.SNR)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pfsgen:", err)
	os.Exit(1)
}

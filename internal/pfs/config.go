// Package pfs models the parallel file systems of the paper and provides a
// working striped-file backend.
//
// Two implementations share the same striping layout:
//
//   - Model: a discrete-event simulation of N stripe directories (one disk
//     server each) used by the pipeline performance simulator. It
//     reproduces the paper's PFS configurations — Paragon PFS with stripe
//     factors 16 and 64 (asynchronous reads via iread/iowait) and IBM
//     PIOFS with 80 slices (synchronous reads only).
//
//   - RealFS: actual files striped across local directories, each
//     sub-file opened once and read by one goroutine per stripe directory.
//     The functional pipeline executor reads CPI cubes through it, and its
//     FileSource.Begin / PendingCube.Wait pair mirrors the NX
//     iread()/iowait() pair.
package pfs

import (
	"fmt"
)

// Config describes a parallel file system: its striping geometry, its read
// semantics, and (for the model) its per-server service constants.
type Config struct {
	// Name identifies the configuration in reports, e.g. "PFS-16".
	Name string
	// StripeDirs is the stripe factor: the number of stripe directories
	// (I/O servers) a file is spread across.
	StripeDirs int
	// StripeUnit is the striping unit in bytes (64 KB in the paper).
	StripeUnit int64
	// Async reports whether the file system offers asynchronous reads
	// (Paragon NX iread/iowait). PIOFS does not, so reads cannot overlap
	// computation.
	Async bool
	// ServerBandwidth is the sustained per-server transfer rate in
	// bytes/second (model only).
	ServerBandwidth float64
	// ServerLatency is the fixed per-request service overhead in seconds
	// (seek + software path; model only).
	ServerLatency float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.StripeDirs < 1 {
		return fmt.Errorf("pfs: %s: stripe factor %d < 1", c.Name, c.StripeDirs)
	}
	if c.StripeUnit < 1 {
		return fmt.Errorf("pfs: %s: stripe unit %d < 1", c.Name, c.StripeUnit)
	}
	if c.ServerBandwidth <= 0 {
		return fmt.Errorf("pfs: %s: server bandwidth %v <= 0", c.Name, c.ServerBandwidth)
	}
	if c.ServerLatency < 0 {
		return fmt.Errorf("pfs: %s: negative server latency", c.Name)
	}
	return nil
}

// UnitsFor returns the number of stripe units a file of the given size
// occupies.
func (c Config) UnitsFor(bytes int64) int {
	return int((bytes + c.StripeUnit - 1) / c.StripeUnit)
}

// ServerFor returns the stripe directory holding unit u (round-robin).
func (c Config) ServerFor(unit int) int { return unit % c.StripeDirs }

// unitSpan returns the first unit, the number of units, touched by the
// byte interval [off, off+length).
func (c Config) unitSpan(off, length int64) (first, count int) {
	if length <= 0 {
		return 0, 0
	}
	first = int(off / c.StripeUnit)
	last := int((off + length - 1) / c.StripeUnit)
	return first, last - first + 1
}

// UnitServiceTime returns the model's service time for one request of n
// bytes at a stripe server.
func (c Config) UnitServiceTime(n int64) float64 {
	return c.ServerLatency + float64(n)/c.ServerBandwidth
}

// EstimateReadTime returns the contention-free time for one parallel read
// of [off, off+length): every touched server works concurrently, each
// serving its units back to back, so the read completes when the
// most-loaded server finishes. This is the closed-form counterpart of the
// model used by the analytic pipeline equations.
func (c Config) EstimateReadTime(off, length int64) float64 {
	first, count := c.unitSpan(off, length)
	if count == 0 {
		return 0
	}
	perServer := make([]float64, c.StripeDirs)
	for u := first; u < first+count; u++ {
		lo := max64(off, int64(u)*c.StripeUnit)
		hi := min64(off+length, int64(u+1)*c.StripeUnit)
		perServer[c.ServerFor(u)] += c.UnitServiceTime(hi - lo)
	}
	var worst float64
	for _, t := range perServer {
		if t > worst {
			worst = t
		}
	}
	return worst
}

// ParagonPFS returns the Paragon PFS configuration with the given stripe
// factor (the paper tested 16 and 64). Asynchronous reads are available
// through the NX library.
func ParagonPFS(stripeFactor int) Config {
	return Config{
		Name:            fmt.Sprintf("PFS-%d", stripeFactor),
		StripeDirs:      stripeFactor,
		StripeUnit:      64 << 10,
		Async:           true,
		ServerBandwidth: 8e6,
		ServerLatency:   3e-3,
	}
}

// PIOFS returns the IBM SP PIOFS configuration: 80 slices, synchronous
// reads only ("asynchronous parallel read/write subroutines are not
// supported on IBM PIOFS").
func PIOFS() Config {
	return Config{
		Name:            "PIOFS-80",
		StripeDirs:      80,
		StripeUnit:      64 << 10,
		Async:           false,
		ServerBandwidth: 6e6,
		ServerLatency:   4e-3,
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

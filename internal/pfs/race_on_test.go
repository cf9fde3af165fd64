//go:build race

package pfs

// raceEnabled reports that the race detector is active, which allocates on
// its own behalf, so allocation-count pins are only meaningful without it.
const raceEnabled = true

//go:build !race

package pfs

const raceEnabled = false

package experiments

import (
	"slices"
	"testing"

	"stapio/internal/core"
)

// TestOptimizedSplitsPinned pins the optimizer's exact split for each of
// Table 5's nine cells (the embedded design at its hand budgets). The
// shape tests only check bottlenecks and throughput ordering, so a change
// in how T_i is summed could otherwise move a node silently.
func TestOptimizedSplitsPinned(t *testing.T) {
	// Rows follow Setups(), columns Cases() (50, 100, 200 nodes).
	want := [3][3]core.Assignment{
		{ // Paragon PFS stripe=16
			{24, 2, 2, 6, 3, 12, 1},
			{34, 3, 6, 15, 7, 33, 2},
			{34, 7, 13, 41, 18, 83, 4},
		},
		{ // Paragon PFS stripe=64
			{24, 2, 2, 6, 3, 12, 1},
			{49, 3, 4, 11, 6, 25, 2},
			{101, 5, 8, 22, 11, 51, 2},
		},
		{ // SP PIOFS stripe=80
			{32, 1, 1, 4, 2, 9, 1},
			{76, 1, 2, 5, 2, 13, 1},
			{172, 1, 2, 6, 3, 15, 1},
		},
	}
	for si, s := range Setups() {
		for ci, c := range Cases() {
			p, err := Build(Embedded, c.Scale)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := core.OptimizeAssignment(p, s.Prof, s.FS, p.TotalNodes())
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want[si][ci]) {
				t.Errorf("%s, %s: optimizer split %v, want %v", s.Label, c.Label, got, want[si][ci])
			}
		}
	}
}

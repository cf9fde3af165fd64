package core

import (
	"fmt"

	"stapio/internal/machine"
	"stapio/internal/pfs"
)

// Node-assignment optimisation. The paper fixes its per-task node counts
// by hand; this solves the underlying design problem: given a total node
// budget, assign nodes to tasks to maximise throughput (minimise the
// maximum task service time), optionally breaking ties in favour of
// latency. Balance is the one solver: OptimizeAssignment runs it over the
// analytic T_i (Timing), and the online tuner (internal/tune) runs it over
// measured service times. The marginal-allocation greedy is optimal here
// because every task's service time is non-increasing in its own node
// count and independent of the other tasks' counts.

// Assignment maps task index to node count.
type Assignment []int

// Total returns the number of nodes used.
func (a Assignment) Total() int {
	var n int
	for _, v := range a {
		n += v
	}
	return n
}

// Apply returns a copy of the pipeline with the assignment installed.
func (p *Pipeline) Apply(a Assignment) (*Pipeline, error) {
	if len(a) != len(p.Tasks) {
		return nil, fmt.Errorf("core: assignment covers %d tasks, pipeline has %d", len(a), len(p.Tasks))
	}
	out := p.Clone()
	for i, n := range a {
		if n < 1 {
			return nil, fmt.Errorf("core: task %d assigned %d nodes", i, n)
		}
		out.Tasks[i].Nodes = n
	}
	return out, nil
}

// Balance distributes total nodes over n tasks by marginal allocation,
// the paper's balance condition (throughput = 1/max T_i) solved as
// discrete water-filling. service(a, i, nodes) is task i's service time on
// nodes nodes while the other tasks hold a. Starting from one node each,
// every further node goes to the task with the largest service time that
// one more node still improves; among tasks within 1e-12 of it, the larger
// gain wins. Balance stops early when no grant improves any task (capped,
// idle or I/O-bound tasks), so the result may total less than total; a
// total below n leaves every task its one node.
func Balance(n, total int, service func(a Assignment, i, nodes int) float64) Assignment {
	a := make(Assignment, n)
	for i := range a {
		a[i] = 1
	}
	for used := n; used < total; used++ {
		best, bestSvc, bestGain := -1, 0.0, 0.0
		for i := range a {
			svc := service(a, i, a[i])
			gain := svc - service(a, i, a[i]+1)
			if gain <= 0 {
				continue
			}
			if best == -1 || svc > bestSvc+1e-12 ||
				(svc > bestSvc-1e-12 && gain > bestGain) {
				best, bestSvc, bestGain = i, svc, gain
			}
		}
		if best == -1 {
			break
		}
		a[best]++
	}
	return a
}

// OptimizeAssignment distributes total nodes over the pipeline's tasks to
// minimise the bottleneck service time: Balance over each task's analytic
// Timing. Nodes that cannot improve throughput are then spent on latency
// (refineLatency). It returns the assignment and the predicted analysis.
func OptimizeAssignment(p *Pipeline, prof machine.Profile, fsCfg pfs.Config, total int) (Assignment, *Analysis, error) {
	n := len(p.Tasks)
	if total < n {
		return nil, nil, fmt.Errorf("core: %d nodes cannot cover %d tasks", total, n)
	}
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if err := prof.Validate(); err != nil {
		return nil, nil, err
	}
	work := p.Clone()
	a := Balance(n, total, func(a Assignment, i, nodes int) float64 {
		for j, v := range a {
			work.Tasks[j].Nodes = v
		}
		return Timing(work, prof, fsCfg, i, nodes).Service
	})
	if rest := total - a.Total(); rest > 0 {
		a = refineLatency(p, prof, fsCfg, a, rest)
	}
	final, err := p.Apply(a)
	if err != nil {
		return nil, nil, err
	}
	an, err := Analyze(final, prof, fsCfg)
	if err != nil {
		return nil, nil, err
	}
	return a, an, nil
}

// latencyGainFloor is the smallest relative latency improvement worth one
// more node; below it refineLatency stops rather than burn budget on
// vanishing returns.
const latencyGainFloor = 1e-3

// refineLatency greedily assigns up to spare extra nodes to minimise the
// analytic latency without hurting throughput. It stops as soon as no
// single-node grant improves latency by at least latencyGainFloor
// (relative).
func refineLatency(p *Pipeline, prof machine.Profile, fsCfg pfs.Config, a Assignment, spare int) Assignment {
	cur := append(Assignment(nil), a...)
	apply := func(asg Assignment) *Analysis {
		pp, err := p.Apply(asg)
		if err != nil {
			return nil
		}
		an, err := Analyze(pp, prof, fsCfg)
		if err != nil {
			return nil
		}
		return an
	}
	base := apply(cur)
	if base == nil {
		return cur
	}
	for ; spare > 0; spare-- {
		best := -1
		bestLat := base.Latency * (1 - latencyGainFloor)
		for i := range cur {
			cur[i]++
			if an := apply(cur); an != nil &&
				an.Latency < bestLat &&
				an.Throughput >= base.Throughput*(1-1e-12) {
				best = i
				bestLat = an.Latency
			}
			cur[i]--
		}
		if best == -1 {
			break
		}
		cur[best]++
		base = apply(cur)
		if base == nil {
			break
		}
	}
	return cur
}

// ProportionalAssignment divides total nodes proportionally to task
// workloads (at least one each) — the naive baseline the optimiser is
// compared against.
func ProportionalAssignment(p *Pipeline, total int) (Assignment, error) {
	n := len(p.Tasks)
	if total < n {
		return nil, fmt.Errorf("core: %d nodes cannot cover %d tasks", total, n)
	}
	var sum float64
	for _, t := range p.Tasks {
		sum += t.Flops
	}
	a := make(Assignment, n)
	used := 0
	for i, t := range p.Tasks {
		share := 1
		if sum > 0 {
			share = int(t.Flops / sum * float64(total))
		}
		if share < 1 {
			share = 1
		}
		a[i] = share
		used += share
	}
	// Trim or pad to hit the budget exactly, adjusting the largest/
	// smallest holders.
	for used > total {
		big := 0
		for i := range a {
			if a[i] > a[big] {
				big = i
			}
		}
		if a[big] == 1 {
			return nil, fmt.Errorf("core: cannot fit %d tasks in %d nodes", n, total)
		}
		a[big]--
		used--
	}
	for used < total {
		// Give spare nodes to the heaviest per-node workload.
		best, bestLoad := 0, -1.0
		for i, t := range p.Tasks {
			load := t.Flops / float64(a[i])
			if load > bestLoad {
				best, bestLoad = i, load
			}
		}
		a[best]++
		used++
	}
	return a, nil
}

package core

import (
	"fmt"

	"stapio/internal/machine"
	"stapio/internal/pfs"
)

// TaskTiming decomposes the analytic execution time of one task for one
// CPI, following the paper's T_i = W_i/P_i + C_i + V_i with the I/O phase
// added.
type TaskTiming struct {
	Name  string
	Nodes int
	// Read is the parallel file system read time (0 for tasks without an
	// I/O attachment).
	Read float64
	// Write is the parallel file system write time (0 for tasks that do
	// not persist output).
	Write float64
	// Recv is the time to receive this task's inputs from its producers.
	Recv float64
	// Compute is W_i / P_i.
	Compute float64
	// Send is the time to forward outputs to consumers.
	Send float64
	// Overhead is V_i, the parallelisation overhead.
	Overhead float64
	// Service is the task's steady-state occupancy per CPI: with an
	// asynchronous file system the I/O (Read + Write, which share the
	// stripe servers) overlaps the rest of the phases — max(IO, rest);
	// with a synchronous file system they add.
	Service float64
}

// Rest returns the non-I/O portion Recv + Compute + Send + Overhead.
func (t TaskTiming) Rest() float64 { return t.Recv + t.Compute + t.Send + t.Overhead }

// Analysis is the closed-form performance prediction for a pipeline on a
// machine + file system pair.
type Analysis struct {
	Pipeline *Pipeline
	Timings  []TaskTiming
	// Throughput is CPIs/second: 1 / max_i Service_i (paper eq. (1)/(3)).
	Throughput float64
	// Latency is the steady-state time from the head task starting a CPI
	// to the terminal task completing it (paper eq. (2)/(4)).
	Latency float64
	// Bottleneck is the index of the task with the largest service time.
	Bottleneck int
}

// Timing evaluates task i of p as if it ran on nodes nodes, against the
// node counts its producers and consumers currently hold. It is the one
// evaluation of T_i: Analyze, the optimiser and the simulator all call it.
// fsCfg must be valid when the task does I/O (Analyze checks).
func Timing(p *Pipeline, prof machine.Profile, fsCfg pfs.Config, i, nodes int) TaskTiming {
	t := p.Tasks[i]
	tt := TaskTiming{Name: t.Name, Nodes: nodes}
	tt.Compute = prof.ComputeTime(t.Flops, nodes)
	tt.Overhead = prof.Overhead(nodes, t.KernelCount())
	for _, d := range t.Deps {
		tt.Recv += prof.CommTime(d.Bytes, p.Tasks[d.From].Nodes, nodes)
	}
	for _, c := range p.Consumers(i) {
		tt.Send += prof.CommTime(c.Dep.Bytes, nodes, p.Tasks[c.To].Nodes)
	}
	if t.ReadBytes > 0 {
		tt.Read = fsCfg.EstimateReadTime(0, int64(t.ReadBytes))
	}
	if t.WriteBytes > 0 {
		// Writes use the same striped service path as reads.
		tt.Write = fsCfg.EstimateReadTime(0, int64(t.WriteBytes))
	}
	switch {
	case t.ReadBytes <= 0 && t.WriteBytes <= 0:
		tt.Service = tt.Rest()
	case fsCfg.Async:
		tt.Service = maxf(tt.Read+tt.Write, tt.Rest())
	default:
		tt.Service = tt.Read + tt.Write + tt.Rest()
	}
	return tt
}

// Analyze computes the analytic model. fsCfg supplies the file system for
// tasks with ReadBytes > 0; it may be the zero Config if no task reads.
func Analyze(p *Pipeline, prof machine.Profile, fsCfg pfs.Config) (*Analysis, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	n := len(p.Tasks)
	timings := make([]TaskTiming, n)
	for i, t := range p.Tasks {
		if t.ReadBytes > 0 || t.WriteBytes > 0 {
			if err := fsCfg.Validate(); err != nil {
				return nil, fmt.Errorf("core: task %d (%s) does I/O but file system config invalid: %w",
					i, t.Name, err)
			}
		}
		timings[i] = Timing(p, prof, fsCfg, i, t.Nodes)
	}

	a := &Analysis{Pipeline: p, Timings: timings}
	var period float64
	for i, tt := range timings {
		if tt.Service > period {
			period = tt.Service
			a.Bottleneck = i
		}
	}
	if period <= 0 {
		return nil, fmt.Errorf("core: pipeline %q has zero total work", p.Name)
	}
	a.Throughput = 1 / period

	// Steady-state latency recurrence: in a pipeline with period Period,
	// instance k of task i starts at s_i + k*Period. An edge (j -> i,
	// lag l) forces s_i >= s_j + Service_j - l*Period: the consumed output
	// was produced l periods earlier. Latency is the terminal completion
	// minus the head start. For the STAP graph this reduces to the paper's
	// latency = T_0 + max(T_3, T_4) + T_5 + T_6: the lag-1 weight edges
	// drop out because s_w + T_w - Period <= s_doppler-side constraint.
	start := make([]float64, n)
	for i, t := range p.Tasks {
		s := 0.0
		for _, d := range t.Deps {
			c := start[d.From] + timings[d.From].Service - float64(d.Lag)*period
			if c > s {
				s = c
			}
		}
		start[i] = s
	}
	term := n - 1
	a.Latency = start[term] + timings[term].Service - start[0]
	return a, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

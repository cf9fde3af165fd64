// Package stapio reproduces "Design and Evaluation of I/O Strategies for
// Parallel Pipelined STAP Applications" (Liao, Choudhary, Weiner,
// Varshney; IPPS/IPDPS 2000) as a Go library.
//
// The system has two halves:
//
//   - A working parallel pipelined STAP processor (internal/stap,
//     internal/pipexec): Doppler filter processing, easy/hard adaptive
//     weight computation, easy/hard beamforming, pulse compression, and
//     CFAR detection over goroutine worker pools, fed by a striped
//     parallel-file-system backend (internal/pfs) read through
//     asynchronous iread/iowait-style fetches.
//
//   - A performance model of the paper's machines (internal/core,
//     internal/machine, internal/pfs, internal/pipesim): the pipeline
//     task graph with spatial and temporal dependencies, the throughput
//     and latency equations, the task-combination algebra, and a
//     discrete-event simulation that regenerates every table and figure
//     of the paper's evaluation (internal/experiments, cmd/stapbench).
//
// See README.md for a tour, DESIGN.md for the system inventory and the
// reconstruction decisions, and EXPERIMENTS.md for paper-vs-measured
// results.
package stapio

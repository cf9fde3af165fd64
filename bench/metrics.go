package main

// metricDef is one declared metric: BENCHMARK.json lists exactly these
// (metrics_test.go holds the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen
}

// endToEnd are the metrics of a --trace 0 run, the same on every workload.
// Only set-up time is a clock reading. The acceptance host measured the
// throughput and the median latency of the CPU-bound rows a quarter to a
// half apart between runs of the same code (a neighbour on the host, slower
// than any allowed run; see README, Steadiness), which no allowed bound
// covers, so both are per-layer (diag.cpis_per_s, diag.latency_p50_ms), as
// the tail latency already was (diag.latency_p90_ms). The two counts repeat
// closely and are where a regression shows.
var endToEnd = []metricDef{
	{"allocs_per_cpi", "count", "lower", 0.05},
	{"mem_high_water_mib", "MiB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of a --trace 1 run, named <module>.<metric>. A
// layer off a workload's path reads 0.
var perLayer = []metricDef{
	{Name: "radar.generate_ms_per_cube", Unit: "ms", Better: "lower"},
	{Name: "radar.encode_ms_per_cube", Unit: "ms", Better: "lower"},

	{Name: "pfs.read_ms_per_cube", Unit: "ms", Better: "lower"},
	{Name: "pfs.read_mib_per_s", Unit: "MiB/s", Better: "higher"},
	{Name: "pfs.write_ms_per_cube", Unit: "ms", Better: "lower"},
	{Name: "pfs.report_write_ms", Unit: "ms", Better: "lower"},
	{Name: "pfs.slow_injected", Unit: "count", Better: "lower"},
	{Name: "pfs.corrupt_injected", Unit: "count", Better: "lower"},

	{Name: "cube.verify_ms_per_cube", Unit: "ms", Better: "lower"},
	{Name: "cube.decode_ms_per_cube", Unit: "ms", Better: "lower"},
	{Name: "cube.encode_ms_per_cube", Unit: "ms", Better: "lower"},
	{Name: "cube.bytes_per_cube", Unit: "B", Better: "lower"},

	{Name: "signal.fft_doppler_us", Unit: "us", Better: "lower"},
	{Name: "signal.fft_pulsecomp_us", Unit: "us", Better: "lower"},
	{Name: "linalg.solve_hard_us", Unit: "us", Better: "lower"},

	{Name: "stap.doppler_ms", Unit: "ms", Better: "lower"},
	{Name: "stap.cov_easy_ms", Unit: "ms", Better: "lower"},
	{Name: "stap.cov_hard_ms", Unit: "ms", Better: "lower"},
	{Name: "stap.weights_easy_ms", Unit: "ms", Better: "lower"},
	{Name: "stap.weights_hard_ms", Unit: "ms", Better: "lower"},
	{Name: "stap.beamform_easy_ms", Unit: "ms", Better: "lower"},
	{Name: "stap.beamform_hard_ms", Unit: "ms", Better: "lower"},
	{Name: "stap.pulsecomp_ms", Unit: "ms", Better: "lower"},
	{Name: "stap.cfar_ms", Unit: "ms", Better: "lower"},
	{Name: "stap.kernel_sum_ms", Unit: "ms", Better: "lower"},
	{Name: "stap.chain_ms", Unit: "ms", Better: "lower"},
	{Name: "stap.chain_allocs_per_cpi", Unit: "count", Better: "lower"},
	{Name: "stap.flops_per_cpi", Unit: "flop", Better: "lower"},
	{Name: "stap.doppler_band_ms", Unit: "ms", Better: "lower"},
	{Name: "stap.cov_band_ms", Unit: "ms", Better: "lower"},
	{Name: "stap.beamform_band_ms", Unit: "ms", Better: "lower"},

	{Name: "pipexec.stage.read.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "pipexec.stage.doppler.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "pipexec.stage.easy_weight.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "pipexec.stage.hard_weight.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "pipexec.stage.easy_bf.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "pipexec.stage.hard_bf.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "pipexec.stage.pulse_compr.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "pipexec.stage.cfar.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "pipexec.stage.src_read.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "pipexec.stage.src_decode.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "pipexec.source_stall_ms_per_cpi", Unit: "ms", Better: "lower"},
	{Name: "pipexec.source_stall_share", Unit: "ratio", Better: "lower"},
	{Name: "pipexec.readahead_ready", Unit: "count", Better: "higher"},
	{Name: "pipexec.retries", Unit: "count", Better: "lower"},
	{Name: "pipexec.chunk_rereads", Unit: "count", Better: "lower"},
	{Name: "pipexec.repaired_reads", Unit: "count", Better: "lower"},
	{Name: "pipexec.drops", Unit: "count", Better: "lower"},
	{Name: "pipexec.speedup_vs_chain", Unit: "ratio", Better: "higher"},
	{Name: "pipexec.stage_over_kernel_ratio", Unit: "ratio", Better: "lower"},
	{Name: "pipexec.model_throughput_ratio", Unit: "ratio", Better: "higher"},
	{Name: "pipexec.model_latency_ratio", Unit: "ratio", Better: "lower"},
	{Name: "pipexec.banded_over_full_ratio", Unit: "ratio", Better: "higher"},
	{Name: "pipexec.inproc_stream_cpis_per_s", Unit: "1/s", Better: "higher"},
	{Name: "pipexec.readband_ms_per_cpi", Unit: "ms", Better: "lower"},

	{Name: "membudget.stalls", Unit: "count", Better: "lower"},
	{Name: "membudget.stall_ms_per_cpi", Unit: "ms", Better: "lower"},
	{Name: "membudget.high_water_over_limit", Unit: "ratio", Better: "lower"},

	{Name: "tune.rebalances", Unit: "count", Better: "lower"},
	{Name: "tune.final_readahead", Unit: "count", Better: "higher"},
	{Name: "tune.final_decode_workers", Unit: "count", Better: "higher"},
	{Name: "tune.whole_over_tail_ratio", Unit: "ratio", Better: "higher"},

	{Name: "serve.submit_call_us", Unit: "us", Better: "lower"},
	{Name: "serve.client_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.server_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.wire_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.repair_reqs", Unit: "count", Better: "lower"},
	{Name: "serve.over_inproc_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.framed_over_streamed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.rate150_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.rate300_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.rate600_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.max_rate_under_limit", Unit: "1/s", Better: "higher"},
	{Name: "fleet.hop_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.failovers", Unit: "count", Better: "lower"},

	{Name: "proc.cpu_ms_per_cpi", Unit: "ms", Better: "lower"},
	{Name: "gen.late_share", Unit: "ratio", Better: "lower"},
	{Name: "gen.max_late_ms", Unit: "ms", Better: "lower"},
	{Name: "diag.cpis_per_s", Unit: "1/s", Better: "higher"},
	{Name: "diag.latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "diag.tail_percentile", Unit: "%", Better: "higher"},
	{Name: "diag.latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "diag.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "diag.failed_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
}

// stageKey maps a pipexec stage-clock name onto its metric-name segment.
var stageKey = map[string]string{
	"read":        "read",
	"band read":   "read",
	"doppler":     "doppler",
	"easy weight": "easy_weight",
	"hard weight": "hard_weight",
	"easy BF":     "easy_bf",
	"hard BF":     "hard_bf",
	"pulse compr": "pulse_compr",
	"CFAR":        "cfar",
	"src read":    "src_read",
	"src decode":  "src_decode",
}

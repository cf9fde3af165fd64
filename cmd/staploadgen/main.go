// Command staploadgen is a closed-loop load generator for the stapserve
// detection service: it replays a pre-encoded radar dataset over TCP,
// keeping a fixed number of CPIs in flight, and reports the sustained
// throughput and the submit-to-result latency percentiles.
//
//	staploadgen -addr 127.0.0.1:7420 -n 500
//	staploadgen -addr 127.0.0.1:7420 -n 500 -window 4 -json runs.json
//	staploadgen -addr 127.0.0.1:7420 -faults corrupt=0.1,seed=7
//	staploadgen -addr 127.0.0.1:7420 -chunkpace 200us
//	staploadgen -addr 127.0.0.1:7420 -arrivals poisson -rate 400 -n 2000
//	staploadgen -addr host1:7420,host2:7420,host3:7420 -n 1000
//
// With one -addr the generator drives a single serve.Client directly.
// With several (comma-separated), it drives a fleet.Client instead: CPIs
// are routed by rendezvous hashing, failures fail over between servers
// with per-server circuit breakers, and the run reports per-server latency
// percentiles plus the fleet's failover/retry/breaker counters — this is
// the harness the chaos smoke test kills servers under. -health supplies
// the matching /healthz endpoints so open breakers can probe for recovery.
//
// The generator pre-encodes a small set of distinct CPIs once (generation
// is far slower than the pipeline) and replays them round-robin, restamping
// each submission's sequence number. With -faults it corrupts payload
// chunks on the wire, exercising the server's chunk re-request repair; a
// repaired CPI still counts as delivered, not dropped. Cubes cross the
// wire chunk-by-chunk (no file image server-side); -chunkpace throttles
// the chunk stream to model a slow front-end producer.
//
// The default arrival process is closed-loop: the next submit waits for a
// free window slot, so offered load tracks service rate. -arrivals poisson
// switches to an open-loop process: submissions fire on a pre-drawn,
// seeded exponential schedule at -rate CPIs/s regardless of completions
// (still bounded by the admission window — when the service falls behind,
// the generator blocks and the latency percentiles show the queueing).
//
// Exit status is non-zero if any CPI was dropped (rejected or unanswered).
// In fleet mode, -tolerate downgrades typed per-CPI failures (e.g. a CPI
// abandoned on a crashed server) to warnings — only an unanswered CPI (a
// hang, which the fleet client is designed to never produce) still fails
// the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"stapio/internal/cube"
	"stapio/internal/fleet"
	"stapio/internal/pfs"
	"stapio/internal/radar"
	"stapio/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7420", "detection service address(es), comma-separated; more than one drives the fleet client")
		health    = flag.String("health", "", "matching /healthz HTTP address(es), comma-separated, for breaker recovery probes (fleet mode)")
		scenario  = flag.String("scenario", "small", "cube geometry to replay: small | paper")
		n         = flag.Int("n", 500, "CPIs to submit")
		window    = flag.Int("window", 0, "CPIs kept in flight (0 = the advertised capacity)")
		templates = flag.Int("templates", 8, "distinct pre-encoded CPIs replayed round-robin")
		chunk     = flag.Int("chunk", 4096, "cube chunk size in bytes (multiple of 8)")
		faultSpec = flag.String("faults", "", "wire fault spec, e.g. corrupt=0.1,seed=7 (empty = clean)")
		chunkPace = flag.Duration("chunkpace", 0, "minimum delay between streamed chunks, modelling a slow producer")
		arrivals  = flag.String("arrivals", "closed", "arrival process: closed (next submit waits for a window slot) | poisson (open-loop exponential inter-arrivals at -rate)")
		rate      = flag.Float64("rate", 0, "offered arrival rate in CPIs/s for -arrivals poisson")
		seed      = flag.Int64("seed", 1, "arrival-process RNG seed")
		jsonOut   = flag.String("json", "", "append the run to this JSON report file")
		phaseK    = flag.Int("phasek", 0, "per-phase window: also report steady throughput over the first K and last K results (0 = n/4, min 2) — shows tuner convergence, not just the average")
		pace      = flag.Duration("pace", 0, "minimum delay between submissions (stretches the run so chaos events land mid-load)")
		deadline  = flag.Duration("deadline", 15*time.Second, "per-CPI deadline budget across retries (fleet mode)")
		retries   = flag.Int("retries", 4, "max submit attempts per CPI across the fleet")
		cooldown  = flag.Duration("breaker-cooldown", time.Second, "circuit-breaker open duration before a recovery trial (fleet mode)")
		tolerate  = flag.Bool("tolerate", false, "fleet mode: typed per-CPI failures are warnings, only unanswered CPIs fail the run")
		httpAddr  = flag.String("http", "", "serve the fleet client's /healthz and /stats on this HTTP address during the run (fleet mode; empty disables)")
	)
	flag.Parse()

	switch *arrivals {
	case "closed":
		if *rate != 0 {
			fatal(fmt.Errorf("-rate requires -arrivals poisson"))
		}
	case "poisson":
		if *rate <= 0 {
			fatal(fmt.Errorf("-arrivals poisson requires -rate > 0"))
		}
		if *pace > 0 {
			fatal(fmt.Errorf("-pace and -arrivals poisson both schedule submissions; pick one"))
		}
	default:
		fatal(fmt.Errorf("unknown -arrivals %q (want closed or poisson)", *arrivals))
	}

	s, err := scenarioByName(*scenario)
	if err != nil {
		fatal(err)
	}
	plan, err := pfs.ParseFaultSpec(*faultSpec)
	if err != nil {
		fatal(err)
	}
	tc := *templates
	if tc > *n {
		tc = *n
	}
	frames, err := radar.EncodeCPIs(s, tc, *chunk)
	if err != nil {
		fatal(err)
	}

	addrs := splitList(*addr)
	if len(addrs) == 0 {
		fatal(fmt.Errorf("no server address given"))
	}
	healths := splitList(*health)
	if len(healths) > 0 && len(healths) != len(addrs) {
		fatal(fmt.Errorf("-health lists %d addresses for %d servers", len(healths), len(addrs)))
	}

	opts := genOptions{
		n: *n, window: *window, phaseK: *phaseK, pace: *pace,
		arrivals: *arrivals, rate: *rate, seed: *seed,
		chunkPace: *chunkPace,
	}
	var run *Run
	if len(addrs) == 1 && len(healths) == 0 {
		run, err = driveDirect(addrs[0], s, plan, frames, opts)
	} else {
		run, err = driveFleetMode(addrs, healths, s, plan, frames, opts,
			*deadline, *retries, *cooldown, *httpAddr)
	}
	if err != nil {
		fatal(err)
	}
	run.Addr = *addr
	run.Scenario = *scenario
	run.ChunkSize = *chunk
	run.Faults = *faultSpec
	if *arrivals == "poisson" {
		run.Arrivals = *arrivals
		run.OfferedRate = *rate
	}
	run.Timestamp = time.Now().UTC().Format(time.RFC3339)

	fmt.Printf("submitted %d CPIs in %.2fs: %.0f CPIs/s, latency p50 %.3fms p95 %.3fms p99 %.3fms max %.3fms\n",
		run.CPIs, run.WallSeconds, run.Throughput,
		run.LatencyMs["p50"], run.LatencyMs["p95"], run.LatencyMs["p99"], run.LatencyMs["max"])
	if run.Arrivals != "" {
		fmt.Printf("arrivals: poisson, offered %.0f CPIs/s, delivered %.0f\n", run.OfferedRate, run.Steady)
	}
	if run.PhaseK > 0 {
		fmt.Printf("phases (K=%d): first-K %.0f CPIs/s, last-K %.0f CPIs/s (steady %.0f)\n",
			run.PhaseK, run.SteadyFirst, run.SteadyLast, run.Steady)
	}
	if run.Repaired > 0 || run.Injected > 0 {
		fmt.Printf("repair: %d corruptions injected, %d repair requests served, %d chunks re-sent\n",
			run.Injected, run.RepairReqs, run.ChunkResends)
	}
	if len(run.Servers) > 0 {
		fmt.Printf("fleet: %d servers, %d answered (%d ok, %d typed-failed, %d unanswered), %d failovers, %d retries, %d abandoned\n",
			len(run.Servers), run.Answered, run.Answered-int(run.Failed), run.Failed, run.Unanswered,
			run.Failovers, run.Retries, run.Abandoned)
		fmt.Printf("breakers: %d opens, %d half-opens, %d closes\n",
			run.BreakerOpens, run.BreakerHalfOpens, run.BreakerCloses)
		for _, ss := range run.Servers {
			p := run.PerServerLatencyMs[ss.Addr]
			fmt.Printf("  %s: %d completed, p50 %.3fms p99 %.3fms, breaker %s (%d/%d/%d)\n",
				ss.Addr, ss.Completed, p["p50"], p["p99"],
				ss.Breaker.State, ss.Breaker.Opens, ss.Breaker.HalfOpens, ss.Breaker.Closes)
		}
	}
	if *jsonOut != "" {
		if err := appendRun(*jsonOut, run); err != nil {
			fatal(err)
		}
	}
	switch {
	case run.Unanswered > 0:
		fmt.Fprintf(os.Stderr, "staploadgen: %d of %d CPIs unanswered (hang)\n", run.Unanswered, run.CPIs)
		os.Exit(1)
	case run.Dropped > 0 && !(*tolerate && len(run.Servers) > 0):
		fmt.Fprintf(os.Stderr, "staploadgen: %d of %d CPIs dropped\n", run.Dropped, run.CPIs)
		os.Exit(1)
	}
}

// splitList parses a comma-separated flag value, dropping empty entries.
func splitList(v string) []string {
	var out []string
	for _, s := range strings.Split(v, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// Run is one load-generation run, as appended to the JSON report.
type Run struct {
	Timestamp string `json:"timestamp"`
	Addr      string `json:"addr"`
	Scenario  string `json:"scenario"`
	CPIs      int    `json:"cpis"`
	Window    int    `json:"window"`
	ChunkSize int    `json:"chunk_size"`
	Faults    string `json:"faults,omitempty"`
	// Arrivals/OfferedRate record an open-loop run: submissions fired on a
	// seeded exponential schedule at OfferedRate CPIs/s rather than waiting
	// for completions.
	Arrivals    string  `json:"arrivals,omitempty"`
	OfferedRate float64 `json:"offered_rate_cpi_per_s,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`
	Throughput  float64 `json:"throughput_cpi_per_s"`
	// Steady is the steady-state rate: results-per-second between the
	// first and last result arrival, excluding connect/ramp (the same
	// window as pipexec.Result.SteadyThroughput).
	Steady float64 `json:"steady_cpi_per_s"`
	// PhaseK splits the run into phases of K results; SteadyFirst/SteadyLast
	// are the arrival rates over the first and last K. Against an autotuned
	// server the gap is the tuner's convergence gain — the last-K rate is the
	// post-convergence throughput, where Steady averages the cold split in.
	PhaseK      int                `json:"phase_k,omitempty"`
	SteadyFirst float64            `json:"steady_first_cpi_per_s,omitempty"`
	SteadyLast  float64            `json:"steady_last_cpi_per_s,omitempty"`
	LatencyMs   map[string]float64 `json:"latency_ms"`
	ServerMs    map[string]float64 `json:"server_latency_ms"`
	// Dropped counts CPIs that did not complete: typed failures plus
	// unanswered ones. Answered/Unanswered split the accounting the fleet's
	// exactly-once contract cares about: every CPI must be answered —
	// completed or typed-failed — and Unanswered must be zero even when a
	// server is SIGKILLed mid-run.
	Dropped    int `json:"dropped"`
	Answered   int `json:"answered"`
	Unanswered int `json:"unanswered"`

	Injected     int64 `json:"corruptions_injected,omitempty"`
	RepairReqs   int64 `json:"repair_reqs,omitempty"`
	ChunkResends int64 `json:"chunk_resends,omitempty"`
	Repaired     int64 `json:"repaired,omitempty"`

	// Fleet-mode extras (absent on single-server runs).
	Failed             int64                         `json:"failed_typed,omitempty"`
	Failovers          int64                         `json:"failovers,omitempty"`
	Retries            int64                         `json:"retries,omitempty"`
	Abandoned          int64                         `json:"abandoned,omitempty"`
	BreakerOpens       int64                         `json:"breaker_opens,omitempty"`
	BreakerHalfOpens   int64                         `json:"breaker_half_opens,omitempty"`
	BreakerCloses      int64                         `json:"breaker_closes,omitempty"`
	Servers            []fleet.ServerStats           `json:"servers,omitempty"`
	PerServerLatencyMs map[string]map[string]float64 `json:"per_server_latency_ms,omitempty"`
}

// genOptions is the arrival/transport shape of a run, shared by the direct
// and fleet drivers.
type genOptions struct {
	n, window, phaseK int
	pace              time.Duration
	arrivals          string  // "closed" | "poisson"
	rate              float64 // offered CPIs/s for poisson
	seed              int64
	chunkPace         time.Duration
}

// schedule pre-draws the open-loop submit offsets, or nil for the closed
// loop. Drawing the whole schedule up front keeps the arrival process
// independent of service jitter (and reproducible under -seed).
func (o genOptions) schedule() []time.Duration {
	if o.arrivals != "poisson" {
		return nil
	}
	rng := rand.New(rand.NewSource(o.seed))
	out := make([]time.Duration, o.n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / o.rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// driveDirect replays the frames against one server over a plain
// serve.Client — the single-server path.
func driveDirect(addr string, s *radar.Scenario, plan *pfs.FaultPlan, frames [][]byte, opts genOptions) (*Run, error) {
	n := opts.n
	cl, err := serve.Dial(addr, serve.Options{
		Dims: s.Dims, Faults: plan, ResultBuffer: 256, ChunkPace: opts.chunkPace,
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	w := opts.window
	if w < 1 || w > cl.MaxInFlight() {
		w = cl.MaxInFlight()
	}
	sem := make(chan struct{}, w)
	latencies := make([]time.Duration, 0, n)
	serverLat := make([]time.Duration, 0, n)
	arrivals := make([]time.Time, 0, n)
	dropped := 0
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		got := 0
		for r := range cl.Results() {
			if r.Err != nil {
				dropped++
				fmt.Fprintf(os.Stderr, "staploadgen: CPI %d: %v\n", r.Seq, r.Err)
			} else {
				latencies = append(latencies, r.Latency)
				serverLat = append(serverLat, r.ServerLatency)
				arrivals = append(arrivals, time.Now())
			}
			<-sem
			if got++; got == n {
				return
			}
		}
	}()

	sched := opts.schedule()
	start := time.Now()
	for seq := 0; seq < n; seq++ {
		// The submitted buffer must stay untouched until its result is in,
		// so each in-flight CPI gets its own copy of the template,
		// restamped with its sequence number.
		frame := append([]byte(nil), frames[seq%len(frames)]...)
		if err := cube.PatchSeq(frame, uint64(seq)); err != nil {
			return nil, err
		}
		if sched != nil {
			if d := time.Until(start.Add(sched[seq])); d > 0 {
				time.Sleep(d)
			}
		}
		sem <- struct{}{}
		if _, err := cl.Submit(frame); err != nil {
			return nil, fmt.Errorf("submit CPI %d: %w", seq, err)
		}
		if opts.pace > 0 {
			time.Sleep(opts.pace)
		}
	}
	<-collected
	wall := time.Since(start)

	run := &Run{
		CPIs:        n,
		Window:      w,
		WallSeconds: wall.Seconds(),
		Throughput:  float64(n) / wall.Seconds(),
		LatencyMs:   percentilesMs(latencies),
		ServerMs:    percentilesMs(serverLat),
		Dropped:     dropped,
		Answered:    n,
	}
	fillArrivalStats(run, arrivals, opts.phaseK)
	run.RepairReqs, run.ChunkResends, run.Injected = cl.RepairStats()
	run.Repaired = cl.RepairedFrames()
	return run, nil
}

// driveFleetMode replays the frames closed-loop through a fleet.Client
// spanning several servers, gathering per-server latency splits and the
// fleet's failover/breaker counters.
func driveFleetMode(addrs, healths []string, s *radar.Scenario, plan *pfs.FaultPlan, frames [][]byte,
	opts genOptions, deadline time.Duration, retries int, cooldown time.Duration, httpAddr string) (*Run, error) {
	n := opts.n
	specs := make([]fleet.ServerSpec, len(addrs))
	for i, a := range addrs {
		specs[i] = fleet.ServerSpec{Addr: a}
		if len(healths) > 0 {
			specs[i].Health = healths[i]
		}
	}
	fc, err := fleet.New(fleet.Options{
		Dims:    s.Dims,
		Servers: specs,
		Dial: serve.Options{
			Faults: plan, ResultBuffer: 256, ChunkPace: opts.chunkPace,
		},
		MaxAttempts: retries,
		CPIDeadline: deadline,
		Breaker:     fleet.BreakerConfig{Cooldown: cooldown},
	})
	if err != nil {
		return nil, err
	}
	defer fc.Close()
	capacity, err := fc.Connect()
	if err != nil {
		return nil, err
	}
	if httpAddr != "" {
		go http.ListenAndServe(httpAddr, fc.StatsHandler())
	}

	w := opts.window
	if w < 1 || w > capacity {
		w = capacity
	}
	sem := make(chan struct{}, w)
	latencies := make([]time.Duration, 0, n)
	serverLat := make([]time.Duration, 0, n)
	arrivals := make([]time.Time, 0, n)
	perServer := make(map[string][]time.Duration)
	var answered, failed atomic.Int64
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		got := 0
		for r := range fc.Results() {
			if r.Err != nil {
				failed.Add(1)
				fmt.Fprintf(os.Stderr, "staploadgen: CPI %d (attempt %d): %v\n", r.Seq, r.Attempts, r.Err)
			} else {
				latencies = append(latencies, r.Latency)
				serverLat = append(serverLat, r.ServerLatency)
				arrivals = append(arrivals, time.Now())
				perServer[r.Server] = append(perServer[r.Server], r.Latency)
			}
			answered.Add(1)
			<-sem
			if got++; got == n {
				return
			}
		}
	}()

	sched := opts.schedule()
	start := time.Now()
	submitErr := make(chan error, 1)
	go func() {
		for seq := 0; seq < n; seq++ {
			frame := append([]byte(nil), frames[seq%len(frames)]...)
			if err := cube.PatchSeq(frame, uint64(seq)); err != nil {
				submitErr <- err
				return
			}
			if sched != nil {
				if d := time.Until(start.Add(sched[seq])); d > 0 {
					time.Sleep(d)
				}
			}
			sem <- struct{}{}
			if _, err := fc.Submit(frame); err != nil {
				submitErr <- fmt.Errorf("submit CPI %d: %w", seq, err)
				return
			}
			if opts.pace > 0 {
				time.Sleep(opts.pace)
			}
		}
	}()

	// The fleet client's contract is that every CPI resolves within its
	// deadline; the watchdog is the backstop that turns a contract
	// violation (a hang) into a reported unanswered count, not a stuck
	// process.
	watchdog := time.Duration(n)*opts.pace + deadline + 30*time.Second
	if sched != nil {
		watchdog += sched[len(sched)-1]
	}
	timedOut := false
	select {
	case <-collected:
	case err := <-submitErr:
		return nil, err
	case <-time.After(watchdog):
		timedOut = true
	}
	wall := time.Since(start)

	run := &Run{
		CPIs:        n,
		Window:      w,
		WallSeconds: wall.Seconds(),
		Throughput:  float64(n) / wall.Seconds(),
		Answered:    int(answered.Load()),
		Failed:      failed.Load(),
	}
	run.Unanswered = n - run.Answered
	run.Dropped = int(run.Failed) + run.Unanswered
	if !timedOut {
		// The collector goroutine has exited; its slices are safe to read.
		run.LatencyMs = percentilesMs(latencies)
		run.ServerMs = percentilesMs(serverLat)
		fillArrivalStats(run, arrivals, opts.phaseK)
		run.PerServerLatencyMs = make(map[string]map[string]float64, len(perServer))
		for a, d := range perServer {
			run.PerServerLatencyMs[a] = percentilesMs(d)
		}
	} else {
		run.LatencyMs = percentilesMs(nil)
		run.ServerMs = percentilesMs(nil)
	}
	st := fc.Stats()
	run.Failovers = st.Failovers
	run.Retries = st.Retries
	run.Abandoned = st.Abandoned
	run.BreakerOpens = st.BreakerOpens
	run.BreakerHalfOpens = st.BreakerHalfOpens
	run.BreakerCloses = st.BreakerCloses
	run.Servers = st.Servers
	return run, nil
}

// fillArrivalStats derives the steady-state and phase throughput figures
// from the result arrival times.
func fillArrivalStats(run *Run, arrivals []time.Time, phaseK int) {
	if len(arrivals) > 1 {
		if span := arrivals[len(arrivals)-1].Sub(arrivals[0]).Seconds(); span > 0 {
			run.Steady = float64(len(arrivals)-1) / span
		}
	}
	if k := phaseWindow(phaseK, len(arrivals)); k > 0 {
		run.PhaseK = k
		run.SteadyFirst = arrivalRate(arrivals[:k])
		run.SteadyLast = arrivalRate(arrivals[len(arrivals)-k:])
	}
}

// phaseWindow resolves the -phasek flag: 0 defaults to a quarter of the
// delivered results, the window never drops below 2 results or exceeds
// what was delivered, and fewer than 4 results carry no phase signal.
func phaseWindow(k, delivered int) int {
	if delivered < 4 {
		return 0
	}
	if k <= 0 {
		k = delivered / 4
	}
	if k < 2 {
		k = 2
	}
	if k > delivered {
		k = delivered
	}
	return k
}

// arrivalRate is results-per-second across a window of arrival times.
func arrivalRate(a []time.Time) float64 {
	if len(a) < 2 {
		return 0
	}
	span := a[len(a)-1].Sub(a[0]).Seconds()
	if span <= 0 {
		return 0
	}
	return float64(len(a)-1) / span
}

// percentilesMs summarises latencies in milliseconds.
func percentilesMs(d []time.Duration) map[string]float64 {
	out := map[string]float64{"p50": 0, "p90": 0, "p95": 0, "p99": 0, "max": 0}
	if len(d) == 0 {
		return out
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(d)-1))
		return float64(d[i]) / float64(time.Millisecond)
	}
	out["p50"] = at(0.50)
	out["p90"] = at(0.90)
	out["p95"] = at(0.95)
	out["p99"] = at(0.99)
	out["max"] = float64(d[len(d)-1]) / float64(time.Millisecond)
	return out
}

// report is the committed artifact: an append-only list of runs.
type report struct {
	Runs []*Run `json:"runs"`
}

func appendRun(path string, run *Run) error {
	var doc report
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	doc.Runs = append(doc.Runs, run)
	raw, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func scenarioByName(name string) (*radar.Scenario, error) {
	switch name {
	case "small":
		return radar.SmallTestScenario(), nil
	case "paper":
		return radar.PaperScenario(), nil
	default:
		return nil, fmt.Errorf("unknown scenario %q (want small or paper)", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "staploadgen:", err)
	os.Exit(1)
}

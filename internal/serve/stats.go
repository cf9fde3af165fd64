package serve

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"

	"stapio/internal/pipexec"
)

// counters are the server's live atomic counters.
type counters struct {
	connsTotal  atomic.Int64
	connsActive atomic.Int64

	accepted         atomic.Int64
	completed        atomic.Int64
	resultsSent      atomic.Int64
	orphaned         atomic.Int64
	rejectedOverload atomic.Int64
	rejectedDraining atomic.Int64
	rejectedCorrupt  atomic.Int64
	rejectedOther    atomic.Int64

	repairReqs       atomic.Int64
	repairedFrames   atomic.Int64
	chunkResends     atomic.Int64
	chunkResendBytes atomic.Int64

	streamedChunks atomic.Int64
	streamMaxFrame atomic.Int64
}

// noteStreamFrame records an ingest frame's payload size; the running
// maximum is the observable proof that ingest never materialises a
// whole-cube file image (it stays at one chunk + prefix).
func (c *counters) noteStreamFrame(n int) {
	for {
		cur := c.streamMaxFrame.Load()
		if int64(n) <= cur || c.streamMaxFrame.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// ReplicaStats is one pipeline replica's slice of a stats snapshot.
type ReplicaStats struct {
	ID         int   `json:"id"`
	Dispatched int64 `json:"dispatched"`
	Completed  int64 `json:"completed"`
	InFlight   int   `json:"in_flight"`
	// IO is the replica pipeline's live frontend view: current readahead
	// depth and decode workers, source-stall counters, and window
	// occupancy — sampled while the replica runs, so operators can tell
	// an I/O-starved replica from a compute-bound one without stopping it.
	IO pipexec.IOSnapshot `json:"io"`
	// Pipeline carries the replica's pipexec resilience counters and stage
	// stats once the replica has stopped (nil while running — pipexec only
	// summarises on Stop).
	Pipeline *pipexec.Result `json:"pipeline,omitempty"`
}

// Stats is a point-in-time snapshot of the service, as served on the HTTP
// stats endpoint.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`

	ConnsActive int64 `json:"conns_active"`
	ConnsTotal  int64 `json:"conns_total"`

	InFlight    int64 `json:"in_flight"`
	MaxInFlight int   `json:"max_in_flight"`

	// MemBudget is the configured server-wide residency cap (0 =
	// unlimited); MemInUse/MemHighWater aggregate the live and peak
	// tracked bytes across every replica; MemStalls counts reservations
	// that had to wait for budget anywhere in the tree. Per-replica
	// breakdowns ride in each replica's "io" block.
	MemBudget    int64 `json:"mem_budget"`
	MemInUse     int64 `json:"mem_in_use"`
	MemHighWater int64 `json:"mem_high_water"`
	MemStalls    int64 `json:"mem_stalls"`

	Accepted    int64 `json:"accepted"`
	Completed   int64 `json:"completed"`
	ResultsSent int64 `json:"results_sent"`
	Orphaned    int64 `json:"orphaned"`

	Rejected map[string]int64 `json:"rejected"`

	// RepairReqs counts chunk re-request rounds issued, RepairedFrames the
	// CPIs that arrived corrupt but were repaired and processed,
	// ChunkResends/ChunkResendBytes the re-sent chunks — the network
	// mirror of the file path's RunStats.ChunkRereads.
	RepairReqs       int64 `json:"repair_reqs"`
	RepairedFrames   int64 `json:"repaired_frames"`
	ChunkResends     int64 `json:"chunk_resends"`
	ChunkResendBytes int64 `json:"chunk_resend_bytes"`

	// StreamedChunks counts ingested chunk frames and StreamMaxFrameBytes
	// the largest ingest frame payload seen — bounded by one chunk plus its
	// 16-byte prefix, never a whole cube image.
	StreamedChunks      int64 `json:"streamed_chunks"`
	StreamMaxFrameBytes int64 `json:"stream_max_frame_bytes"`

	Replicas []ReplicaStats `json:"replicas"`
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	st := Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Draining:      s.draining.Load(),
		ConnsActive:   s.stats.connsActive.Load(),
		ConnsTotal:    s.stats.connsTotal.Load(),
		InFlight:      s.outstanding.Load(),
		MaxInFlight:   s.cfg.maxInFlight(),
		Accepted:      s.stats.accepted.Load(),
		Completed:     s.stats.completed.Load(),
		ResultsSent:   s.stats.resultsSent.Load(),
		Orphaned:      s.stats.orphaned.Load(),
		Rejected: map[string]int64{
			"overloaded": s.stats.rejectedOverload.Load(),
			"draining":   s.stats.rejectedDraining.Load(),
			"corrupt":    s.stats.rejectedCorrupt.Load(),
			"other":      s.stats.rejectedOther.Load(),
		},
		RepairReqs:          s.stats.repairReqs.Load(),
		RepairedFrames:      s.stats.repairedFrames.Load(),
		ChunkResends:        s.stats.chunkResends.Load(),
		ChunkResendBytes:    s.stats.chunkResendBytes.Load(),
		StreamedChunks:      s.stats.streamedChunks.Load(),
		StreamMaxFrameBytes: s.stats.streamMaxFrame.Load(),
	}
	if s.budget != nil {
		ms := s.budget.Stats()
		st.MemBudget = s.cfg.MemBudget
		st.MemInUse = ms.InUse
		st.MemHighWater = ms.HighWater
		st.MemStalls = ms.Stalls
	}
	for _, r := range s.replicas {
		rs := ReplicaStats{
			ID:         r.id,
			Dispatched: r.dispatched.Load(),
			Completed:  r.completed.Load(),
			InFlight:   r.inFlight(),
			IO:         r.h.IOStats(),
		}
		if res, err := r.summary(); err == nil && res != nil {
			rs.Pipeline = res
		}
		st.Replicas = append(st.Replicas, rs)
	}
	return st
}

// StatsHandler returns the health/stats HTTP handler:
//
//	GET /healthz  200 "ok" while serving, 503 "draining" once shutdown began
//	GET /stats    the Stats snapshot as JSON
func (s *Server) StatsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Stats())
	})
	return mux
}

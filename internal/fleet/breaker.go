package fleet

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// BreakerConfig tunes the per-server circuit breakers.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that trips a
	// closed breaker open (values < 1 mean 3). Connection errors, deadline
	// misses, and typed overload/drain rejects all count; any success
	// resets the streak.
	FailureThreshold int
	// Cooldown is how long an open breaker blocks traffic before it may
	// transition to half-open and admit one trial (values <= 0 mean 1s).
	Cooldown time.Duration
	// ProbeTimeout bounds one /healthz probe when the server has a health
	// address (values <= 0 mean 1s).
	ProbeTimeout time.Duration
}

func (c *BreakerConfig) threshold() int {
	if c.FailureThreshold < 1 {
		return 3
	}
	return c.FailureThreshold
}

func (c *BreakerConfig) cooldown() time.Duration {
	if c.Cooldown <= 0 {
		return time.Second
	}
	return c.Cooldown
}

func (c *BreakerConfig) probeTimeout() time.Duration {
	if c.ProbeTimeout <= 0 {
		return time.Second
	}
	return c.ProbeTimeout
}

// Breaker states.
const (
	stateClosed   int32 = iota // healthy: traffic flows
	stateOpen                  // tripped: no traffic until the cooldown
	stateHalfOpen              // probing: exactly one trial in flight
)

func stateName(s int32) string {
	switch s {
	case stateClosed:
		return "closed"
	case stateOpen:
		return "open"
	case stateHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state-%d", s)
	}
}

// breaker is one server's circuit breaker: closed → open after a failure
// streak, open → half-open after the cooldown (gated on a /healthz probe
// when the server has a health endpoint), half-open → closed on a
// successful trial, half-open → open on a failed one.
type breaker struct {
	cfg    BreakerConfig
	health string // optional http host:port for /healthz

	mu       sync.Mutex
	state    int32
	failures int
	openedAt time.Time
	probing  bool // the half-open trial is in flight

	opens     atomic.Int64
	halfOpens atomic.Int64
	closes    atomic.Int64
}

func newBreaker(cfg BreakerConfig, health string) *breaker {
	return &breaker{cfg: cfg, health: health}
}

// allow reports whether a submission may target this server right now. In
// the half-open state only one caller at a time gets true — the trial —
// and an open breaker past its cooldown first verifies /healthz (when
// configured) before becoming that trial's half-open gate.
func (b *breaker) allow() bool {
	b.mu.Lock()
	switch {
	case b.state == stateClosed:
		b.mu.Unlock()
		return true
	case b.state == stateHalfOpen && !b.probing:
		b.probing = true
		b.mu.Unlock()
		return true
	case b.state == stateOpen && time.Since(b.openedAt) >= b.cfg.cooldown():
		b.mu.Unlock()
		if b.health != "" && !b.probeHealth() {
			b.mu.Lock()
			// Still down per its own health endpoint: restart the cooldown
			// so probes are rate-limited to one per cooldown.
			if b.state == stateOpen {
				b.openedAt = time.Now()
			}
			b.mu.Unlock()
			return false
		}
		b.mu.Lock()
		defer b.mu.Unlock()
		// Re-check under the lock: another caller may have raced through
		// the same transition while the probe ran.
		switch {
		case b.state == stateClosed:
			return true
		case b.state == stateOpen && time.Since(b.openedAt) >= b.cfg.cooldown():
			b.state = stateHalfOpen
			b.halfOpens.Add(1)
			b.probing = true
			return true
		case b.state == stateHalfOpen && !b.probing:
			b.probing = true
			return true
		default:
			return false
		}
	default:
		b.mu.Unlock()
		return false
	}
}

// record feeds one attempt's outcome back into the state machine.
func (b *breaker) record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		if b.state != stateClosed {
			b.closes.Add(1)
		}
		b.state = stateClosed
		b.failures = 0
		b.probing = false
		return
	}
	b.probing = false
	switch b.state {
	case stateHalfOpen:
		// The trial failed: back to open, cooldown restarts.
		b.state = stateOpen
		b.openedAt = time.Now()
		b.opens.Add(1)
	case stateClosed:
		b.failures++
		if b.failures >= b.cfg.threshold() {
			b.state = stateOpen
			b.openedAt = time.Now()
			b.opens.Add(1)
		}
	case stateOpen:
		// Stragglers from before the trip (in-flight attempts failing
		// late) don't push openedAt: under constant traffic that would
		// starve recovery.
	}
}

// probeHealth asks the server's own /healthz whether it is serving again.
func (b *breaker) probeHealth() bool {
	c := http.Client{Timeout: b.cfg.probeTimeout()}
	resp, err := c.Get("http://" + b.health + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// snapshot returns the state name and transition counters for stats.
func (b *breaker) snapshot() (state string, opens, halfOpens, closes int64) {
	b.mu.Lock()
	s := b.state
	b.mu.Unlock()
	return stateName(s), b.opens.Load(), b.halfOpens.Load(), b.closes.Load()
}

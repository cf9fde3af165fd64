// Package membudget is a hierarchical byte-budget manager for
// external-memory execution: a process-global root budget is split into
// per-pipeline (or per-replica) child budgets, and every large slab a
// pipeline materialises — input cubes, Doppler cubes, beam cubes — is
// charged against its budget before it exists and released when it is
// recycled. Acquire blocks when the budget is
// exhausted; admission is ordered by caller-supplied priority (lower is
// more urgent), which is how the pipeline avoids self-deadlock: the
// reservation whose completion will free memory (the CPI at the head of
// the pipeline) always outranks speculative prefetch for future CPIs, so
// prefetch can never exhaust the budget and then wait forever on memory
// only the starved head could release.
//
// A Budget with limit 0 is unlimited but still accounts: InUse, HighWater
// and stall counters keep working, so the unlimited path gets residency
// observability for free.
package membudget

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrBudgetExceeded reports a reservation that can never be admitted: it
// is larger than the limit of the budget (or one of its ancestors), so
// waiting would block forever. Returned immediately, wrapped with the
// sizes involved.
var ErrBudgetExceeded = errors.New("membudget: reservation exceeds budget limit")

// ErrOverRelease is the sentinel wrapped by OverReleaseError: a Release
// of more bytes than the budget currently has in use.
var ErrOverRelease = errors.New("membudget: release exceeds bytes in use")

// OverReleaseError is the panic value of an over-release — an accounting
// bug, not a runtime condition, hence a panic rather than an error
// return. It unwraps to ErrOverRelease so recovering code can match it
// with errors.Is / errors.As.
type OverReleaseError struct {
	// Budget is the name of the node whose accounting went negative.
	Budget string
	// N is the released byte count; InUse was the node's balance.
	N, InUse int64
}

func (e *OverReleaseError) Error() string {
	return fmt.Sprintf("membudget: budget %q: releasing %d bytes with only %d in use", e.Budget, e.N, e.InUse)
}

// Unwrap lets errors.Is(err, ErrOverRelease) match.
func (e *OverReleaseError) Unwrap() error { return ErrOverRelease }

// PressureHandler is invoked (outside the budget lock) when an Acquire
// has to wait: it should try to free up to need bytes — e.g. by evicting
// cold prefetched data its source can deliver again — and return how many
// bytes it released.
type PressureHandler func(need int64) (freed int64)

// Budget is one node of the reservation tree. The root is built with New,
// children with Child; a child's reservations charge every ancestor, so a
// child can never hold more bytes than any limit on its path to the root.
// All methods are safe for concurrent use and safe on a nil receiver
// (no-ops), so optional budgeting needs no call-site guards.
type Budget struct {
	name   string
	parent *Budget
	root   *Budget
	limit  int64 // 0 = unlimited (accounting only)

	// Root-only shared state; every node locks root.mu.
	mu           sync.Mutex
	seq          uint64
	waiters      []*waiter
	handlers     []PressureHandler
	pressureBusy bool

	// Guarded by root.mu.
	inUse     int64
	highWater int64
	stalls    int64
	stallNS   int64
}

// waiter is one blocked Acquire. Grant-side charging: whoever signals
// ready has already charged the bytes, so a cancelled waiter that lost
// the race must uncharge. Waiters are recycled through waiterPool, so a
// stalled acquire allocates nothing in steady state; ready holds at most
// the one grant token.
type waiter struct {
	b     *Budget
	n     int64
	pri   uint64
	seq   uint64
	ready chan struct{}
}

var waiterPool = sync.Pool{New: func() any { return &waiter{ready: make(chan struct{}, 1)} }}

// New builds a root budget. limit 0 means unlimited with accounting.
func New(name string, limit int64) *Budget {
	b := &Budget{name: name, limit: limit}
	b.root = b
	return b
}

// Child carves a sub-budget out of b. limit 0 means no additional cap —
// the child is bounded only by its ancestors; a positive limit caps the
// child even when the parent has room. The child shares the root's lock
// and pressure handlers.
func (b *Budget) Child(name string, limit int64) *Budget {
	if b == nil {
		return nil
	}
	return &Budget{name: name, parent: b, root: b.root, limit: limit}
}

// Name returns the node's name.
func (b *Budget) Name() string {
	if b == nil {
		return ""
	}
	return b.name
}

// Limit returns the node's own limit (0 = unlimited).
func (b *Budget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}

// PathLimit returns the tightest positive limit on the path from this
// node to the root — the true byte ceiling an acquire must fit under —
// or 0 when every node on the path is unlimited.
func (b *Budget) PathLimit() int64 {
	if b == nil {
		return 0
	}
	var lim int64
	for a := b; a != nil; a = a.parent {
		if a.limit > 0 && (lim == 0 || a.limit < lim) {
			lim = a.limit
		}
	}
	return lim
}

// fitsLocked reports whether n more bytes fit under every limit on the
// path to the root. Caller holds root.mu.
func (b *Budget) fitsLocked(n int64) bool {
	for a := b; a != nil; a = a.parent {
		if a.limit > 0 && a.inUse+n > a.limit {
			return false
		}
	}
	return true
}

// chargeLocked adds n bytes along the path to the root.
func (b *Budget) chargeLocked(n int64) {
	for a := b; a != nil; a = a.parent {
		a.inUse += n
		if a.inUse > a.highWater {
			a.highWater = a.inUse
		}
	}
}

// unchargeLocked removes n bytes along the path to the root.
func (b *Budget) unchargeLocked(n int64) {
	for a := b; a != nil; a = a.parent {
		a.inUse -= n
	}
}

// blockedByWaiterLocked reports whether a waiter at least as urgent as
// pri is queued on b; a fast-path acquire must not overtake it (equal
// priorities stay FIFO).
func (b *Budget) blockedByWaiterLocked(pri uint64) bool {
	for _, w := range b.root.waiters {
		if w.b == b && w.pri <= pri {
			return true
		}
	}
	return false
}

// grantLocked wakes every waiter that can now be admitted. Admission is
// per-node priority order: only a node's most urgent waiter (lowest pri,
// FIFO within a priority) is a candidate, so urgent reservations are
// never starved by smaller, later ones slipping past them.
func (root *Budget) grantLocked() {
	for {
		// The most urgent waiter per node is the only candidate for it.
		head := make(map[*Budget]*waiter, len(root.waiters))
		for _, w := range root.waiters {
			h := head[w.b]
			if h == nil || w.pri < h.pri || (w.pri == h.pri && w.seq < h.seq) {
				head[w.b] = w
			}
		}
		granted := false
		for i, w := range root.waiters {
			if head[w.b] == w && w.b.fitsLocked(w.n) {
				w.b.chargeLocked(w.n)
				w.ready <- struct{}{}
				root.waiters = append(root.waiters[:i], root.waiters[i+1:]...)
				granted = true
				break // the waiter list changed; rescan
			}
		}
		if !granted {
			return
		}
	}
}

// removeWaiterLocked drops w from the queue; reports whether it was
// still queued (false means it was granted concurrently).
func (root *Budget) removeWaiterLocked(w *waiter) bool {
	for i, q := range root.waiters {
		if q == w {
			root.waiters = append(root.waiters[:i], root.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// Acquire reserves n bytes with the least-urgent priority; see
// AcquirePri.
func (b *Budget) Acquire(ctx context.Context, n int64) error {
	return b.AcquirePri(ctx, n, ^uint64(0))
}

// AcquirePri reserves n bytes, blocking while the budget (or any
// ancestor) is full. pri orders admission: lower values are granted
// first, and a fast-path acquire never overtakes a queued waiter that is
// at least as urgent. Returns ErrBudgetExceeded (wrapped) immediately if
// n alone exceeds a limit on the path — such a request could never be
// admitted — and ctx.Err() if the context ends first. n <= 0 and nil
// budgets are no-ops.
func (b *Budget) AcquirePri(ctx context.Context, n int64, pri uint64) error {
	if b == nil || n <= 0 {
		return nil
	}
	root := b.root
	root.mu.Lock()
	for a := b; a != nil; a = a.parent {
		if a.limit > 0 && n > a.limit {
			name, lim := a.name, a.limit
			root.mu.Unlock()
			return fmt.Errorf("%w: need %d bytes, budget %q holds at most %d", ErrBudgetExceeded, n, name, lim)
		}
	}
	if !b.blockedByWaiterLocked(pri) && b.fitsLocked(n) {
		b.chargeLocked(n)
		root.mu.Unlock()
		return nil
	}
	w := waiterPool.Get().(*waiter)
	w.b, w.n, w.pri, w.seq = b, n, pri, root.seq
	root.seq++
	root.waiters = append(root.waiters, w)
	b.stalls++
	root.mu.Unlock()

	t0 := time.Now()
	b.firePressure(n)
	select {
	case <-w.ready:
		root.mu.Lock()
		b.stallNS += int64(time.Since(t0))
		root.mu.Unlock()
		waiterPool.Put(w)
		return nil
	case <-ctx.Done():
		root.mu.Lock()
		if !root.removeWaiterLocked(w) {
			// Granted while we were cancelling: the grant already charged
			// the bytes, so hand them back and wake whoever fits now.
			b.unchargeLocked(w.n)
			root.grantLocked()
			<-w.ready // the grant's token, sent under the lock
		}
		b.stallNS += int64(time.Since(t0))
		root.mu.Unlock()
		waiterPool.Put(w)
		return ctx.Err()
	}
}

// TryAcquire reserves n bytes only if they fit right now and no waiter is
// queued on this node (speculative work never overtakes blocked
// reservations). Reports whether the bytes were charged.
func (b *Budget) TryAcquire(n int64) bool {
	if b == nil || n <= 0 {
		return true
	}
	root := b.root
	root.mu.Lock()
	defer root.mu.Unlock()
	if b.blockedByWaiterLocked(^uint64(0)) || !b.fitsLocked(n) {
		return false
	}
	b.chargeLocked(n)
	return true
}

// Release returns n bytes and admits any waiters that now fit. Releasing
// more than is in use on the node (or an ancestor) panics with an
// *OverReleaseError: that is double-release accounting corruption, and
// continuing would let the budget over-admit silently.
func (b *Budget) Release(n int64) {
	if b == nil || n <= 0 {
		return
	}
	root := b.root
	root.mu.Lock()
	for a := b; a != nil; a = a.parent {
		if n > a.inUse {
			name, inUse := a.name, a.inUse
			root.mu.Unlock()
			panic(&OverReleaseError{Budget: name, N: n, InUse: inUse})
		}
	}
	b.unchargeLocked(n)
	root.grantLocked()
	root.mu.Unlock()
}

// OnPressure registers a handler invoked when reservations have to wait.
// Handlers are shared tree-wide (they live on the root) and run outside
// the budget lock, so they may call Release; they must not call a
// blocking Acquire.
func (b *Budget) OnPressure(h PressureHandler) {
	if b == nil || h == nil {
		return
	}
	root := b.root
	root.mu.Lock()
	root.handlers = append(root.handlers, h)
	root.mu.Unlock()
}

// firePressure runs the handlers until need bytes were freed or the
// handlers are exhausted. One run at a time: concurrent blockers skip
// rather than stampede (the running handler's releases will wake them).
// It allocates nothing: OnPressure only appends, so the slice read under
// the lock stays valid after it is released.
func (b *Budget) firePressure(need int64) {
	root := b.root
	root.mu.Lock()
	if root.pressureBusy || len(root.handlers) == 0 {
		root.mu.Unlock()
		return
	}
	root.pressureBusy = true
	handlers := root.handlers
	root.mu.Unlock()
	for _, h := range handlers {
		if need <= 0 {
			break
		}
		need -= h(need)
	}
	root.mu.Lock()
	root.pressureBusy = false
	root.mu.Unlock()
}

// Stats is a point-in-time snapshot of one node's accounting.
type Stats struct {
	Name string
	// Limit is the node's own cap (0 = unlimited).
	Limit int64
	// InUse is the node's current charged bytes; HighWater its maximum.
	InUse, HighWater int64
	// Stalls counts reservations that had to wait; StallTime is their
	// total waiting time.
	Stalls    int64
	StallTime time.Duration
}

// Stats snapshots the node.
func (b *Budget) Stats() Stats {
	if b == nil {
		return Stats{}
	}
	b.root.mu.Lock()
	defer b.root.mu.Unlock()
	return Stats{
		Name:      b.name,
		Limit:     b.limit,
		InUse:     b.inUse,
		HighWater: b.highWater,
		Stalls:    b.stalls,
		StallTime: time.Duration(b.stallNS),
	}
}

// InUse returns the node's current charged bytes.
func (b *Budget) InUse() int64 {
	if b == nil {
		return 0
	}
	b.root.mu.Lock()
	defer b.root.mu.Unlock()
	return b.inUse
}

// HighWater returns the node's maximum charged bytes so far.
func (b *Budget) HighWater() int64 {
	if b == nil {
		return 0
	}
	b.root.mu.Lock()
	defer b.root.mu.Unlock()
	return b.highWater
}

// ParseBytes parses a human byte count: a plain integer, optionally with
// a k/m/g/t suffix (binary multiples, case-insensitive, optional "b" or
// "ib" tail: "512m", "2GiB", "1048576").
func ParseBytes(s string) (int64, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	if t == "" {
		return 0, fmt.Errorf("membudget: empty byte count")
	}
	mult := int64(1)
	t = strings.TrimSuffix(strings.TrimSuffix(t, "b"), "i")
	switch {
	case strings.HasSuffix(t, "k"):
		mult, t = 1<<10, t[:len(t)-1]
	case strings.HasSuffix(t, "m"):
		mult, t = 1<<20, t[:len(t)-1]
	case strings.HasSuffix(t, "g"):
		mult, t = 1<<30, t[:len(t)-1]
	case strings.HasSuffix(t, "t"):
		mult, t = 1<<40, t[:len(t)-1]
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("membudget: bad byte count %q", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("membudget: negative byte count %q", s)
	}
	return n * mult, nil
}

// FormatBytes renders n in the largest whole binary unit ("24 MiB",
// "512 B") — the human half of ParseBytes for CLI summaries.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<40 && n%(1<<40) == 0:
		return fmt.Sprintf("%d TiB", n>>40)
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%d GiB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%d MiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%d KiB", n>>10)
	default:
		return fmt.Sprintf("%d B", n)
	}
}

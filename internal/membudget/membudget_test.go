package membudget

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestAcquireReleaseAccounting(t *testing.T) {
	b := New("root", 100)
	if err := b.Acquire(context.Background(), 60); err != nil {
		t.Fatalf("acquire 60: %v", err)
	}
	if err := b.Acquire(context.Background(), 40); err != nil {
		t.Fatalf("acquire 40: %v", err)
	}
	if got := b.InUse(); got != 100 {
		t.Fatalf("InUse = %d, want 100", got)
	}
	b.Release(30)
	if got := b.InUse(); got != 70 {
		t.Fatalf("InUse after release = %d, want 70", got)
	}
	if got := b.HighWater(); got != 100 {
		t.Fatalf("HighWater = %d, want 100", got)
	}
	b.Release(70)
	if got := b.InUse(); got != 0 {
		t.Fatalf("InUse after drain = %d, want 0", got)
	}
}

func TestUnlimitedStillAccounts(t *testing.T) {
	b := New("root", 0)
	if err := b.Acquire(context.Background(), 1<<40); err != nil {
		t.Fatalf("unlimited acquire: %v", err)
	}
	if got := b.HighWater(); got != 1<<40 {
		t.Fatalf("HighWater = %d, want %d", got, int64(1)<<40)
	}
	b.Release(1 << 40)
}

func TestBudgetExceededIsImmediate(t *testing.T) {
	b := New("root", 100)
	err := b.Acquire(context.Background(), 101)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("oversized acquire: got %v, want ErrBudgetExceeded", err)
	}
	// Via an unlimited child the parent's limit still rejects.
	c := b.Child("child", 0)
	err = c.Acquire(context.Background(), 101)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("oversized child acquire: got %v, want ErrBudgetExceeded", err)
	}
}

func TestOverReleasePanicsTyped(t *testing.T) {
	b := New("root", 100)
	if err := b.Acquire(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		b.Release(20)
	}()
	if recovered == nil {
		t.Fatal("over-release did not panic")
	}
	err, ok := recovered.(error)
	if !ok {
		t.Fatalf("panic value %T is not an error", recovered)
	}
	var ore *OverReleaseError
	if !errors.As(err, &ore) {
		t.Fatalf("panic %v is not an *OverReleaseError", err)
	}
	if !errors.Is(err, ErrOverRelease) {
		t.Fatalf("panic %v does not match ErrOverRelease", err)
	}
	if ore.N != 20 || ore.InUse != 10 || ore.Budget != "root" {
		t.Fatalf("OverReleaseError = %+v, want N=20 InUse=10 Budget=root", ore)
	}
	// The failed release must not have corrupted the books.
	if got := b.InUse(); got != 10 {
		t.Fatalf("InUse after failed release = %d, want 10", got)
	}
}

func TestChildCannotExceedParent(t *testing.T) {
	root := New("root", 100)
	// Child with a larger nominal limit is still bounded by the parent.
	a := root.Child("a", 1000)
	if err := a.Acquire(context.Background(), 80); err != nil {
		t.Fatal(err)
	}
	if a.TryAcquire(30) {
		t.Fatal("child exceeded parent: 80+30 admitted under a 100-byte root")
	}
	// A sibling is squeezed by the shared parent too.
	bb := root.Child("b", 0)
	if bb.TryAcquire(30) {
		t.Fatal("sibling exceeded parent")
	}
	if !bb.TryAcquire(20) {
		t.Fatal("sibling denied bytes the parent still has")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := a.Acquire(ctx, 30); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked child acquire: got %v, want deadline exceeded", err)
	}
	if got := root.InUse(); got != 100 {
		t.Fatalf("root InUse = %d, want 100", got)
	}
	a.Release(80)
	bb.Release(20)
	if got := root.InUse(); got != 0 {
		t.Fatalf("root InUse after drain = %d, want 0", got)
	}
}

func TestChildOwnLimitBinds(t *testing.T) {
	root := New("root", 1000)
	c := root.Child("c", 50)
	if c.TryAcquire(60) {
		t.Fatal("child's own limit ignored")
	}
	if err := c.Acquire(context.Background(), 50); err != nil {
		t.Fatal(err)
	}
	if got := root.InUse(); got != 50 {
		t.Fatalf("child charge did not propagate to root: InUse = %d", got)
	}
	c.Release(50)
}

// TestConcurrentAcquireReleaseNoDeadlock hammers one budget tree from
// many goroutines; the test passes by terminating (a watchdog converts a
// hang into a failure) and by the books balancing to zero.
func TestConcurrentAcquireReleaseNoDeadlock(t *testing.T) {
	root := New("root", 1000)
	children := []*Budget{root.Child("a", 600), root.Child("b", 600), root.Child("c", 0)}
	const goroutines = 12
	const iters = 300
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				b := children[g%len(children)]
				ctx := context.Background()
				for i := 0; i < iters; i++ {
					n := int64(1 + rng.Intn(200))
					if rng.Intn(3) == 0 {
						if !b.TryAcquire(n) {
							continue
						}
					} else if err := b.AcquirePri(ctx, n, uint64(rng.Intn(4))); err != nil {
						continue
					}
					if rng.Intn(4) == 0 {
						time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
					}
					b.Release(n)
				}
			}(g)
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent acquire/release deadlocked")
	}
	if got := root.InUse(); got != 0 {
		t.Fatalf("root InUse after all releases = %d, want 0", got)
	}
	for _, c := range children {
		if got := c.InUse(); got != 0 {
			t.Fatalf("child %s InUse = %d, want 0", c.Name(), got)
		}
	}
}

// TestPriorityAdmissionOrder pins the deadlock-avoiding admission rule:
// the most urgent waiter is granted first even when a less urgent one
// queued earlier, and a later fast-path acquire cannot overtake it.
func TestPriorityAdmissionOrder(t *testing.T) {
	b := New("root", 100)
	if err := b.Acquire(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	order := make(chan string, 2)
	var wg sync.WaitGroup
	start := func(name string, pri uint64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := b.AcquirePri(context.Background(), 50, pri); err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			order <- name
		}()
	}
	start("background", 9)
	// Make sure the background waiter is queued before the urgent one.
	waitForStalls(t, b, 1)
	start("urgent", 1)
	waitForStalls(t, b, 2)

	// Fast path may not overtake queued waiters even though 50 would fit
	// after this partial release.
	b.Release(50)
	if b.TryAcquire(10) {
		t.Fatal("TryAcquire overtook queued waiters")
	}
	if got := <-order; got != "urgent" {
		t.Fatalf("first grant went to %q, want urgent", got)
	}
	b.Release(50)
	if got := <-order; got != "background" {
		t.Fatalf("second grant went to %q, want background", got)
	}
	wg.Wait()
	b.Release(100)
	st := b.Stats()
	if st.Stalls != 2 || st.StallTime <= 0 {
		t.Fatalf("stall stats = %+v, want 2 stalls with positive stall time", st)
	}
}

// waitForStalls spins until the budget has seen n stalled reservations.
func waitForStalls(t *testing.T, b *Budget, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().Stalls < n {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d stalls", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestPressureHandlerFreesWaiters(t *testing.T) {
	b := New("root", 100)
	if err := b.Acquire(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	var fired atomic
	b.OnPressure(func(need int64) int64 {
		fired.set()
		b.Release(100) // evict the cold reservation
		return 100
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.Acquire(ctx, 60); err != nil {
		t.Fatalf("acquire under pressure: %v", err)
	}
	if !fired.get() {
		t.Fatal("pressure handler never fired")
	}
	b.Release(60)
}

// TestFirePressureAllocFree: every budgeted pipeline run over a
// re-fetchable source arms a pressure handler, so firing it must not
// allocate.
func TestFirePressureAllocFree(t *testing.T) {
	b := New("root", 100)
	b.OnPressure(func(need int64) int64 { return 0 })
	if n := testing.AllocsPerRun(100, func() { b.firePressure(1) }); n != 0 {
		t.Fatalf("firePressure allocates %.1f times per call", n)
	}
}

// atomic is a tiny test-local flag (avoids importing sync/atomic for one
// bool).
type atomic struct {
	mu sync.Mutex
	v  bool
}

func (a *atomic) set()      { a.mu.Lock(); a.v = true; a.mu.Unlock() }
func (a *atomic) get() bool { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

func TestAcquireCancelDoesNotLeak(t *testing.T) {
	b := New("root", 100)
	if err := b.Acquire(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- b.Acquire(ctx, 50) }()
	waitForStalls(t, b, 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire: got %v", err)
	}
	b.Release(100)
	if got := b.InUse(); got != 0 {
		t.Fatalf("InUse after cancel+drain = %d, want 0 (cancelled waiter leaked a charge)", got)
	}
	// The budget still admits new work after the cancellation.
	if !b.TryAcquire(100) {
		t.Fatal("budget stuck after cancelled waiter")
	}
	b.Release(100)
}

func TestNilBudgetIsNoOp(t *testing.T) {
	var b *Budget
	if err := b.Acquire(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	if !b.TryAcquire(100) {
		t.Fatal("nil TryAcquire should succeed")
	}
	b.Release(100)
	if st := b.Stats(); st != (Stats{}) {
		t.Fatalf("nil Stats = %+v", st)
	}
	if c := b.Child("x", 1); c != nil {
		t.Fatal("nil Child should be nil")
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"0", 0, false},
		{"1048576", 1 << 20, false},
		{"64k", 64 << 10, false},
		{"512M", 512 << 20, false},
		{"2g", 2 << 30, false},
		{"2GiB", 2 << 30, false},
		{"1t", 1 << 40, false},
		{"24mb", 24 << 20, false},
		{"", 0, true},
		{"-5", 0, true},
		{"12q", 0, true},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if c.err != (err != nil) {
			t.Errorf("ParseBytes(%q): err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	if got := FormatBytes(24 << 20); got != "24 MiB" {
		t.Errorf("FormatBytes(24MiB) = %q", got)
	}
	if got := FormatBytes(1000); got != "1000 B" {
		t.Errorf("FormatBytes(1000) = %q", got)
	}
}

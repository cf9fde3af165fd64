package pfs

import (
	"bytes"
	"errors"
	"os"
	"runtime"
	"sync"
	"testing"
)

// pattern returns n bytes whose values depend on seed, so two versions of a
// file are told apart by content.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func readAll(t *testing.T, fs *RealFS, name string, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	if err := fs.ReadAt(name, 0, buf); err != nil {
		t.Fatalf("ReadAt(%q, 0, %d): %v", name, n, err)
	}
	return buf
}

// A rewrite through WriteFile is seen by the next read although the read's
// sub-file handles were opened before it: in-place rewrites truncate the
// cached inodes, and a shrink that removes stale sub-files drops them.
func TestRealFSRewriteSeenByCachedHandles(t *testing.T) {
	fs, err := CreateReal(t.TempDir(), 4, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	write := func(data []byte) {
		t.Helper()
		if err := fs.WriteFile("f", data); err != nil {
			t.Fatal(err)
		}
	}

	// Same size, new bytes: every directory's handle is already open.
	a, b := pattern(64*8, 1), pattern(64*8, 2)
	write(a)
	if !bytes.Equal(readAll(t, fs, "f", len(a)), a) {
		t.Fatal("first version mismatch")
	}
	write(b)
	if !bytes.Equal(readAll(t, fs, "f", len(b)), b) {
		t.Error("read after an in-place rewrite returned the old bytes")
	}

	// Shrink within the same directories (8 units -> 5), then to one
	// directory, which removes three stale sub-files: reads of the new
	// extent see the new bytes, reads past the new end fail as they do on
	// a cold store.
	for _, n := range []int{64*5 - 10, 3} {
		c := pattern(n, byte(n))
		write(c)
		if !bytes.Equal(readAll(t, fs, "f", n), c) {
			t.Errorf("after shrink to %d bytes: content mismatch", n)
		}
		if err := fs.ReadAt("f", 0, make([]byte, 64*6)); err == nil {
			t.Errorf("after shrink to %d bytes: a read past the end succeeded", n)
		}
	}

	// Grow back into directories whose handles were dropped ("f") or
	// never opened ("g").
	if err := fs.WriteFile("g", pattern(40, 5)); err != nil {
		t.Fatal(err)
	}
	readAll(t, fs, "g", 40)
	for _, name := range []string{"f", "g"} {
		big := pattern(64*8+17, 9)
		if err := fs.WriteFile(name, big); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readAll(t, fs, name, len(big)), big) {
			t.Errorf("%s: read after growth into untouched directories mismatch", name)
		}
	}
}

// Readers racing a rewriter that shrinks (dropping handles) and grows the
// file, and a store Close, never read through a closed handle. Reads may
// fail while a rewrite is half done — a truncated or missing sub-file —
// but never with os.ErrClosed.
func TestRealFSConcurrentRewriteNeverClosed(t *testing.T) {
	fs, err := CreateReal(t.TempDir(), 4, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	big, small := pattern(64*8, 3), pattern(50, 4)
	if err := fs.WriteFile("f", big); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	errc := make(chan error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]byte, 64*(r+1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := fs.ReadAt("f", 0, buf); errors.Is(err, os.ErrClosed) {
					errc <- err
					return
				}
			}
		}(r)
	}
	for i := 0; i < 200; i++ {
		data := big
		if i%2 == 1 {
			data = small
		}
		if err := fs.WriteFile("f", data); err != nil {
			t.Fatal(err)
		}
		if i%25 == 0 {
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("a read used a closed handle: %v", err)
	default:
	}
}

// openFDs counts the process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// The handle cache holds at most one descriptor per (file, stripe
// directory), however many reads run, and Close returns the count to its
// baseline. ProbeAt never enters the cache.
func TestRealFSHandleCountBounded(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors through /proc/self/fd")
	}
	const files, dirs = 3, 4
	fs, err := CreateReal(t.TempDir(), dirs, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b", "c"}
	for i, name := range names {
		if err := fs.WriteFile(name, pattern(64*dirs*2, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Stores other tests left open close their handles in finalizers;
	// flush those first so they do not move the count under this test.
	runtime.GC()
	runtime.GC()
	base := openFDs(t)
	limit := base + files*dirs
	size := 64 * dirs * 2
	for _, name := range names {
		readAll(t, fs, name, size)
	}
	// Sample the count while warm readers run: they open nothing more.
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, size)
			for i := 0; i < 100; i++ {
				for _, name := range names {
					if err := fs.ReadAt(name, 0, buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	peak := 0
	for sampling := true; sampling; {
		select {
		case <-done:
			sampling = false
		default:
		}
		peak = max(peak, openFDs(t))
	}
	if peak > limit {
		t.Fatalf("%d descriptors open during reads, want <= %d + %d files x %d dirs", peak, base, files, dirs)
	}
	// Probes open and close their own descriptors.
	for _, name := range names {
		if err := fs.ProbeAt(name, 0, make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
	if n := openFDs(t); n > limit {
		t.Errorf("%d descriptors open after probes, want <= %d", n, limit)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if n := openFDs(t); n > base {
		t.Errorf("%d descriptors open after Close, want the baseline %d", n, base)
	}
	// A read after Close re-opens.
	if !bytes.Equal(readAll(t, fs, "a", size), pattern(size, 0)) {
		t.Error("read after Close mismatch")
	}
	fs.Close()
}

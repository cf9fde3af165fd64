package pfs

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// RealFS stripes files across local directories, mirroring the layout of
// the modelled parallel file system: unit u of a file lives in stripe
// directory u mod StripeDirs, at unit index u div StripeDirs within that
// directory's sub-file. Like a Paragon PFS client that gopen()s a file
// once, a RealFS opens each sub-file on its first data read and keeps the
// handle, so later reads are bare preads; Close releases the handles.
// Reads fan out one goroutine per touched stripe directory through a
// pooled request, so a warm read allocates nothing.
type RealFS struct {
	root     string
	dirs     int
	unit     int64
	async    bool
	faults   *FaultPlan
	dirPaths []string // stripe directory paths, built once by CreateReal

	// mu guards open and free: the data-read handle cache and the free
	// list of fan-out requests.
	mu   sync.Mutex
	open map[string]*subFiles
	free []*readReq
}

// subFiles is one striped file's cached sub-file handles, one slot per
// stripe directory, filled on the directory's first data read. refs
// counts the reads holding the set (guarded by RealFS.mu): a set dropped
// from the cache while reads hold it is closed by the last of them, so a
// handle is never closed under a read.
type subFiles struct {
	f       []atomic.Pointer[os.File]
	refs    int
	dropped bool
}

// close closes every opened handle of the set and returns the first error.
func (h *subFiles) close() error {
	var first error
	for d := range h.f {
		if f := h.f[d].Swap(nil); f != nil {
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// CreateReal initialises (or reuses) a striped store rooted at root with
// the given stripe geometry. Stripe directories are created eagerly.
func CreateReal(root string, stripeDirs int, stripeUnit int64, async bool) (*RealFS, error) {
	if stripeDirs < 1 || stripeUnit < 1 {
		return nil, fmt.Errorf("pfs: invalid stripe geometry dirs=%d unit=%d", stripeDirs, stripeUnit)
	}
	fs := &RealFS{root: root, dirs: stripeDirs, unit: stripeUnit, async: async}
	for i := 0; i < stripeDirs; i++ {
		fs.dirPaths = append(fs.dirPaths, filepath.Join(root, fmt.Sprintf("sd%03d", i)))
		if err := os.MkdirAll(fs.dirPaths[i], 0o755); err != nil {
			return nil, fmt.Errorf("pfs: creating stripe dir: %w", err)
		}
	}
	return fs, nil
}

// StripeDirs returns the stripe factor.
func (fs *RealFS) StripeDirs() int { return fs.dirs }

// StripeUnit returns the stripe unit in bytes.
func (fs *RealFS) StripeUnit() int64 { return fs.unit }

// Async reports whether asynchronous reads are enabled. False emulates
// PIOFS semantics: a client must not overlap a read with computation, so
// it issues the read inline (see pipexec.FileSource.Begin).
func (fs *RealFS) Async() bool { return fs.async }

// SetFaults installs (or, with nil, removes) a fault-injection plan. Must
// not be called while reads are in flight.
func (fs *RealFS) SetFaults(p *FaultPlan) { fs.faults = p }

// Faults returns the installed fault plan, or nil.
func (fs *RealFS) Faults() *FaultPlan { return fs.faults }

// subPath is the path of name's sub-file in stripe directory dir. Names
// are plain file names, so appending one to the cleaned directory path is
// what filepath.Join would produce, at one allocation.
func (fs *RealFS) subPath(dir int, name string) string {
	return fs.dirPaths[dir] + string(filepath.Separator) + name
}

// WriteFile stripes data across the directories, replacing any previous
// contents of the named file. It satisfies radar.FileStore.
func (fs *RealFS) WriteFile(name string, data []byte) error {
	nUnits := int((int64(len(data)) + fs.unit - 1) / fs.unit)
	touched := fs.dirs
	if nUnits < touched {
		touched = nUnits
	}
	// Assemble each directory's sub-file, then write them concurrently —
	// one writer goroutine per stripe directory, as the striped server
	// farm would.
	var wg sync.WaitGroup
	errs := make([]error, fs.dirs)
	for d := 0; d < fs.dirs; d++ {
		var sub []byte
		for u := d; u < nUnits; u += fs.dirs {
			lo := int64(u) * fs.unit
			hi := lo + fs.unit
			if hi > int64(len(data)) {
				hi = int64(len(data))
			}
			sub = append(sub, data[lo:hi]...)
		}
		if len(sub) == 0 && d >= touched {
			// Remove stale sub-file from a previous, larger version.
			// Its cached handles go with it; the surviving sub-files are
			// rewritten in place, truncating the same inodes.
			err := os.Remove(fs.subPath(d, name))
			if err == nil {
				fs.drop(name)
			} else if !os.IsNotExist(err) {
				return fmt.Errorf("pfs: removing stale stripe: %w", err)
			}
			continue
		}
		wg.Add(1)
		go func(d int, sub []byte) {
			defer wg.Done()
			errs[d] = os.WriteFile(fs.subPath(d, name), sub, 0o644)
		}(d, sub)
	}
	wg.Wait()
	for d, err := range errs {
		if err != nil {
			return fmt.Errorf("pfs: writing stripe dir %d of %q: %w", d, name, err)
		}
	}
	return nil
}

// FileSize returns the total logical size of the named striped file.
func (fs *RealFS) FileSize(name string) (int64, error) {
	var total int64
	found := false
	for d := 0; d < fs.dirs; d++ {
		st, err := os.Stat(fs.subPath(d, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return 0, err
		}
		found = true
		total += st.Size()
	}
	if !found {
		return 0, fmt.Errorf("pfs: file %q not found", name)
	}
	return total, nil
}

// segment is one contiguous run of bytes within a single stripe sub-file.
type segment struct {
	subOff int64 // offset within the sub-file
	bufOff int64 // offset within the caller's buffer
	length int64
}

// firstUnit returns the first stripe unit of directory d — the units
// u = d mod StripeDirs — that the logical read [off, off+length) touches,
// and whether it touches any.
func (fs *RealFS) firstUnit(off, length int64, d int) (int64, bool) {
	if length <= 0 {
		return 0, false
	}
	dirs := int64(fs.dirs)
	u0 := off / fs.unit
	u := u0 + (int64(d)-u0%dirs+dirs)%dirs
	return u, u <= (off+length-1)/fs.unit
}

// run is unit u's run of the read [off, off+length), clipped to the read.
func (fs *RealFS) run(off, length, u int64) segment {
	pos := max(off, u*fs.unit)
	hi := min(off+length, (u+1)*fs.unit)
	return segment{
		subOff: u/int64(fs.dirs)*fs.unit + (pos - u*fs.unit),
		bufOff: pos - off,
		length: hi - pos,
	}
}

// dirRuns calls fn for each run of stripe directory d's share of the
// read [off, off+length), in ascending offset order, and stops at the
// first error. The runs are computed, not materialised, so a fan-out read
// decomposes without allocating.
func (fs *RealFS) dirRuns(off, length int64, d int, fn func(segment) error) error {
	u, ok := fs.firstUnit(off, length, d)
	if !ok {
		return nil
	}
	for uLast := (off + length - 1) / fs.unit; u <= uLast; u += int64(fs.dirs) {
		if err := fn(fs.run(off, length, u)); err != nil {
			return err
		}
	}
	return nil
}

// StripeReadError identifies which stripe server failed a fan-out read: the
// stripe directory index and the sub-file offset of the failing run, so a
// degraded server is attributable rather than lost in an anonymous error.
type StripeReadError struct {
	Dir  int    // stripe directory index
	Name string // file name
	Off  int64  // offset within the stripe sub-file
	Err  error
}

// Error implements error.
func (e *StripeReadError) Error() string {
	return fmt.Sprintf("pfs: stripe dir %d of %q at sub-offset %d: %v", e.Dir, e.Name, e.Off, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *StripeReadError) Unwrap() error { return e.Err }

// ReadAt reads length bytes at logical offset off of the named file into
// buf (len(buf) >= length), fanning out one goroutine per stripe directory
// touched. It blocks until the read completes. When several stripe
// directories fail, the error of the lowest-numbered one is returned, so a
// multi-server failure reports deterministically rather than in goroutine
// completion order.
func (fs *RealFS) ReadAt(name string, off int64, buf []byte) error {
	return fs.ReadAtAttempt(name, off, buf, 0)
}

// ReadAtAttempt is ReadAt with an explicit retry-attempt number, which the
// fault plan folds into its deterministic per-operation draw: a retried
// read re-draws, so transient injected faults clear under retry exactly as
// transient real faults do.
func (fs *RealFS) ReadAtAttempt(name string, off int64, buf []byte, attempt int) error {
	// Each touched directory is served by exactly one goroutine reading
	// its sub-file sequentially; errs is indexed by directory, so the
	// lowest-numbered failure wins.
	r := fs.lease(name)
	defer fs.release(r)
	r.off, r.buf, r.attempt = off, buf, attempt
	for d := 0; d < fs.dirs; d++ {
		if _, ok := fs.firstUnit(off, int64(len(buf)), d); !ok {
			continue
		}
		r.wg.Add(1)
		go r.run[d]()
	}
	r.wg.Wait()
	for _, err := range r.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// readReq is one fan-out read. Requests are recycled through RealFS.free,
// and each binds its per-directory closures once, when it is built, so
// launching a directory's goroutine allocates nothing.
type readReq struct {
	h       *subFiles // the read file's handles, held for the read
	name    string
	off     int64
	buf     []byte
	attempt int
	wg      sync.WaitGroup
	errs    []error  // per stripe directory
	run     []func() // run[d] serves directory d into errs[d]
}

// lease takes a fan-out request off the free list (building one if it is
// empty) and pins the named file's cached handle set for the read.
func (fs *RealFS) lease(name string) *readReq {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var r *readReq
	if n := len(fs.free); n > 0 {
		r = fs.free[n-1]
		fs.free = fs.free[:n-1]
	} else {
		r = fs.newReadReq()
	}
	h := fs.open[name]
	if h == nil {
		h = &subFiles{f: make([]atomic.Pointer[os.File], fs.dirs)}
		if fs.open == nil {
			fs.open = make(map[string]*subFiles)
		}
		fs.open[name] = h
	}
	h.refs++
	r.h, r.name = h, name
	return r
}

// newReadReq builds a fan-out request and binds its per-directory
// closures.
func (fs *RealFS) newReadReq() *readReq {
	r := &readReq{errs: make([]error, fs.dirs), run: make([]func(), fs.dirs)}
	for d := range r.run {
		r.run[d] = func() {
			defer r.wg.Done()
			r.errs[d] = fs.readDir(r, d)
		}
	}
	return r
}

// release unpins the request's handle set, closing it if it was dropped
// while the read held it, and returns the request to the free list.
func (fs *RealFS) release(r *readReq) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if r.h.refs--; r.h.refs == 0 && r.h.dropped {
		r.h.close()
	}
	clear(r.errs)
	r.h, r.name, r.buf = nil, "", nil
	fs.free = append(fs.free, r)
}

// drop removes the named file's handle set from the cache. It is closed
// now if no read holds it, else by the last read to release it.
func (fs *RealFS) drop(name string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.dropLocked(name)
}

// dropLocked is drop with fs.mu held; it returns the close error of a set
// no read holds.
func (fs *RealFS) dropLocked(name string) error {
	h := fs.open[name]
	if h == nil {
		return nil
	}
	delete(fs.open, name)
	h.dropped = true
	if h.refs == 0 {
		return h.close()
	}
	return nil
}

// Close releases every cached sub-file handle and returns the first close
// error. Reads in flight keep their handles until they finish; a later
// read re-opens.
func (fs *RealFS) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var first error
	for name := range fs.open {
		if err := fs.dropLocked(name); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// subFile returns the cached handle of h's sub-file in stripe directory
// d, opening it on first use. Racing first reads both open; one handle is
// kept and the other closed.
func (fs *RealFS) subFile(h *subFiles, name string, d int) (*os.File, error) {
	if f := h.f[d].Load(); f != nil {
		return f, nil
	}
	f, err := os.Open(fs.subPath(d, name))
	if err != nil {
		return nil, err
	}
	if !h.f[d].CompareAndSwap(nil, f) {
		f.Close()
		return h.f[d].Load(), nil
	}
	return f, nil
}

// firstRun returns stripe directory d's first run of the read [off,
// off+length); the read must touch d.
func (fs *RealFS) firstRun(off, length int64, d int) segment {
	u, _ := fs.firstUnit(off, length, d)
	return fs.run(off, length, u)
}

// ProbeAt reads length bytes at logical offset off of the named file into
// buf like ReadAt, but without fault injection, fan-out or the handle
// cache — the metadata probe a client performs once at startup to learn
// file geometry, which the injected fault stream covering data reads
// should not fail, and the read-back of files that are not data inputs.
func (fs *RealFS) ProbeAt(name string, off int64, buf []byte) error {
	for d := 0; d < fs.dirs; d++ {
		if _, ok := fs.firstUnit(off, int64(len(buf)), d); !ok {
			continue
		}
		f, err := os.Open(fs.subPath(d, name))
		if err != nil {
			return &StripeReadError{Dir: d, Name: name, Off: fs.firstRun(off, int64(len(buf)), d).subOff, Err: err}
		}
		err = fs.readRuns(f, name, off, d, buf)
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// readDir serves stripe directory d's share of fan-out read r, applying
// the fault plan: a latency spike sleeps, an injected failure aborts the
// directory's runs, and a corruption flips one bit of the bytes served.
func (fs *RealFS) readDir(r *readReq, d int) error {
	name, off, buf := r.name, r.off, r.buf
	var o FaultOutcome
	if fp := fs.faults; fp != nil {
		o = fp.ReadOutcome(name, off, d, r.attempt)
		if o.Slow {
			fp.countSlow()
			time.Sleep(fp.slowDelay())
		}
		if o.Fail {
			fp.countFailure()
			return &StripeReadError{Dir: d, Name: name, Off: fs.firstRun(off, int64(len(buf)), d).subOff,
				Err: &FaultError{Dir: d, Name: name, Off: off}}
		}
	}
	f, err := fs.subFile(r.h, name, d)
	if err != nil {
		return &StripeReadError{Dir: d, Name: name, Off: fs.firstRun(off, int64(len(buf)), d).subOff, Err: err}
	}
	if err := fs.readRuns(f, name, off, d, buf); err != nil {
		return err
	}
	if o.Corrupt {
		fs.faults.countCorrupt()
		// Flip one bit at a deterministic position within this
		// directory's first run.
		s := fs.firstRun(off, int64(len(buf)), d)
		buf[s.bufOff+fs.faults.CorruptOffset(name, off, d, s.length)] ^= 0x40
	}
	return nil
}

// readRuns reads stripe directory d's runs of the read [off, off+len(buf))
// into buf from f, the directory's sub-file.
func (fs *RealFS) readRuns(f *os.File, name string, off int64, d int, buf []byte) error {
	return fs.dirRuns(off, int64(len(buf)), d, func(s segment) error {
		if _, err := f.ReadAt(buf[s.bufOff:s.bufOff+s.length], s.subOff); err != nil {
			return &StripeReadError{Dir: d, Name: name, Off: s.subOff, Err: err}
		}
		return nil
	})
}

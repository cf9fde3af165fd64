package pfs

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// RealFS stripes files across local directories, mirroring the layout of
// the modelled parallel file system: unit u of a file lives in stripe
// directory u mod StripeDirs, at unit index u div StripeDirs within that
// directory's sub-file. Reads fan out one goroutine per touched stripe
// directory, and an asynchronous API (Start/Wait) mirrors the Paragon NX
// iread()/iowait() pair so the pipeline's first task can overlap I/O with
// computation.
type RealFS struct {
	root     string
	dirs     int
	unit     int64
	async    bool
	faults   *FaultPlan
	dirPaths []string // stripe directory paths, built once by CreateReal
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

// Async reports whether asynchronous reads are enabled (false emulates
// PIOFS semantics: Start degenerates to a completed synchronous read).
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
			if err := os.Remove(fs.subPath(d, name)); err != nil && !os.IsNotExist(err) {
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
	var wg sync.WaitGroup
	errs := make([]error, fs.dirs)
	for d := 0; d < fs.dirs; d++ {
		if _, ok := fs.firstUnit(off, int64(len(buf)), d); !ok {
			continue
		}
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			errs[d] = fs.readDir(name, off, d, attempt, buf)
		}(d)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// firstRun returns stripe directory d's first run of the read [off,
// off+length); the read must touch d.
func (fs *RealFS) firstRun(off, length int64, d int) segment {
	u, _ := fs.firstUnit(off, length, d)
	return fs.run(off, length, u)
}

// ProbeAt reads length bytes at logical offset off of the named file into
// buf like ReadAt, but without fault injection or fan-out — the metadata
// probe a client performs once at startup to learn file geometry, which
// the injected fault stream covering data reads should not fail.
func (fs *RealFS) ProbeAt(name string, off int64, buf []byte) error {
	for d := 0; d < fs.dirs; d++ {
		if err := fs.readRuns(name, off, d, buf); err != nil {
			return err
		}
	}
	return nil
}

// readDir serves one stripe directory's share of a fan-out read, applying
// the fault plan: a latency spike sleeps, an injected failure aborts the
// directory's runs, and a corruption flips one bit of the bytes served.
func (fs *RealFS) readDir(name string, off int64, d int, attempt int, buf []byte) error {
	var o FaultOutcome
	if fp := fs.faults; fp != nil {
		o = fp.ReadOutcome(name, off, d, attempt)
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
	if err := fs.readRuns(name, off, d, buf); err != nil {
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
// into buf through one open of its sub-file. A directory the read does not
// touch is not opened.
func (fs *RealFS) readRuns(name string, off int64, d int, buf []byte) error {
	var f *os.File
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	return fs.dirRuns(off, int64(len(buf)), d, func(s segment) error {
		if f == nil {
			var err error
			if f, err = os.Open(fs.subPath(d, name)); err != nil {
				return &StripeReadError{Dir: d, Name: name, Off: s.subOff, Err: err}
			}
		}
		if _, err := f.ReadAt(buf[s.bufOff:s.bufOff+s.length], s.subOff); err != nil {
			return &StripeReadError{Dir: d, Name: name, Off: s.subOff, Err: err}
		}
		return nil
	})
}

// Pending is an in-flight asynchronous read, the analogue of the NX
// iread() handle.
type Pending struct {
	done chan struct{}
	err  error
}

// Wait blocks until the read completes and returns its error — the
// analogue of iowait().
func (p *Pending) Wait() error {
	<-p.done
	return p.err
}

// Start begins an asynchronous read and returns immediately. When the file
// system was created without async support (PIOFS semantics), Start
// performs the read synchronously before returning, so Wait never
// overlaps anything — matching the paper's observation that PIOFS reads
// cannot be hidden behind computation.
func (fs *RealFS) Start(name string, off int64, buf []byte) *Pending {
	return fs.StartAttempt(name, off, buf, 0)
}

// StartAttempt is Start with an explicit retry-attempt number (see
// ReadAtAttempt).
func (fs *RealFS) StartAttempt(name string, off int64, buf []byte, attempt int) *Pending {
	p := &Pending{done: make(chan struct{})}
	if !fs.async {
		p.err = fs.ReadAtAttempt(name, off, buf, attempt)
		close(p.done)
		return p
	}
	go func() {
		p.err = fs.ReadAtAttempt(name, off, buf, attempt)
		close(p.done)
	}()
	return p
}

// StartWrite begins an asynchronous whole-file write — how the radar
// refills a staging file while the pipeline computes. The data slice must
// not be modified until Wait returns. On a sync-only store the write
// happens before StartWrite returns.
func (fs *RealFS) StartWrite(name string, data []byte) *Pending {
	p := &Pending{done: make(chan struct{})}
	if !fs.async {
		p.err = fs.WriteFile(name, data)
		close(p.done)
		return p
	}
	go func() {
		p.err = fs.WriteFile(name, data)
		close(p.done)
	}()
	return p
}

package faultfs

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
)

// ErrInjected is the default error an armed rule returns. Injected faults
// not given an explicit Err wrap it, so tests can errors.Is for it.
var ErrInjected = errors.New("faultfs: injected fault")

// ErrNoSpace is the injected full-disk error (ENOSPC), as the kernel would
// return it.
var ErrNoSpace error = syscall.ENOSPC

// Op is a bitmask of filesystem operation kinds a Rule can arm.
type Op uint32

const (
	// OpOpen matches OpenFile calls (any flags).
	OpOpen Op = 1 << iota
	// OpRead matches File.Read and FS.ReadFile.
	OpRead
	// OpWrite matches File.Write.
	OpWrite
	// OpSync matches File.Sync.
	OpSync
	// OpRename matches FS.Rename (matched against the destination path).
	OpRename
	// OpRemove matches FS.Remove.
	OpRemove
	// OpTruncate matches FS.Truncate.
	OpTruncate
)

// String names the operation set, as injected errors and Observe see it.
func (o Op) String() string {
	names := []struct {
		op   Op
		name string
	}{
		{OpOpen, "open"}, {OpRead, "read"}, {OpWrite, "write"}, {OpSync, "sync"},
		{OpRename, "rename"}, {OpRemove, "remove"}, {OpTruncate, "truncate"},
	}
	var parts []string
	for _, n := range names {
		if o&n.op != 0 {
			parts = append(parts, n.name)
		}
	}
	if len(parts) == 0 {
		return "op(0)"
	}
	return strings.Join(parts, "|")
}

// Rule arms one deterministic fault: among the operations matching Op and
// Path, skip the first After occurrences, then fire on the next Count (0 =
// every later occurrence). What "fire" means depends on the rule: a plain
// rule returns Err without performing the operation; a ShortBy write rule
// performs a torn write (part of the data lands, then Err); a Flip read
// rule silently corrupts one bit of the data read — the CRC layer, not the
// caller, must catch it.
type Rule struct {
	// Op selects which operation kinds this rule matches (bitmask).
	Op Op
	// Path is a substring filter on the file's base name; "" matches all.
	Path string
	// After skips the first After matching operations.
	After int
	// Count fires on that many subsequent matches; 0 means every one.
	Count int
	// Err is the error injected (nil means ErrInjected). Ignored by Flip.
	Err error
	// ShortBy tears writes: that many tail bytes are withheld before Err
	// is returned (-1 = withhold half). 0 means fail without writing.
	ShortBy int
	// Flip corrupts reads: one deterministically chosen bit of the data
	// read is inverted, and the read succeeds.
	Flip bool

	seen  int // matching operations observed
	fired int // faults delivered
}

// err returns the rule's injected error.
func (r *Rule) err(op Op, name string) error {
	if r.Err != nil {
		return fmt.Errorf("%s %s: %w", op, filepath.Base(name), r.Err)
	}
	return fmt.Errorf("%s %s: %w", op, filepath.Base(name), ErrInjected)
}

// Inject wraps a base FS with a fault plan. It is safe for concurrent use;
// rule counters advance under one lock, so a single-writer workload sees a
// fully deterministic fault sequence.
type Inject struct {
	base FS

	mu       sync.Mutex
	rules    []*Rule
	fired    int
	observer func(kind string)
}

// NewInject returns an injecting FS over base armed with the given rules.
// The rules are evaluated in order; the first one whose window covers the
// operation fires.
func NewInject(base FS, rules ...Rule) *Inject {
	in := &Inject{base: Or(base)}
	for i := range rules {
		r := rules[i]
		in.rules = append(in.rules, &r)
	}
	return in
}

// AddRule arms one more rule.
func (in *Inject) AddRule(r Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = append(in.rules, &r)
}

// Disarm drops every rule: the disk behaves healthily from now on. Use it
// to end a fault window mid-test.
func (in *Inject) Disarm() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = nil
}

// Fired returns how many faults have been delivered.
func (in *Inject) Fired() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// Armed reports whether any rule can still fire (unbounded rules keep an
// Inject armed forever).
func (in *Inject) Armed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rules {
		if r.Count == 0 || r.fired < r.Count {
			return true
		}
	}
	return false
}

// Observe installs a callback invoked once per delivered fault with the
// operation kind ("sync", "write", ...). It lets a metrics layer count
// faults by kind without faultfs importing it. The callback runs outside
// the Inject lock and must be safe for concurrent use; nil uninstalls.
func (in *Inject) Observe(fn func(kind string)) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.observer = fn
}

// match advances the counters of every rule matching (op, name) and
// returns the first rule whose window covers this occurrence, or nil.
func (in *Inject) match(op Op, name string) *Rule {
	base := filepath.Base(name)
	in.mu.Lock()
	var hit *Rule
	for _, r := range in.rules {
		if r.Op&op == 0 || (r.Path != "" && !strings.Contains(base, r.Path)) {
			continue
		}
		n := r.seen
		r.seen++
		if n < r.After || (r.Count > 0 && n >= r.After+r.Count) {
			continue
		}
		if hit == nil {
			hit = r
			r.fired++
			in.fired++
		}
	}
	observer := in.observer
	in.mu.Unlock()
	if hit != nil && observer != nil {
		observer(op.String())
	}
	return hit
}

// flipBit inverts one deterministically chosen bit of b (derived from the
// rule's occurrence counter, so repeated flips land on different bits).
func flipBit(b []byte, salt int) {
	if len(b) == 0 {
		return
	}
	bit := (uint64(salt)*2654435761 + 17) % uint64(8*len(b))
	b[bit/8] ^= 1 << (bit % 8)
}

// OpenFile opens through the base FS unless an open rule fires; the
// returned file routes its reads, writes and syncs back through the plan.
func (in *Inject) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if r := in.match(OpOpen, name); r != nil {
		return nil, r.err(OpOpen, name)
	}
	f, err := in.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f, name: name}, nil
}

// ReadFile reads through the base FS; a flip rule corrupts one bit of the
// result, a plain read rule fails the call.
func (in *Inject) ReadFile(name string) ([]byte, error) {
	if r := in.match(OpRead, name); r != nil {
		if !r.Flip {
			return nil, r.err(OpRead, name)
		}
		data, err := in.base.ReadFile(name)
		if err != nil {
			return nil, err
		}
		flipBit(data, r.fired)
		return data, nil
	}
	return in.base.ReadFile(name)
}

// ReadDir passes through (directory listings are not a fault site).
func (in *Inject) ReadDir(name string) ([]fs.DirEntry, error) { return in.base.ReadDir(name) }

// Stat passes through.
func (in *Inject) Stat(name string) (fs.FileInfo, error) { return in.base.Stat(name) }

// MkdirAll passes through.
func (in *Inject) MkdirAll(path string, perm fs.FileMode) error {
	return in.base.MkdirAll(path, perm)
}

// Remove fails when a remove rule fires.
func (in *Inject) Remove(name string) error {
	if r := in.match(OpRemove, name); r != nil {
		return r.err(OpRemove, name)
	}
	return in.base.Remove(name)
}

// Rename fails when a rename rule fires — the torn-rename fault: the
// destination never appears, the source stays.
func (in *Inject) Rename(oldpath, newpath string) error {
	if r := in.match(OpRename, newpath); r != nil {
		return r.err(OpRename, newpath)
	}
	return in.base.Rename(oldpath, newpath)
}

// Truncate fails when a truncate rule fires.
func (in *Inject) Truncate(name string, size int64) error {
	if r := in.match(OpTruncate, name); r != nil {
		return r.err(OpTruncate, name)
	}
	return in.base.Truncate(name, size)
}

// injFile routes file operations back through the plan.
type injFile struct {
	in   *Inject
	f    File
	name string
}

// Read applies read rules: flip rules corrupt one bit of what was read,
// plain rules fail the call.
func (f *injFile) Read(p []byte) (int, error) {
	if r := f.in.match(OpRead, f.name); r != nil {
		if !r.Flip {
			return 0, r.err(OpRead, f.name)
		}
		n, err := f.f.Read(p)
		if n > 0 {
			flipBit(p[:n], r.fired)
		}
		return n, err
	}
	return f.f.Read(p)
}

// Write applies write rules: a ShortBy rule writes a torn prefix to the
// underlying file before failing, modeling a crash mid-write(2); other
// rules fail without writing (ENOSPC-style).
func (f *injFile) Write(p []byte) (int, error) {
	if r := f.in.match(OpWrite, f.name); r != nil {
		keep := 0
		switch {
		case r.ShortBy < 0:
			keep = len(p) / 2
		case r.ShortBy > 0:
			keep = len(p) - r.ShortBy
			if keep < 0 {
				keep = 0
			}
		}
		n := 0
		if keep > 0 {
			n, _ = f.f.Write(p[:keep])
		}
		return n, r.err(OpWrite, f.name)
	}
	return f.f.Write(p)
}

// Sync fails when a sync rule fires: the fsync error every journaled
// system must survive.
func (f *injFile) Sync() error {
	if r := f.in.match(OpSync, f.name); r != nil {
		return r.err(OpSync, f.name)
	}
	return f.f.Sync()
}

// Close passes through; close faults are indistinguishable from sync
// faults for a WAL, so the plan does not model them separately.
func (f *injFile) Close() error { return f.f.Close() }

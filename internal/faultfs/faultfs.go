// Package faultfs abstracts the filesystem operations the durable layer
// performs — opening, writing, syncing, renaming, truncating, listing —
// behind a pluggable FS/File pair, so storage faults become injectable.
//
// The default implementation (Disk) passes every call straight to the os
// package and costs one interface dispatch. The injecting implementation
// (Inject) wraps any FS with a deterministic fault plan: rules that fire
// fsync errors, short/torn writes, ENOSPC, rename failures, and read
// bit-flips, selected by operation count and path pattern. Because rules
// count matching operations rather than consult a clock, a given plan
// produces the same fault at the same point of the same workload on every
// run — the property the injection differential tests rely on.
package faultfs

import (
	"io"
	"io/fs"
	"os"
)

// File is the subset of *os.File the durable layer uses: sequential reads
// and writes, fsync, close.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file to stable storage.
	Sync() error
}

// FS is the filesystem face of the durable layer: every path the WAL, the
// snapshot codec and the store's manifest machinery touch goes through one
// of these calls.
type FS interface {
	// OpenFile is os.OpenFile. Opening a directory read-only for Sync is
	// allowed, as on POSIX.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// ReadFile is os.ReadFile.
	ReadFile(name string) ([]byte, error)
	// ReadDir is os.ReadDir.
	ReadDir(name string) ([]fs.DirEntry, error)
	// Stat is os.Stat.
	Stat(name string) (fs.FileInfo, error)
	// MkdirAll is os.MkdirAll.
	MkdirAll(path string, perm fs.FileMode) error
	// Remove is os.Remove.
	Remove(name string) error
	// Rename is os.Rename.
	Rename(oldpath, newpath string) error
	// Truncate is os.Truncate.
	Truncate(name string, size int64) error
}

// Disk is the passthrough FS: the real filesystem via the os package.
var Disk FS = osFS{}

// Or returns f unless it is nil, in which case the real disk. Packages
// accepting an optional FS in their options normalize through it.
func Or(f FS) FS {
	if f == nil {
		return Disk
	}
	return f
}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }

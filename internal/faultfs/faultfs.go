// Package faultfs abstracts the filesystem operations the durable layer
// performs — opening, writing, syncing, renaming, truncating, listing —
// behind a pluggable FS/File pair, so storage faults become injectable.
// The WAL, the snapshot codec, the store's MANIFEST and TERM files and a
// follower's directory wipe reach the disk only through an FS. Every whole
// durable file but a WAL segment, which the WAL creates and appends
// itself, is put there by WriteFile or ReplaceFile, and SyncDir is the one
// directory fsync.
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
	"path/filepath"
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
// snapshot codec, the store's MANIFEST and TERM machinery and a follower's
// directory wipe touch, read or written, goes through one of these calls
// on the FS the store or follower was opened on.
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

// WriteFile puts data on disk as the whole content of path: create or
// truncate, write, fsync, close. On any failure the file is removed
// (best-effort), so a torn write never lingers under its name.
func WriteFile(fsys FS, path string, data []byte) error {
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(path)
	}
	return err
}

// ReplaceFile atomically replaces path with data: WriteFile to path+".tmp",
// rename over path, fsync the directory. A failure before the rename leaves
// path untouched and no temp file behind; once SyncDir returns, the new
// content survives a crash.
func ReplaceFile(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	if err := WriteFile(fsys, tmp, data); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return SyncDir(fsys, filepath.Dir(path))
}

// SyncDir fsyncs a directory so the entries created, renamed or removed in
// it survive a crash.
func SyncDir(fsys FS, dir string) error {
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

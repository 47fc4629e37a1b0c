package main

import (
	"io/fs"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
)

// diskCounts is what the durable layer asked of the device.
type diskCounts struct {
	Writes, Bytes, Syncs int64
	WriteTime, SyncTime  time.Duration
}

func (a diskCounts) sub(b diskCounts) diskCounts {
	return diskCounts{a.Writes - b.Writes, a.Bytes - b.Bytes, a.Syncs - b.Syncs, a.WriteTime - b.WriteTime, a.SyncTime - b.SyncTime}
}

// countFS passes every call to the real disk and counts the writes, the
// bytes they carried, the fsyncs and the time spent in both. Stores take
// it as Options.FS, so the counts are the device traffic of exactly the
// store under test and repeat for a fixed single-writer batch list.
type countFS struct {
	faultfs.FS
	writes, bytes, syncs, writeNs, syncNs atomic.Int64
}

func newCountFS() *countFS { return &countFS{FS: faultfs.Disk} }

func (c *countFS) counts() diskCounts {
	return diskCounts{c.writes.Load(), c.bytes.Load(), c.syncs.Load(),
		time.Duration(c.writeNs.Load()), time.Duration(c.syncNs.Load())}
}

func (c *countFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

type countFile struct {
	faultfs.File
	fs *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.fs.writeNs.Add(int64(time.Since(t0)))
	f.fs.writes.Add(1)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.syncNs.Add(int64(time.Since(t0)))
	f.fs.syncs.Add(1)
	return err
}

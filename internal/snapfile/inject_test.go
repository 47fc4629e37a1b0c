package snapfile

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/gen"
)

// TestInjectedSnapshotWriteFaults drives both snapshot write paths (mono +
// sharded) into a fault at every stage of the atomic write protocol —
// temp-file open, data write, short write, fsync, rename — and asserts the
// invariant the recovery path depends on: a failed write leaves the
// previous good snapshot untouched and loadable, and no .tmp debris that
// parses as a snapshot.
func TestInjectedSnapshotWriteFaults(t *testing.T) {
	faults := []struct {
		name string
		rule faultfs.Rule
	}{
		{"open-error", faultfs.Rule{Op: faultfs.OpOpen, Path: ".tmp"}},
		{"write-error", faultfs.Rule{Op: faultfs.OpWrite, Path: ".tmp"}},
		{"short-write", faultfs.Rule{Op: faultfs.OpWrite, Path: ".tmp", ShortBy: -1}},
		{"enospc", faultfs.Rule{Op: faultfs.OpWrite, Path: ".tmp", Err: faultfs.ErrNoSpace}},
		{"fsync-error", faultfs.Rule{Op: faultfs.OpSync, Path: ".tmp"}},
		{"torn-rename", faultfs.Rule{Op: faultfs.OpRename, Path: "snap"}},
	}
	g := gen.P2P(rand.New(rand.NewSource(7)), 120, 400, 3)
	mono := buildStoreParts(g, 9)
	shard := buildShardedParts(g, 3, 9)
	kinds := []struct {
		name  string
		write func(fsys faultfs.FS, path string) error
		check func(t *testing.T, path string)
	}{
		{
			name:  "mono",
			write: func(fsys faultfs.FS, path string) error { return WriteStoreFS(fsys, path, mono) },
			check: func(t *testing.T, path string) {
				p, err := LoadStore(path)
				if err != nil || p.Epoch != 9 {
					t.Fatalf("previous snapshot damaged: %v", err)
				}
			},
		},
		{
			name:  "sharded",
			write: func(fsys faultfs.FS, path string) error { return WriteShardedFS(fsys, path, shard) },
			check: func(t *testing.T, path string) {
				p, err := LoadSharded(path)
				if err != nil || p.Epoch != 9 {
					t.Fatalf("previous snapshot damaged: %v", err)
				}
			},
		},
	}
	for _, k := range kinds {
		for _, f := range faults {
			t.Run(k.name+"/"+f.name, func(t *testing.T) {
				dir := t.TempDir()
				path := filepath.Join(dir, "snap-0001.qps")
				// Lay down a good snapshot first, then overwrite under fault.
				if err := k.write(faultfs.Disk, path); err != nil {
					t.Fatal(err)
				}
				in := faultfs.NewInject(faultfs.Disk, f.rule)
				if err := k.write(in, path); err == nil {
					t.Fatal("faulted write reported success")
				} else if f.rule.Err != nil && !errors.Is(err, f.rule.Err) {
					t.Fatalf("error %v does not wrap the injected %v", err, f.rule.Err)
				}
				if in.Fired() == 0 {
					t.Fatal("fault never fired")
				}
				k.check(t, path)
				if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
					// A torn rename legitimately leaves the temp file when
					// the injected fault also blocks the cleanup Remove;
					// here Remove is not faulted, so debris is a bug.
					t.Fatal("temp file debris left behind")
				}
			})
		}
	}
}

// TestInjectedBitFlipCaughtOnLoad reads a valid snapshot through a
// bit-flipping filesystem: the CRC layer must reject it, never misdecode.
func TestInjectedBitFlipCaughtOnLoad(t *testing.T) {
	g := gen.P2P(rand.New(rand.NewSource(8)), 100, 300, 3)
	path := filepath.Join(t.TempDir(), "snap.qps")
	if err := WriteStore(path, buildStoreParts(g, 3)); err != nil {
		t.Fatal(err)
	}
	// One unbounded flip rule: every load corrupts a different bit (the
	// flip position is derived from the rule's fire counter).
	in := faultfs.NewInject(faultfs.Disk, faultfs.Rule{Op: faultfs.OpRead, Flip: true})
	for i := 0; i < 8; i++ {
		if _, err := LoadStoreFS(in, path); !errors.Is(err, ErrFormat) {
			t.Fatalf("load %d: flipped load = %v, want ErrFormat", i, err)
		}
	}
	if in.Fired() < 8 {
		t.Fatalf("flip fired %d times, want 8", in.Fired())
	}
}

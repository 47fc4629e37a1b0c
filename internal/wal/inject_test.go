package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/faultfs"
)

// flipOneBit silently corrupts one payload bit of a segment on disk.
func flipOneBit(t *testing.T, dir, name string) {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 20 {
		t.Fatalf("segment %s too small to corrupt", name)
	}
	data[len(data)-3] ^= 0x10
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
}

// TestInjectedFaults drives each WAL write path — append, commit-fsync,
// rotation, truncate-after-checkpoint — into an injected fault and asserts
// the failure surfaces, the log stays usable (after rollback where the
// contract requires one), and every record appended before or after the
// fault replays intact.
func TestInjectedFaults(t *testing.T) {
	cases := []struct {
		name  string
		rules []faultfs.Rule
		run   func(t *testing.T, l *Log, in *faultfs.Inject)
	}{
		{
			// Plain write failure mid-group: rollback, then retry the
			// whole group cleanly.
			name:  "append-write-error",
			rules: []faultfs.Rule{{Op: faultfs.OpWrite, After: 5, Count: 1, Path: segPrefix}},
			run: func(t *testing.T, l *Log, in *faultfs.Inject) {
				appendN(t, l, 1, 5)
				m := l.TailMark()
				var ferr error
				for seq := uint64(6); seq <= 8; seq++ {
					if ferr = l.Append(seq, []byte("x")); ferr != nil {
						break
					}
				}
				if !errors.Is(ferr, faultfs.ErrInjected) {
					t.Fatalf("append group did not hit the injected fault: %v", ferr)
				}
				if err := l.Rollback(m); err != nil {
					t.Fatalf("Rollback: %v", err)
				}
				appendN(t, l, 6, 8)
				if got := collect(t, l, 1); len(got) != 8 {
					t.Fatalf("replay got %d records, want 8", len(got))
				}
			},
		},
		{
			// ENOSPC torn halfway through a frame: rollback erases the
			// torn prefix, the retried group lands whole.
			name:  "append-enospc-torn",
			rules: []faultfs.Rule{{Op: faultfs.OpWrite, After: 3, Count: 1, Err: faultfs.ErrNoSpace, ShortBy: -1, Path: segPrefix}},
			run: func(t *testing.T, l *Log, in *faultfs.Inject) {
				appendN(t, l, 1, 3)
				m := l.TailMark()
				if err := l.Append(4, []byte("torn-victim")); !errors.Is(err, faultfs.ErrNoSpace) {
					t.Fatalf("append = %v, want ENOSPC", err)
				}
				if err := l.Rollback(m); err != nil {
					t.Fatalf("Rollback: %v", err)
				}
				appendN(t, l, 4, 6)
				got := collect(t, l, 1)
				if len(got) != 6 || got[4] != "payload-4" {
					t.Fatalf("replay got %d records, [4]=%q", len(got), got[4])
				}
			},
		},
		{
			// fsync failure on Commit: the group is not acked; a retried
			// Commit after the fault clears succeeds and the data is there.
			name:  "commit-fsync-error",
			rules: []faultfs.Rule{{Op: faultfs.OpSync, After: 0, Count: 1, Path: segPrefix}},
			run: func(t *testing.T, l *Log, in *faultfs.Inject) {
				for seq := uint64(1); seq <= 4; seq++ {
					if err := l.Append(seq, []byte("x")); err != nil {
						t.Fatalf("Append(%d): %v", seq, err)
					}
				}
				if err := l.Commit(); !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("Commit = %v, want injected fsync error", err)
				}
				if err := l.Commit(); err != nil {
					t.Fatalf("retried Commit: %v", err)
				}
				if got := collect(t, l, 1); len(got) != 4 {
					t.Fatalf("replay got %d records, want 4", len(got))
				}
			},
		},
		{
			// Fault on creating the rotation's fresh segment: the append
			// that triggered rotation fails, earlier records stay intact,
			// and once the fault clears appends resume.
			name:  "rotate-open-error",
			rules: []faultfs.Rule{{Op: faultfs.OpOpen, After: 1, Count: 1, Path: segPrefix}},
			run: func(t *testing.T, l *Log, in *faultfs.Inject) {
				// Append in groups of 5 with the store's mark/rollback/retry
				// discipline; the first rotation (second segment open) fails.
				sawFault := false
				for seq := uint64(1); seq <= 25; {
					m := l.TailMark()
					end := seq + 4
					var gerr error
					for s := seq; s <= end; s++ {
						if gerr = l.Append(s, []byte(fmt.Sprintf("payload-%d", s))); gerr != nil {
							break
						}
					}
					if gerr == nil {
						gerr = l.Commit()
					}
					if gerr != nil {
						if !errors.Is(gerr, faultfs.ErrInjected) {
							t.Fatalf("group at %d: %v", seq, gerr)
						}
						sawFault = true
						if err := l.Rollback(m); err != nil {
							t.Fatalf("Rollback: %v", err)
						}
						continue // retry the same group
					}
					seq = end + 1
				}
				if !sawFault {
					t.Fatal("rotation never hit the injected open fault")
				}
				got := collect(t, l, 1)
				if len(got) != 25 || got[23] != "payload-23" {
					t.Fatalf("replay got %d records, [23]=%q", len(got), got[23])
				}
			},
		},
		{
			// Remove failure during checkpoint truncation: TruncateBefore
			// errors, nothing is lost, and the retry drops the segments.
			name:  "truncate-remove-error",
			rules: []faultfs.Rule{{Op: faultfs.OpRemove, After: 0, Count: 1, Path: segPrefix}},
			run: func(t *testing.T, l *Log, in *faultfs.Inject) {
				appendN(t, l, 1, 40) // several 128-byte segments
				if l.SegmentCount() < 3 {
					t.Skipf("only %d segments", l.SegmentCount())
				}
				before := l.SegmentCount()
				if err := l.TruncateBefore(30); !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("TruncateBefore = %v, want injected remove error", err)
				}
				if err := l.TruncateBefore(30); err != nil {
					t.Fatalf("retried TruncateBefore: %v", err)
				}
				if l.SegmentCount() >= before {
					t.Fatalf("retry did not drop segments (%d -> %d)", before, l.SegmentCount())
				}
				if got := collect(t, l, 31); len(got) != 10 {
					t.Fatalf("replay from 31 got %d records, want 10", len(got))
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			in := faultfs.NewInject(faultfs.Disk, tc.rules...)
			l, err := Open(dir, 1, &Options{SegmentBytes: 128, FS: in})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer l.Close()
			tc.run(t, l, in)
			if in.Fired() == 0 {
				t.Fatal("fault plan never fired — the test exercised nothing")
			}
		})
	}
}

// TestTornWriteCrashRecovery tears a frame mid-write, abandons the handle
// (the crash), and reopens: the torn tail must be cut and every previously
// committed record preserved.
func TestTornWriteCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	in := faultfs.NewInject(faultfs.Disk, faultfs.Rule{Op: faultfs.OpWrite, After: 6, Count: 1, ShortBy: -1, Path: segPrefix})
	l, err := Open(dir, 1, &Options{FS: in})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 6)
	if err := l.Append(7, []byte("torn")); err == nil {
		t.Fatal("torn append did not error")
	}
	// Crash: no rollback, no close.
	l2 := open(t, dir, 7, nil)
	defer l2.Close()
	if got := l2.LastSeq(); got != 6 {
		t.Fatalf("LastSeq after heal = %d, want 6", got)
	}
	got := collect(t, l2, 1)
	if len(got) != 6 || got[6] != "payload-6" {
		t.Fatalf("replay got %d records, [6]=%q", len(got), got[6])
	}
}

// TestQuarantineAndReset pins the scrubber/recovery APIs: CheckSegment
// flags a bit-flipped sealed segment, QuarantineSegment moves it aside, and
// Reset rebuilds an empty log at a chosen seq.
func TestQuarantineAndReset(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, 1, &Options{SegmentBytes: 128, Sync: SyncNone})
	appendN(t, l, 1, 40)
	segs := l.Segments()
	if len(segs) < 3 {
		t.Skipf("only %d segments", len(segs))
	}
	for _, s := range segs[:len(segs)-1] {
		if _, err := CheckSegment(nil, dir, s.Name); err != nil {
			t.Fatalf("CheckSegment(%s) on clean data: %v", s.Name, err)
		}
	}
	l.Close()

	// Flip one bit in a sealed segment and reopen through a flip-free disk.
	l2 := open(t, dir, 41, &Options{SegmentBytes: 128})
	defer l2.Close()
	victim := l2.Segments()[1]
	flipOneBit(t, dir, victim.Name)
	if _, err := CheckSegment(nil, dir, victim.Name); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("CheckSegment on flipped segment = %v, want ErrCorrupt", err)
	}
	if err := l2.QuarantineSegment(victim.Name); err != nil {
		t.Fatalf("QuarantineSegment: %v", err)
	}
	if err := l2.QuarantineSegment(l2.ActiveSegment()); err == nil {
		t.Fatal("QuarantineSegment accepted the active segment")
	}
	names, err := ListDir(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n.Name == victim.Name {
			t.Fatal("quarantined segment still listed as live")
		}
	}

	if err := l2.Reset(100); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if got := l2.LastSeq(); got != 99 {
		t.Fatalf("LastSeq after Reset = %d, want 99", got)
	}
	appendN(t, l2, 100, 102)
	if got := collect(t, l2, 100); len(got) != 3 {
		t.Fatalf("replay after Reset got %d records, want 3", len(got))
	}
}

// TestFailedRollbackLeavesTailActive rolls back a group that rotated the
// log, with the truncate of the marked segment failing. That segment is the
// last one again, so it is the active one: TruncateBefore keeps it,
// QuarantineSegment refuses it, and Segments does not call it sealed.
func TestFailedRollbackLeavesTailActive(t *testing.T) {
	in := faultfs.NewInject(faultfs.Disk)
	l := open(t, t.TempDir(), 1, &Options{SegmentBytes: 64, Sync: SyncNone, FS: in})
	defer l.Close()
	appendN(t, l, 1, 3) // 3 frames of 25 bytes: the next append rotates
	m := l.TailMark()
	if err := l.Append(4, []byte("x")); err != nil || l.SegmentCount() != 2 {
		t.Fatalf("Append = %v with %d segments, want a rotation", err, l.SegmentCount())
	}
	in.AddRule(faultfs.Rule{Op: faultfs.OpTruncate, Count: 1})
	if err := l.Rollback(m); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Rollback = %v, want the injected truncate fault", err)
	}
	if err := l.TruncateBefore(l.LastSeq()); err != nil {
		t.Fatalf("TruncateBefore: %v", err)
	}
	segs := l.Segments()
	if len(segs) != 1 || segs[0].Sealed {
		t.Fatalf("Segments = %+v, want the marked segment, unsealed", segs)
	}
	if err := l.QuarantineSegment(segs[0].Name); err == nil {
		t.Fatal("QuarantineSegment took the active segment")
	}
}

// TestQuarantineFromTakesLaterSegments holds the offline repair's rule on a
// closed log: a corrupt middle segment is set aside with every segment
// after it, and the earlier ones stay. The renames and the directory sync
// go through the given FS: a rename fault cuts a pass short with the
// corrupt segment still in place, so the next pass finds it again, and a
// sync fault fails the pass that renamed everything.
func TestQuarantineFromTakesLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, 1, &Options{SegmentBytes: 128, Sync: SyncNone})
	appendN(t, l, 1, 40)
	l.Close()
	segs, err := ListDir(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("only %d segments", len(segs))
	}
	victim := segs[1].Name
	corrupt := []string{"snap-0000000000000001.qps", victim}
	names := func() []string {
		cur, err := ListDir(nil, dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, s := range cur {
			out = append(out, s.Name)
		}
		return out
	}

	in := faultfs.NewInject(nil, faultfs.Rule{Op: faultfs.OpRename, After: 1, Count: 1})
	if _, err := QuarantineFrom(in, dir, corrupt); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("QuarantineFrom under a rename fault = %v, want the injected error", err)
	}
	if got := names(); !slices.Contains(got, victim) || len(got) != len(segs)-1 {
		t.Fatalf("after a cut pass the log holds %v: want every segment but the newest", got)
	}

	in = faultfs.NewInject(nil, faultfs.Rule{Op: faultfs.OpSync})
	if _, err := QuarantineFrom(in, dir, corrupt); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("QuarantineFrom under a sync fault = %v, want the injected error", err)
	}
	in.Disarm()
	if got, err := QuarantineFrom(in, dir, corrupt); err != nil || got != nil {
		t.Fatalf("a pass over the repaired log set aside %v (%v), want nothing", got, err)
	}
	if got := names(); !slices.Equal(got, []string{segs[0].Name}) {
		t.Fatalf("the log holds %v, want only %s, the segment before the corrupt one", got, segs[0].Name)
	}
	for _, s := range segs[1:] {
		if _, err := in.Stat(filepath.Join(dir, s.Name+".quarantine")); err != nil {
			t.Errorf("%s was not preserved: %v", s.Name, err)
		}
	}
}

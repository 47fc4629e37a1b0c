package wal

import (
	"bytes"
	"errors"
	"fmt"
	iofs "io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultfs"
)

// countFS counts what a Cursor asks of the filesystem: directory listings,
// stats, and the bytes its files' Read calls hand out. failNext makes the
// next Read fail, once.
type countFS struct {
	faultfs.FS
	readDirs, stats int
	bytes           int
	failNext        bool
}

var errPlanted = errors.New("planted read error")

func (c *countFS) ReadDir(name string) ([]iofs.DirEntry, error) {
	c.readDirs++
	return c.FS.ReadDir(name)
}

func (c *countFS) Stat(name string) (iofs.FileInfo, error) {
	c.stats++
	return c.FS.Stat(name)
}

func (c *countFS) OpenFile(name string, flag int, perm iofs.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, c: c}, nil
}

type countFile struct {
	faultfs.File
	c *countFS
}

func (f *countFile) Read(p []byte) (int, error) {
	if f.c.failNext {
		f.c.failNext = false
		return 0, errPlanted
	}
	n, err := f.File.Read(p)
	f.c.bytes += n
	return n, err
}

// shipped is what one read handed out.
type shipped struct {
	seqs   []uint64
	frames [][]byte
	oldest uint64
	err    error
}

func (s *shipped) take(seq uint64, frame []byte) {
	s.seqs = append(s.seqs, seq)
	s.frames = append(s.frames, append([]byte(nil), frame...))
}

func (s *shipped) bytes() (n int) {
	for _, f := range s.frames {
		n += len(f)
	}
	return n
}

// runTailOps is the body of TestTailCursorEqualsColdRead and FuzzTailCursor:
// it plays a history of log operations, one per byte of ops, and after each
// asks one long-lived Cursor and one cold read (a zero Cursor) for the same
// frames, as a follower tailing the log would — from the seq after the last
// one it was handed, now and then from somewhere else. The two must hand
// out the same (seq, frame) sequence and reach the same snapshot-needed
// verdict, every time. And the Cursor must be cheap exactly when it can be:
// a read that continues a read which ended cleanly at the log's end lists
// no directory, stats nothing and reads the bytes appended since, no more.
//
// The operations, by op%8: 0–2 append and commit one to three records
// (segments are tiny, so this rotates), 3 truncate sealed segments as a
// checkpoint does, 4 leave a torn tail on the newest segment (cut off again
// before the next append, as Open and Rollback do), 5 read under a budget
// of a frame or two, 6 plant a read error under the Cursor, 7 ask from a
// seq the Cursor is not at. It returns how many reads were held to the cost
// assertion.
func runTailOps(t *testing.T, ops []byte) (continued int) {
	dir := t.TempDir()
	l, err := Open(dir, 1, &Options{SegmentBytes: 96, Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cfs := &countFS{FS: faultfs.Disk}
	var cur Cursor
	defer cur.Close()

	from := uint64(1)
	continues := false // the last read ended cleanly at the log's end, and nothing since has undone that
	appended := 0      // bytes put in the log since the last read
	tornAt := int64(-1)
	heal := func() {
		if tornAt >= 0 {
			if err := os.Truncate(filepath.Join(dir, l.ActiveSegment()), tornAt); err != nil {
				t.Fatal(err)
			}
			tornAt = -1
		}
	}
	for step, op := range ops {
		budget := 1 << 20
		switch op % 8 {
		case 0, 1, 2:
			heal()
			for k := 0; k <= int(op>>3)%3; k++ {
				payload := bytes.Repeat([]byte{op}, int(op>>5)*9)
				if err := l.Append(l.LastSeq()+1, payload); err != nil {
					t.Fatal(err)
				}
				appended += frameHeader + seqBytes + len(payload)
			}
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
		case 3:
			if last := l.LastSeq(); last > 0 {
				if err := l.TruncateBefore(1 + uint64(op>>3)%last); err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			if tornAt < 0 {
				path := filepath.Join(dir, l.ActiveSegment())
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				tornAt = fi.Size()
				torn := frameRecord(l.LastSeq()+1, []byte("never finished"))[:5+int(op>>3)%12]
				f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				f.Write(torn)
				f.Close()
				appended += len(torn)
			}
		case 5:
			budget = 1 + int(op>>3)*3
		case 6:
			cfs.failNext = true
		case 7:
			from = uint64(op>>3) % (l.LastSeq() + 3)
			continues = false
		}

		var cold, warm shipped
		cold.oldest, cold.err = ReadFrames(nil, dir, from, budget, cold.take)
		if cold.err != nil {
			t.Fatalf("step %d: cold read from %d: %v", step, from, cold.err)
		}
		cfs.readDirs, cfs.stats, cfs.bytes = 0, 0, 0
		planted := cfs.failNext
		warm.oldest, warm.err = cur.ReadFrames(cfs, dir, from, budget, warm.take)
		fired := planted && !cfs.failNext
		cfs.failNext = false
		if fired {
			// The read failed and shipped nothing a follower would keep; the
			// next one must find its way again.
			if !errors.Is(warm.err, errPlanted) {
				t.Fatalf("step %d: a planted read error came back as %v", step, warm.err)
			}
			continues = false
			continue
		}
		if warm.err != nil {
			t.Fatalf("step %d: cursor read from %d: %v", step, from, warm.err)
		}
		if (from < cold.oldest) != (from < warm.oldest) || (from < cold.oldest && cold.oldest != warm.oldest) {
			t.Fatalf("step %d: from %d: cold read says oldest %d, cursor %d", step, from, cold.oldest, warm.oldest)
		}
		if len(cold.seqs) != len(warm.seqs) {
			t.Fatalf("step %d: from %d: cold read shipped seqs %v, cursor %v", step, from, cold.seqs, warm.seqs)
		}
		for i := range cold.seqs {
			if cold.seqs[i] != warm.seqs[i] || !bytes.Equal(cold.frames[i], warm.frames[i]) {
				t.Fatalf("step %d: from %d: frame %d is seq %d (%d bytes) cold, seq %d (%d bytes) from the cursor",
					step, from, i, cold.seqs[i], len(cold.frames[i]), warm.seqs[i], len(warm.frames[i]))
			}
		}
		cut := cold.bytes() >= budget
		if continues {
			continued++
			if cfs.readDirs != 0 || cfs.stats != 0 {
				t.Fatalf("step %d: a read continuing from %d listed %d directories and made %d stats", step, from, cfs.readDirs, cfs.stats)
			}
			if cfs.bytes > appended || (!cut && cfs.bytes != appended) {
				t.Fatalf("step %d: a read continuing from %d read %d bytes; %d were appended since the last one", step, from, cfs.bytes, appended)
			}
		}
		appended = 0
		if from < cold.oldest {
			from = cold.oldest // as after installing a snapshot
			continues = false
			continue
		}
		if n := len(warm.seqs); n > 0 {
			from = warm.seqs[n-1] + 1
		}
		// What is left of the log's end after this read: a whole log, read to
		// its end, with the follower asking for what comes next.
		continues = !cut && tornAt < 0 && from == l.LastSeq()+1
	}
	return continued
}

// TestTailCursorEqualsColdRead runs seeded histories of append, commit,
// rotation, checkpoint truncation, torn tails, budget cuts and read errors
// through runTailOps: a long-lived Cursor and a cold read hand out the same
// frames and verdicts after every operation, and the Cursor's continuing
// reads cost exactly the bytes appended — the count that turns "cheaper
// than re-reading the segment" into "costs what it ships".
func TestTailCursorEqualsColdRead(t *testing.T) {
	continued := 0
	for seed := int64(1); seed <= 12; seed++ {
		ops := make([]byte, 120)
		rand.New(rand.NewSource(seed)).Read(ops)
		continued += runTailOps(t, ops)
	}
	// Mostly appends, so that most reads continue the one before.
	for seed := int64(13); seed <= 18; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 120)
		for i := range ops {
			if ops[i] = byte(rng.Intn(256)); rng.Intn(5) > 0 {
				ops[i] &^= 7 // an append
			}
		}
		continued += runTailOps(t, ops)
	}
	if continued < 500 {
		t.Fatalf("only %d of %d reads continued the one before: the cost assertion was hardly exercised", continued, 18*120)
	}
}

// TestTailCursorFollowsTheLog pins the counts on the plain path by hand: one
// cold read, then appends — across a rotation — each read by a Cursor that
// lists nothing and reads each byte once.
func TestTailCursorFollowsTheLog(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, 1, &Options{SegmentBytes: 64, Sync: SyncNone})
	defer l.Close()
	appendN(t, l, 1, 3)
	cfs := &countFS{FS: faultfs.Disk}
	var cur Cursor
	defer cur.Close()
	var got []uint64
	take := func(seq uint64, _ []byte) { got = append(got, seq) }
	if _, err := cur.ReadFrames(cfs, dir, 1, 1<<20, take); err != nil || len(got) != 3 || cfs.readDirs != 1 {
		t.Fatalf("first read = seqs %v, %v, %d listings: want 1..3 through the directory", got, err, cfs.readDirs)
	}
	segments := l.SegmentCount()
	for seq := uint64(4); seq <= 12; seq++ {
		appendN(t, l, seq, seq)
		cfs.readDirs, cfs.bytes, got = 0, 0, nil
		size := frameHeader + seqBytes + len(fmt.Sprintf("payload-%d", seq))
		if _, err := cur.ReadFrames(cfs, dir, seq, 1<<20, take); err != nil || len(got) != 1 || got[0] != seq || cfs.readDirs != 0 || cfs.stats != 0 || cfs.bytes != size {
			t.Fatalf("read of seq %d = seqs %v, %v; %d listings, %d stats, %d bytes read of a %d-byte frame", seq, got, err, cfs.readDirs, cfs.stats, cfs.bytes, size)
		}
	}
	if l.SegmentCount() == segments {
		t.Fatal("the log never rotated; the test followed no rotation")
	}
	// An idle read costs nothing either.
	cfs.bytes, got = 0, nil
	if _, err := cur.ReadFrames(cfs, dir, 13, 1<<20, take); err != nil || len(got) != 0 || cfs.readDirs != 0 || cfs.bytes != 0 {
		t.Fatalf("idle read = seqs %v, %v; %d listings, %d bytes", got, err, cfs.readDirs, cfs.bytes)
	}
}

// FuzzTailCursor feeds runTailOps arbitrary histories.
func FuzzTailCursor(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 64)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Add([]byte{0, 8, 4, 0, 5, 16, 6, 0, 3, 7, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		runTailOps(t, ops)
	})
}

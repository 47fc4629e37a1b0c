package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func open(t *testing.T, dir string, next uint64, opts *Options) *Log {
	t.Helper()
	l, err := Open(dir, next, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func appendN(t *testing.T, l *Log, from, to uint64) {
	t.Helper()
	for seq := from; seq <= to; seq++ {
		if err := l.Append(seq, []byte(fmt.Sprintf("payload-%d", seq))); err != nil {
			t.Fatalf("Append(%d): %v", seq, err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func collect(t *testing.T, l *Log, from uint64) map[uint64]string {
	t.Helper()
	got := map[uint64]string{}
	err := l.Replay(from, func(seq uint64, payload []byte) error {
		got[seq] = string(payload)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, 1, nil)
	appendN(t, l, 1, 40)
	if l.LastSeq() != 40 {
		t.Fatalf("LastSeq = %d", l.LastSeq())
	}
	got := collect(t, l, 1)
	if len(got) != 40 || got[7] != "payload-7" {
		t.Fatalf("replay got %d records, [7]=%q", len(got), got[7])
	}
	if got := collect(t, l, 30); len(got) != 11 {
		t.Fatalf("partial replay got %d records, want 11", len(got))
	}
	l.Close()

	// Reopen: tail intact, next seq continues.
	l2 := open(t, dir, 41, nil)
	defer l2.Close()
	if l2.LastSeq() != 40 {
		t.Fatalf("reopened LastSeq = %d", l2.LastSeq())
	}
	appendN(t, l2, 41, 45)
	if got := collect(t, l2, 1); len(got) != 45 {
		t.Fatalf("after reopen+append: %d records", len(got))
	}
}

func TestAppendSeqDiscipline(t *testing.T) {
	l := open(t, t.TempDir(), 1, nil)
	defer l.Close()
	appendN(t, l, 1, 3)
	if err := l.Append(5, nil); err == nil {
		t.Fatal("gap accepted")
	}
	if err := l.Append(3, nil); err == nil {
		t.Fatal("replayed seq accepted")
	}
}

func TestRotationAndTruncation(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, 1, &Options{SegmentBytes: 256, Sync: SyncNone})
	appendN(t, l, 1, 100) // ~24 bytes per record -> many segments
	if l.SegmentCount() < 3 {
		t.Fatalf("expected multiple segments, got %d", l.SegmentCount())
	}
	before := l.SegmentCount()
	if err := l.TruncateBefore(50); err != nil {
		t.Fatal(err)
	}
	if l.SegmentCount() >= before {
		t.Fatalf("truncation removed nothing (%d -> %d)", before, l.SegmentCount())
	}
	// Every record after the checkpoint must survive truncation.
	got := collect(t, l, 51)
	for seq := uint64(51); seq <= 100; seq++ {
		if got[seq] != fmt.Sprintf("payload-%d", seq) {
			t.Fatalf("record %d lost after truncation", seq)
		}
	}
	l.Close()

	// Reopen after truncation: replay still consistent.
	l2 := open(t, dir, 101, nil)
	defer l2.Close()
	if l2.LastSeq() != 100 {
		t.Fatalf("LastSeq after reopen = %d", l2.LastSeq())
	}
}

// TestTornTailRecovery crashes mid-write in every possible way: truncating
// the final record at each byte boundary and flipping a bit in its CRC-
// covered body. Recovery must drop exactly the torn record and keep all
// earlier ones.
func TestTornTailRecovery(t *testing.T) {
	for cut := 0; cut < 24; cut += 5 {
		dir := t.TempDir()
		l := open(t, dir, 1, nil)
		appendN(t, l, 1, 10)
		l.Close()

		segs, _ := ListDir(nil, dir)
		path := filepath.Join(dir, segs[len(segs)-1].Name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Simulate a torn write of record 11: append a partial frame.
		full := frameRecord(11, []byte("payload-11"))
		if err := os.WriteFile(path, append(data, full[:cut]...), 0o666); err != nil {
			t.Fatal(err)
		}

		l2 := open(t, dir, 1, nil)
		if l2.LastSeq() != 10 {
			t.Fatalf("cut=%d: LastSeq = %d, want 10", cut, l2.LastSeq())
		}
		got := collect(t, l2, 1)
		if len(got) != 10 {
			t.Fatalf("cut=%d: %d records, want 10", cut, len(got))
		}
		if _, ok := got[11]; ok {
			t.Fatalf("cut=%d: torn record visible", cut)
		}
		// The log must accept the re-appended record after healing.
		appendN(t, l2, 11, 11)
		l2.Close()
	}
}

func TestBitFlipDetected(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, 1, nil)
	appendN(t, l, 1, 5)
	l.Close()

	segs, _ := ListDir(nil, dir)
	path := filepath.Join(dir, segs[0].Name)
	data, _ := os.ReadFile(path)
	data[len(data)-3] ^= 0x40 // flip a bit inside the last record's payload
	os.WriteFile(path, data, 0o666)

	l2 := open(t, dir, 1, nil)
	defer l2.Close()
	if l2.LastSeq() != 4 {
		t.Fatalf("LastSeq = %d, want 4 (flipped record dropped)", l2.LastSeq())
	}
}

// TestTailFlipIsTornOnlyInTheLastRecord flips each bit of a 4-record final
// segment in turn. A crash can only cut the end of the last write, so a
// flip inside record 4 is a torn tail that Open truncates, while a flip in
// records 1-3, with intact records after it, is corruption that Open and
// VerifyDir report instead of dropping the records that follow.
func TestTailFlipIsTornOnlyInTheLastRecord(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, 1, nil)
	appendN(t, l, 1, 4)
	l.Close()
	segs, err := ListDir(nil, dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("ListDir = %v (%v), want one segment", segs, err)
	}
	path := filepath.Join(dir, segs[0].Name)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec4 := len(clean) - len(frameRecord(4, []byte("payload-4")))
	for bit := 0; bit < 8*len(clean); bit++ {
		data := slices.Clone(clean)
		data[bit/8] ^= 1 << (bit % 8)
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		checks, err := VerifyDir(nil, dir)
		if err != nil || len(checks) != 1 {
			t.Fatalf("bit %d: VerifyDir = %v (%v)", bit, checks, err)
		}
		l2, oerr := Open(dir, 1, nil)
		if oerr == nil {
			last := l2.LastSeq()
			l2.Close()
			if bit/8 < rec4 {
				t.Fatalf("bit %d (before record 4): Open kept %d records, want ErrCorrupt", bit, last)
			}
			if last != 3 {
				t.Fatalf("bit %d (in record 4): LastSeq = %d, want 3", bit, last)
			}
		}
		c := checks[0]
		if bit/8 >= rec4 {
			if oerr != nil || !c.Torn || c.Err != nil || c.Records != 3 {
				t.Fatalf("bit %d (in record 4): Open = %v, VerifyDir = %+v, want a torn tail after 3 records", bit, oerr, c)
			}
			continue
		}
		if !errors.Is(oerr, ErrCorrupt) || c.Torn || !errors.Is(c.Err, ErrCorrupt) {
			t.Fatalf("bit %d (before record 4): Open = %v, VerifyDir = %+v, want ErrCorrupt from both", bit, oerr, c)
		}
	}
}

// TestLostTailPageIsTorn persists an unsynced tail out of order, as a crash
// can: one page never reached disk and reads as zeros, while the page after
// it did. Open cuts that tail at the last record before the page and
// VerifyDir calls it torn. The same page holding non-zero bytes, which no
// lost write leaves, is corruption.
func TestLostTailPageIsTorn(t *testing.T) {
	payload := []byte(strings.Repeat("p", 200))
	frame := len(frameRecord(1, payload))
	for _, fill := range []byte{0, 0x5a} {
		dir := t.TempDir()
		l := open(t, dir, 1, &Options{Sync: SyncNone})
		for seq := uint64(1); seq <= 40; seq++ { // 40 frames run past the page [4096, 8192)
			if err := l.Append(seq, payload); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		segs, _ := ListDir(nil, dir)
		path := filepath.Join(dir, segs[0].Name)
		data, err := os.ReadFile(path)
		if err != nil || len(data) < 8192+2*frame {
			t.Fatalf("segment of %d bytes (%v), want one past the page", len(data), err)
		}
		for i := 4096; i < 8192; i++ {
			data[i] = fill
		}
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		checks, err := VerifyDir(nil, dir)
		if err != nil {
			t.Fatal(err)
		}
		l2, oerr := Open(dir, 1, nil)
		if fill != 0 {
			if !errors.Is(oerr, ErrCorrupt) || checks[0].Torn || !errors.Is(checks[0].Err, ErrCorrupt) {
				t.Fatalf("garbage page: Open = %v, VerifyDir = %+v, want ErrCorrupt from both", oerr, checks[0])
			}
			continue
		}
		want := uint64(4096 / frame) // the records that end before the page
		if oerr != nil || l2.LastSeq() != want || !checks[0].Torn || checks[0].Records != want {
			t.Fatalf("zeroed page: Open = %v, VerifyDir = %+v, want a torn tail after %d records", oerr, checks[0], want)
		}
		l2.Close()
	}
}

func TestSealedCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, 1, &Options{SegmentBytes: 128, Sync: SyncNone})
	appendN(t, l, 1, 50)
	if l.SegmentCount() < 2 {
		t.Skip("need multiple segments")
	}
	l.Close()

	segs, _ := ListDir(nil, dir)
	path := filepath.Join(dir, segs[0].Name) // a sealed segment
	data, _ := os.ReadFile(path)
	data[9] ^= 0xff
	os.WriteFile(path, data, 0o666)

	_, err := Open(dir, 51, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

func TestLaggingLogResumesAtCallerSeq(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, 1, nil)
	appendN(t, l, 1, 3)
	l.Close()
	// Snapshot says epoch 10; the log only reaches 3 (e.g. segments removed
	// by hand). Appends must resume at 11, not 4.
	l2 := open(t, dir, 11, nil)
	defer l2.Close()
	if err := l2.Append(11, []byte("x")); err != nil {
		t.Fatalf("Append(11): %v", err)
	}
}

// TestMissingSegmentDetected removes a middle segment — acknowledged
// records lost outside the healable tail — and requires Replay to fail
// loudly when the replay range needs them, while a range entirely past
// the gap still replays (checkpoint truncation legitimately leaves such
// leading gaps).
func TestMissingSegmentDetected(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, 1, &Options{SegmentBytes: 128, Sync: SyncNone})
	appendN(t, l, 1, 60)
	if l.SegmentCount() < 4 {
		t.Skipf("only %d segments", l.SegmentCount())
	}
	l.Close()
	segs, _ := ListDir(nil, dir)
	victim := segs[1].Name // a sealed middle segment
	victimFirst, _ := parseSegmentName(victim)
	if err := os.Remove(filepath.Join(dir, victim)); err != nil {
		t.Fatal(err)
	}

	l2 := open(t, dir, 61, nil)
	defer l2.Close()
	err := l2.Replay(1, func(uint64, []byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay across the gap = %v, want ErrCorrupt", err)
	}
	// Replaying only records after the gap must still work.
	nextFirst, _ := parseSegmentName(segs[2].Name)
	got := collect(t, l2, nextFirst)
	for seq := nextFirst; seq <= 60; seq++ {
		if _, ok := got[seq]; !ok {
			t.Fatalf("record %d lost beyond the gap", seq)
		}
	}
	if _, ok := got[victimFirst]; ok {
		t.Fatal("record from the removed segment reappeared")
	}
}

// TestRollbackErasesGroup pins the errored ⇒ absent contract: records
// appended after a TailMark — including across a segment rotation — are
// erased by Rollback, the sequence counter rewinds, and a reopen sees
// none of them.
func TestRollbackErasesGroup(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, 1, &Options{SegmentBytes: 128, Sync: SyncNone})
	appendN(t, l, 1, 5)
	mark := l.TailMark()
	appendN(t, l, 6, 30) // spans at least one rotation at 128-byte segments
	if err := l.Rollback(mark); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	if l.LastSeq() != 5 {
		t.Fatalf("LastSeq after rollback = %d, want 5", l.LastSeq())
	}
	if got := collect(t, l, 1); len(got) != 5 {
		t.Fatalf("%d records after rollback, want 5", len(got))
	}
	// The log must keep working: the seq the group held is reusable.
	appendN(t, l, 6, 8)
	l.Close()
	l2 := open(t, dir, 9, nil)
	defer l2.Close()
	got := collect(t, l2, 1)
	if len(got) != 8 || got[7] != "payload-7" {
		t.Fatalf("after rollback+reopen: %d records, [7]=%q", len(got), got[7])
	}
}

func TestParseRecordErrors(t *testing.T) {
	rec := frameRecord(1, []byte("hello"))
	if _, _, _, err := ParseRecord(rec); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	cases := map[string][]byte{
		"empty":        {},
		"short header": rec[:6],
		"truncated":    rec[:len(rec)-1],
		"size zero":    {0, 0, 0, 0, 0, 0, 0, 0},
		"size huge":    {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},
	}
	for name, b := range cases {
		if _, _, _, err := ParseRecord(b); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// frameRecord builds one framed record (the same layout Append writes).
func frameRecord(seq uint64, payload []byte) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(seqBytes+len(payload)))
	b = append(b, 0, 0, 0, 0)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = append(b, payload...)
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(b[frameHeader:], castagnoli))
	return b
}

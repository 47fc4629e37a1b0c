// Package wal implements the store's segmented write-ahead log: an
// append-only sequence of CRC-framed records spread over size-bounded
// segment files, with a configurable fsync policy, whole-segment truncation
// after checkpoints, and torn-tail recovery on open.
//
// # Record framing and durability contract
//
// Every record is framed as
//
//	u32 size   — length of the sequence number + payload that follow (≥ 8)
//	u32 crc    — CRC-32C (Castagnoli) over those size bytes
//	u64 seq    — the record's log sequence number
//	payload    — size-8 opaque bytes
//
// in little-endian byte order. Sequence numbers are assigned by the caller
// and must advance by exactly one per append; the store uses the batch
// epoch, so "WAL record seq" and "store epoch" coincide. A record is
// durable once Commit (under SyncAlways) or Sync has returned: the store
// acknowledges a batch only after that point, so an acked batch survives
// any crash, while a batch lost mid-write leaves a torn tail that recovery
// discards — exactly the "acked implies durable, unacked implies absent or
// torn-away" contract the crash-recovery tests pin down.
//
// # Segments, truncation, torn tails
//
// Records append to the active segment file, named wal-<first-seq>.seg by
// the sequence number of its first record. When the active segment exceeds
// Options.SegmentBytes it is sealed (synced, closed) and a fresh segment
// starts, so TruncateBefore can drop whole files that a checkpoint has made
// obsolete without rewriting anything. On open, sealed segments must parse
// completely — corruption there means real data loss and is reported as an
// error — while the last segment is scanned record by record and truncated
// at the first invalid frame (short header, impossible size, CRC mismatch,
// or non-consecutive seq), recovering from a crash that tore the final
// write.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	iofs "io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faultfs"
	"repro/internal/obs"
)

// SyncMode selects the fsync policy applied by Commit.
type SyncMode int

const (
	// SyncAlways fsyncs the active segment on every Commit: an
	// acknowledged batch survives OS and power failure.
	SyncAlways SyncMode = iota
	// SyncNone never fsyncs on Commit; data reaches the OS page cache
	// only. A process crash loses nothing, a machine crash may lose the
	// most recent batches. ~10-100× higher append throughput.
	SyncNone
)

// MaxRecordBytes bounds a single record's size field; larger values are
// treated as corruption. It exists so a flipped bit in a size field cannot
// make recovery attempt a multi-gigabyte read.
const MaxRecordBytes = 1 << 28

const (
	frameHeader = 8 // u32 size + u32 crc
	seqBytes    = 8
	segPrefix   = "wal-"
	segSuffix   = ".seg"
)

// ErrCorrupt reports corruption outside the recoverable torn tail: a sealed
// segment that does not parse, or a segment whose first record disagrees
// with its filename. Errors wrapping it mean acknowledged data was lost.
var ErrCorrupt = errors.New("wal: corrupt segment")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: closed")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Log.
type Options struct {
	// SegmentBytes is the rotation threshold for the active segment.
	// Defaults to 4 MiB.
	SegmentBytes int64
	// Sync is the Commit fsync policy. Defaults to SyncAlways.
	Sync SyncMode
	// FS is the filesystem the log runs on. Nil means the real disk; tests
	// substitute a faultfs.Inject to fire storage errors deterministically.
	FS faultfs.FS
	// Obs, when non-nil, receives the log's instrumentation: fsync
	// latency, append and group-commit counters. Nil disables it at zero
	// cost on the append path.
	Obs *obs.Registry
}

// DefaultOptions returns the standard configuration: 4 MiB segments,
// fsync on every commit.
func DefaultOptions() Options { return Options{SegmentBytes: 4 << 20, Sync: SyncAlways} }

type segment struct {
	name  string
	first uint64 // seq of the segment's first record (from the filename)
	size  int64
}

// Log is a segmented write-ahead log. All methods are safe for concurrent
// use; in the store exactly one goroutine appends while checkpoints
// truncate concurrently.
type Log struct {
	mu     sync.Mutex
	dir    string
	fs     faultfs.FS
	opts   Options
	segs   []segment // ascending by first; last is active
	active faultfs.File
	next   uint64 // seq the next Append must carry
	frame  []byte // reusable framing buffer
	closed bool

	// Instrumentation; all nil (no-op) unless Options.Obs was set.
	fsyncHist     *obs.Histogram
	appends       *obs.Counter
	commits       *obs.Counter
	commitBatches *obs.Counter
	pending       uint64 // appends since the last Commit, under mu
}

// Open opens (or creates) the log in dir and recovers its tail. nextSeq is
// the caller's expected next sequence number — the recovered store epoch
// plus one; it names the first segment of an empty log and guards against
// a log that lags the snapshot it accompanies (appends then resume at
// nextSeq in a fresh segment). Sealed segments failing to parse, or a
// scanned tail that has advanced beyond any caller expectation mismatch,
// surface as errors wrapping ErrCorrupt.
func Open(dir string, nextSeq uint64, opts *Options) (*Log, error) {
	o := DefaultOptions()
	if opts != nil {
		o = *opts
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	fsys := faultfs.Or(o.FS)
	if err := fsys.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, fs: fsys, opts: o}
	l.fsyncHist = o.Obs.Histogram("qpgc_wal_fsync_seconds")
	l.appends = o.Obs.Counter("qpgc_wal_appends_total")
	l.commits = o.Obs.Counter("qpgc_wal_group_commits_total")
	l.commitBatches = o.Obs.Counter("qpgc_wal_group_commit_batches_total")
	names, err := listSegments(fsys, dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		l.next = nextSeq
		if err := l.startSegment(nextSeq); err != nil {
			return nil, err
		}
		return l, nil
	}
	for _, name := range names {
		first, err := parseSegmentName(name)
		if err != nil {
			return nil, err
		}
		l.segs = append(l.segs, segment{name: name, first: first})
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].first < l.segs[j].first })

	// Sealed segments must parse completely; the last one may carry a torn
	// tail, which is cut off in place.
	for i := range l.segs {
		s := &l.segs[i]
		data, err := fsys.ReadFile(filepath.Join(dir, s.name))
		if err != nil {
			return nil, err
		}
		last, good, scanErr := scanSegment(data, s.first)
		sealed := i < len(l.segs)-1
		if scanErr != nil && sealed {
			return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, s.name, scanErr)
		}
		if !sealed && int(good) < len(data) {
			if err := fsys.Truncate(filepath.Join(dir, s.name), good); err != nil {
				return nil, err
			}
			data = data[:good]
		}
		s.size = int64(len(data))
		if last >= s.first { // segment holds at least one record
			l.next = last + 1
		} else {
			l.next = s.first
		}
	}

	// Re-open the last segment for appending.
	tail := &l.segs[len(l.segs)-1]
	f, err := fsys.OpenFile(filepath.Join(dir, tail.name), os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, err
	}
	l.active = f

	// A log lagging its snapshot (e.g. segments deleted by hand) resumes at
	// the caller's sequence in a fresh segment, keeping the invariant that a
	// segment's records are consecutive from its filename's seq. An empty
	// tail — a crash between segment creation and its first record — is
	// removed rather than sealed, so no empty segment lingers to confuse
	// later gap accounting.
	if nextSeq > l.next {
		l.next = nextSeq
		if tail.size == 0 {
			if err := l.active.Close(); err != nil {
				return nil, err
			}
			if err := fsys.Remove(filepath.Join(dir, tail.name)); err != nil {
				return nil, err
			}
			l.segs = l.segs[:len(l.segs)-1]
			if err := l.startSegment(nextSeq); err != nil {
				return nil, err
			}
		} else if err := l.rotateLocked(); err != nil {
			l.active.Close()
			return nil, err
		}
	}
	return l, nil
}

// Append frames one record and writes it to the active segment, rotating
// first if the segment is over the size threshold. seq must be exactly
// LastSeq()+1. The record is not durable until Commit or Sync returns.
func (l *Log) Append(seq uint64, payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if seq != l.next {
		return fmt.Errorf("wal: append seq %d, want %d", seq, l.next)
	}
	size := seqBytes + len(payload)
	if size > MaxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds MaxRecordBytes", size)
	}
	if l.segs[len(l.segs)-1].size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	l.frame = l.frame[:0]
	l.frame = binary.LittleEndian.AppendUint32(l.frame, uint32(size))
	l.frame = append(l.frame, 0, 0, 0, 0) // crc placeholder
	l.frame = binary.LittleEndian.AppendUint64(l.frame, seq)
	l.frame = append(l.frame, payload...)
	binary.LittleEndian.PutUint32(l.frame[4:8], crc32.Checksum(l.frame[frameHeader:], castagnoli))
	if _, err := l.active.Write(l.frame); err != nil {
		return err
	}
	l.segs[len(l.segs)-1].size += int64(len(l.frame))
	l.next = seq + 1
	l.appends.Add(1)
	l.pending++
	return nil
}

// Commit makes everything appended so far durable under the configured
// policy: an fsync of the active segment for SyncAlways, a no-op for
// SyncNone. The store calls it once per coalesced batch group before
// acknowledging the group's callers (group commit).
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.pending > 0 {
		l.commits.Add(1)
		l.commitBatches.Add(l.pending)
		l.pending = 0
	}
	if l.opts.Sync == SyncNone {
		return nil
	}
	if l.fsyncHist == nil {
		return l.active.Sync()
	}
	start := time.Now()
	err := l.active.Sync()
	l.fsyncHist.Observe(time.Since(start))
	return err
}

// Mark is an opaque log position taken before a group of appends, for
// Rollback.
type Mark struct {
	segIndex int
	segName  string
	size     int64
	next     uint64
}

// TailMark records the current end of the log. Take one before appending
// a batch group so a failed group can be rolled back.
func (l *Log) TailMark() Mark {
	l.mu.Lock()
	defer l.mu.Unlock()
	tail := l.segs[len(l.segs)-1]
	return Mark{segIndex: len(l.segs) - 1, segName: tail.name, size: tail.size, next: l.next}
}

// Rollback truncates the log back to a TailMark, erasing every record
// appended since — the store uses it when a group's append or commit
// fails, so batches whose callers saw an error can never resurface on
// restart. Segments created after the mark are deleted and the marked
// segment's file is truncated and re-opened for appending. Rollback is
// best-effort on an already-failing disk; its own error means the tail
// could not be erased.
func (l *Log) Rollback(m Mark) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if m.segIndex >= len(l.segs) || l.segs[m.segIndex].name != m.segName {
		return fmt.Errorf("wal: rollback mark names unknown segment %s", m.segName)
	}
	// Drop whole segments the group caused to be created. The close error
	// is ignored: a failed rotation leaves the handle already closed, and
	// the marked segment is reopened below either way.
	l.active.Close()
	for _, s := range l.segs[m.segIndex+1:] {
		if err := l.fs.Remove(filepath.Join(l.dir, s.name)); err != nil && !errors.Is(err, iofs.ErrNotExist) {
			return err
		}
	}
	l.segs = l.segs[:m.segIndex+1]
	path := filepath.Join(l.dir, m.segName)
	if err := l.fs.Truncate(path, m.size); err != nil {
		return err
	}
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return err
	}
	l.active = f
	l.segs[m.segIndex].size = m.size
	l.next = m.next
	l.pending = 0 // the rolled-back group's appends will never group-commit
	return l.active.Sync()
}

// Replay streams every record with seq >= from to fn, in sequence order.
// It must not run concurrently with Append (the store replays before its
// writer starts). A decoding error in any segment — all tails were already
// healed by Open — is reported wrapping ErrCorrupt, as is a sequence gap
// between segments that the replay range needs: a missing sealed segment
// means acknowledged records were lost, and recovery must fail loudly
// rather than serve a state with silently dropped batches. Gaps entirely
// below from are fine (checkpoint truncation works in whole segments).
func (l *Log) Replay(from uint64, fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	havePrev := false
	var prevLast uint64
	for _, s := range l.segs {
		if havePrev && s.first != prevLast+1 {
			if s.first < prevLast+1 {
				return fmt.Errorf("%w: segment %s overlaps seq %d", ErrCorrupt, s.name, prevLast)
			}
			if s.first > from { // the missing range [prevLast+1, s.first) intersects [from, ∞)
				return fmt.Errorf("%w: records %d-%d missing before %s", ErrCorrupt, prevLast+1, s.first-1, s.name)
			}
		}
		havePrev = true
		prevLast = s.first - 1 // advanced by the scan below
		if s.size == 0 {
			continue
		}
		data, err := l.fs.ReadFile(filepath.Join(l.dir, s.name))
		if err != nil {
			return err
		}
		off := 0
		seq := s.first
		for off < len(data) {
			gotSeq, payload, n, err := ParseRecord(data[off:])
			if err != nil {
				return fmt.Errorf("%w: %s at offset %d: %v", ErrCorrupt, s.name, off, err)
			}
			if gotSeq != seq {
				return fmt.Errorf("%w: %s at offset %d: seq %d, want %d", ErrCorrupt, s.name, off, gotSeq, seq)
			}
			if gotSeq >= from {
				if err := fn(gotSeq, payload); err != nil {
					return err
				}
			}
			off += n
			seq++
		}
		prevLast = seq - 1
	}
	return nil
}

// TruncateBefore deletes sealed segments every record of which has
// seq <= upTo — the checkpoint already covers them. The active segment is
// never deleted, so the log always has a place to append.
func (l *Log) TruncateBefore(upTo uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	keep := l.segs[:0]
	removed := false
	for i, s := range l.segs {
		sealed := i < len(l.segs)-1
		// A sealed segment's records end just before its successor's first.
		if sealed && l.segs[i+1].first <= upTo+1 {
			if err := l.fs.Remove(filepath.Join(l.dir, s.name)); err != nil && !errors.Is(err, iofs.ErrNotExist) {
				return err
			}
			removed = true
			continue
		}
		keep = append(keep, s)
	}
	l.segs = keep
	if removed {
		return faultfs.SyncDir(l.fs, l.dir)
	}
	return nil
}

// LastSeq returns the sequence number of the last appended record, or one
// less than the next expected sequence for an empty log.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// SizeBytes returns the total on-disk size of all segments.
func (l *Log) SizeBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, s := range l.segs {
		n += s.size
	}
	return n
}

// SegmentCount returns the number of live segment files.
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// SegmentInfo describes one live segment file, for inspection and the
// integrity scrubber.
type SegmentInfo struct {
	// Name is the segment's file name within the log directory.
	Name string
	// First is the sequence number of the segment's first record.
	First uint64
	// Size is the segment's size in bytes.
	Size int64
	// Sealed reports whether the segment is immutable (not the active one).
	Sealed bool
}

// Segments lists the live segments in sequence order; the last entry is the
// active segment.
func (l *Log) Segments() []SegmentInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	infos := make([]SegmentInfo, len(l.segs))
	for i, s := range l.segs {
		infos[i] = SegmentInfo{Name: s.name, First: s.first, Size: s.size, Sealed: i < len(l.segs)-1}
	}
	return infos
}

// ActiveSegment returns the name of the segment currently accepting
// appends.
func (l *Log) ActiveSegment() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[len(l.segs)-1].name
}

// quarantineSuffix is appended to the name of a segment set aside.
const quarantineSuffix = ".quarantine"

// QuarantineSegment renames a corrupt sealed segment to name+".quarantine"
// and drops it from the log, preserving the evidence while getting it out
// of the replay path. The caller must immediately force a checkpoint past
// the log's tail: the quarantined records are gone from the log, and only
// a snapshot that covers them keeps the store recoverable.
func (l *Log) QuarantineSegment(name string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	for i, s := range l.segs {
		if s.name != name {
			continue
		}
		if i == len(l.segs)-1 {
			return fmt.Errorf("wal: quarantine of active segment %s refused", name)
		}
		path := filepath.Join(l.dir, name)
		if err := l.fs.Rename(path, path+quarantineSuffix); err != nil {
			return err
		}
		l.segs = append(l.segs[:i], l.segs[i+1:]...)
		return faultfs.SyncDir(l.fs, l.dir)
	}
	return fmt.Errorf("wal: quarantine of unknown segment %s", name)
}

// QuarantineFrom renames, offline and through fsys, the first segment of
// dir named in corrupt and every later one to name+".quarantine", then
// syncs dir: replay cannot skip a hole, so a corrupt segment takes every
// later one with it. Renames go newest first, so a pass cut short leaves
// the corrupt segment for the next pass to find. It returns the segments
// set aside, oldest first; names that are no segment of dir are ignored.
func QuarantineFrom(fsys faultfs.FS, dir string, corrupt []string) ([]SegmentInfo, error) {
	fsys = faultfs.Or(fsys)
	segs, err := ListDir(fsys, dir)
	if err != nil {
		return nil, err
	}
	first := slices.IndexFunc(segs, func(s SegmentInfo) bool { return slices.Contains(corrupt, s.Name) })
	if first < 0 {
		return nil, nil
	}
	segs = segs[first:]
	for i := len(segs) - 1; i >= 0; i-- {
		path := filepath.Join(dir, segs[i].Name)
		if err := fsys.Rename(path, path+quarantineSuffix); err != nil {
			return nil, err
		}
	}
	return segs, faultfs.SyncDir(fsys, dir)
}

// Reset discards every segment and starts an empty log whose next record
// will carry nextSeq. It is the recovery loop's last resort once an
// emergency checkpoint has made the log's contents redundant: whatever
// state the old segments (or the poisoned active file handle) were in no
// longer matters.
func (l *Log) Reset(nextSeq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.active.Close() // ignore errors: the handle may be poisoned by a failed fsync
	for _, s := range l.segs {
		if err := l.fs.Remove(filepath.Join(l.dir, s.name)); err != nil && !errors.Is(err, iofs.ErrNotExist) {
			return err
		}
	}
	l.segs = nil
	l.next = nextSeq
	l.pending = 0
	return l.startSegment(nextSeq)
}

// Close syncs and closes the active segment. The log is unusable
// afterwards; Close is idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.active.Sync()
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	return err
}

// rotateLocked seals the active segment and starts a fresh one whose first
// record will be l.next. Callers hold l.mu.
func (l *Log) rotateLocked() error {
	if err := l.active.Sync(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return err
	}
	return l.startSegment(l.next)
}

// startSegment creates and opens the segment file for first, appending its
// metadata entry. Callers hold l.mu (or own the log exclusively in Open).
func (l *Log) startSegment(first uint64) error {
	name := segmentName(first)
	f, err := l.fs.OpenFile(filepath.Join(l.dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return err
	}
	if err := faultfs.SyncDir(l.fs, l.dir); err != nil {
		f.Close()
		return err
	}
	l.active = f
	l.segs = append(l.segs, segment{name: name, first: first})
	return nil
}

// ParseRecord decodes the first record framed in b, returning its sequence
// number, a payload view into b, and the total frame length consumed. It
// is the unit the torn-tail scanner and the fuzz target exercise: any
// input — truncated, bit-flipped, or adversarial — yields an error, never
// a panic or an allocation proportional to a corrupt size field.
func ParseRecord(b []byte) (seq uint64, payload []byte, n int, err error) {
	if len(b) < frameHeader {
		return 0, nil, 0, fmt.Errorf("short frame header (%d bytes)", len(b))
	}
	size := int(binary.LittleEndian.Uint32(b[0:4]))
	if size < seqBytes || size > MaxRecordBytes {
		return 0, nil, 0, fmt.Errorf("impossible record size %d", size)
	}
	if len(b) < frameHeader+size {
		return 0, nil, 0, fmt.Errorf("truncated record: %d of %d bytes", len(b)-frameHeader, size)
	}
	body := b[frameHeader : frameHeader+size]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return 0, nil, 0, errors.New("crc mismatch")
	}
	return binary.LittleEndian.Uint64(body[:seqBytes]), body[seqBytes:], frameHeader + size, nil
}

// scanSegment walks data record by record, verifying framing and that
// sequence numbers run consecutively from first. It returns the last valid
// seq (first-1 when none), the byte offset just past the last valid
// record — the truncation point for a torn tail — and the error that
// stopped the scan (nil for a clean segment).
func scanSegment(data []byte, first uint64) (last uint64, good int64, err error) {
	off := 0
	seq := first
	for off < len(data) {
		gotSeq, _, n, perr := ParseRecord(data[off:])
		if perr != nil {
			return seq - 1, int64(off), perr
		}
		if gotSeq != seq {
			return seq - 1, int64(off), fmt.Errorf("seq %d, want %d", gotSeq, seq)
		}
		off += n
		seq++
	}
	return seq - 1, int64(off), nil
}

// SegmentCheck is one segment's result from VerifyDir.
type SegmentCheck struct {
	// Name is the segment file's name; Bytes its size on disk.
	Name  string
	Bytes int64
	// Records counts the valid records scanned before any damage.
	Records uint64
	// Torn reports a damaged tail on the final segment: recoverable — Open
	// truncates it. Err carries damage on a sealed segment (real data
	// loss) or a read failure.
	Torn bool
	Err  error
}

// VerifyDir scans every WAL segment in dir offline — without opening a
// Log and without modifying anything — verifying frame CRCs and sequence
// continuity. Results come back in segment order. Damage on the final
// segment is reported as Torn (Open would heal it by truncation); damage
// anywhere else wraps ErrCorrupt in Err. A nil fsys means the real disk.
func VerifyDir(fsys faultfs.FS, dir string) ([]SegmentCheck, error) {
	fsys = faultfs.Or(fsys)
	names, err := listSegments(fsys, dir)
	if err != nil {
		return nil, err
	}
	sort.Strings(names) // fixed-width hex: lexicographic == numeric
	checks := make([]SegmentCheck, 0, len(names))
	for i, name := range names {
		checks = append(checks, checkSegment(fsys, dir, name, i == len(names)-1))
	}
	return checks, nil
}

// CheckSegment re-reads the sealed segment name of dir and verifies every
// record frame (CRC and sequence continuity), returning the bytes read —
// the scrubber's rate-accounting unit. Damage is reported wrapping
// ErrCorrupt; a segment deleted since it was listed, by a checkpoint's
// truncation, surfaces as ErrNotExist. Only a sealed segment can be
// checked: the active one is growing under its writer.
func CheckSegment(fsys faultfs.FS, dir, name string) (int64, error) {
	c := checkSegment(faultfs.Or(fsys), dir, name, false)
	return c.Bytes, c.Err
}

// checkSegment is the one per-segment check behind VerifyDir and
// CheckSegment. Damage on the tail segment (tail) is Torn, not an error.
func checkSegment(fsys faultfs.FS, dir, name string, tail bool) SegmentCheck {
	c := SegmentCheck{Name: name}
	first, err := parseSegmentName(name)
	if err != nil {
		c.Err = err
		return c
	}
	data, err := fsys.ReadFile(filepath.Join(dir, name))
	if err != nil {
		c.Err = err
		return c
	}
	c.Bytes = int64(len(data))
	last, _, err := scanSegment(data, first)
	if last >= first {
		c.Records = last - first + 1
	}
	switch {
	case err == nil:
	case tail:
		c.Torn = true
	default:
		c.Err = fmt.Errorf("%w: %s: %v", ErrCorrupt, name, err)
	}
	return c
}

// ListDir lists the segment files of dir in sequence order without opening
// a Log, sized from their directory entries; every entry but the last is
// Sealed. It is how code outside this package finds the log's files — the
// name format stays here. A nil fsys means the real disk.
func ListDir(fsys faultfs.FS, dir string) ([]SegmentInfo, error) {
	entries, err := faultfs.Or(fsys).ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []SegmentInfo
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), segPrefix) || !strings.HasSuffix(e.Name(), segSuffix) {
			continue
		}
		first, err := parseSegmentName(e.Name())
		if err != nil {
			continue // not a name this package wrote; Open refuses the directory
		}
		seg := SegmentInfo{Name: e.Name(), First: first}
		if fi, err := e.Info(); err == nil { // gone since the listing: size 0
			seg.Size = fi.Size()
		}
		segs = append(segs, seg)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].First < segs[j].First })
	for i := 0; i < len(segs)-1; i++ {
		segs[i].Sealed = true
	}
	return segs, nil
}

// listSegments returns the names of all segment files in dir.
func listSegments(fsys faultfs.FS, dir string) ([]string, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), segPrefix) && strings.HasSuffix(e.Name(), segSuffix) {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// segmentName formats the filename for a segment whose first record is seq.
func segmentName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, seq, segSuffix)
}

// parseSegmentName extracts the first-record seq from a segment filename.
func parseSegmentName(name string) (uint64, error) {
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad segment name %q", ErrCorrupt, name)
	}
	return v, nil
}

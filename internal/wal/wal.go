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
// obsolete without rewriting anything.
//
// One walker, scanSegment, reads the records of every segment for Open,
// Replay and the scrubbers, and it alone judges damage (a short header, an
// impossible size, a CRC mismatch or a seq out of order). The crash model
// is ALICE's (Pillai et al., OSDI 2014): a crash leaves a prefix of the
// log's synced writes, so it can damage only the end of the last segment,
// and of that segment's unsynced tail a filesystem without ordered data
// may keep a later page while an earlier one reads back as zeros. Damage
// in the last segment is therefore a torn tail, which Open cuts off, when
// no intact record (its CRC holds, its seq above the last good one)
// follows it, or when a zero-filled sector lies between it and the first
// intact record. Any other damage, in a sealed segment or before an intact
// record, is a flipped bit that no crash explains: it is an error wrapping
// ErrCorrupt that names the segment and the offset, and Open refuses the
// log rather than drop the acknowledged records after it.
package wal

import (
	"bytes"
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
	minFrame    = frameHeader + seqBytes // an empty payload's frame
	sector      = 512                    // the unit a disk writes whole
	segPrefix   = "wal-"
	segSuffix   = ".seg"
)

// ErrCorrupt reports damage that is no torn tail: a sealed segment that does
// not parse, or intact records after damage in the last one. Errors
// wrapping it mean acknowledged data was lost.
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

// Log is a segmented write-ahead log. All methods are safe for concurrent
// use; in the store exactly one goroutine appends while checkpoints
// truncate concurrently.
type Log struct {
	mu     sync.Mutex
	dir    string
	fs     faultfs.FS
	opts   Options
	segs   []SegmentInfo // ascending by First; last is active, the rest sealed (Sealed is set only on copies)
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
// nextSeq in a fresh segment). A torn tail is truncated; any other damage
// fails the open with an error wrapping ErrCorrupt.
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
	segs, err := ListDir(fsys, dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		l.next = nextSeq
		if err := l.startSegment(nextSeq); err != nil {
			return nil, err
		}
		return l, nil
	}
	l.segs = segs

	// A torn tail on the last segment is cut off in place; any other damage
	// fails the open.
	for i := range l.segs {
		s := &l.segs[i]
		path := filepath.Join(dir, s.Name)
		data, err := fsys.ReadFile(path)
		if err != nil {
			return nil, err
		}
		last, good, torn, err := scanSegment(data, *s, i == len(l.segs)-1, nil)
		if torn {
			err = fsys.Truncate(path, good)
		}
		if err != nil {
			return nil, err
		}
		s.Size = good
		l.next = last + 1
	}

	// Re-open the last segment for appending.
	tail := &l.segs[len(l.segs)-1]
	f, err := fsys.OpenFile(filepath.Join(dir, tail.Name), os.O_WRONLY|os.O_APPEND, 0o666)
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
		if tail.Size == 0 {
			if err := l.active.Close(); err != nil {
				return nil, err
			}
			if err := fsys.Remove(filepath.Join(dir, tail.Name)); err != nil {
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
	if l.segs[len(l.segs)-1].Size >= l.opts.SegmentBytes {
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
	l.segs[len(l.segs)-1].Size += int64(len(l.frame))
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
	return Mark{segIndex: len(l.segs) - 1, segName: tail.Name, size: tail.Size, next: l.next}
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
	if m.segIndex >= len(l.segs) || l.segs[m.segIndex].Name != m.segName {
		return fmt.Errorf("wal: rollback mark names unknown segment %s", m.segName)
	}
	// Drop whole segments the group caused to be created. The close error
	// is ignored: a failed rotation leaves the handle already closed, and
	// the marked segment is reopened below either way.
	l.active.Close()
	for _, s := range l.segs[m.segIndex+1:] {
		if err := l.fs.Remove(filepath.Join(l.dir, s.Name)); err != nil && !errors.Is(err, iofs.ErrNotExist) {
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
	l.segs[m.segIndex].Size = m.size
	l.next = m.next
	l.pending = 0 // the rolled-back group's appends will never group-commit
	return l.active.Sync()
}

// Replay streams every record with seq >= from to fn, in sequence order.
// It must not run concurrently with Append (the store replays before its
// writer starts). Damage in any segment — Open already healed the tail, so
// the walker judges every segment as sealed — is reported wrapping
// ErrCorrupt, as is a sequence gap between segments that the replay range
// needs: a missing sealed segment means acknowledged records were lost,
// and recovery must fail loudly rather than serve a state with silently
// dropped batches. Gaps entirely below from are fine (checkpoint
// truncation works in whole segments).
func (l *Log) Replay(from uint64, fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	visit := func(seq uint64, payload []byte) error {
		if seq < from {
			return nil
		}
		return fn(seq, payload)
	}
	var prevLast uint64
	for i, s := range l.segs {
		if i > 0 && s.First != prevLast+1 {
			if s.First < prevLast+1 {
				return fmt.Errorf("%w: segment %s overlaps seq %d", ErrCorrupt, s.Name, prevLast)
			}
			if s.First > from { // the missing range [prevLast+1, s.First) intersects [from, ∞)
				return fmt.Errorf("%w: records %d-%d missing before %s", ErrCorrupt, prevLast+1, s.First-1, s.Name)
			}
		}
		prevLast = s.First - 1
		if s.Size == 0 {
			continue // no record to replay, no file to read
		}
		data, err := l.fs.ReadFile(filepath.Join(l.dir, s.Name))
		if err != nil {
			return err
		}
		if prevLast, _, _, err = scanSegment(data, s, false, visit); err != nil { // Open healed the tail
			return err
		}
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
		// A sealed segment's records end just before its successor's first.
		if i < len(l.segs)-1 && l.segs[i+1].First <= upTo+1 {
			if err := l.fs.Remove(filepath.Join(l.dir, s.Name)); err != nil && !errors.Is(err, iofs.ErrNotExist) {
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
		n += s.Size
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
	return markSealed(slices.Clone(l.segs))
}

// markSealed sets Sealed on every segment of segs but the last and returns
// segs: a segment is sealed exactly when a later one exists.
func markSealed(segs []SegmentInfo) []SegmentInfo {
	for i := range segs {
		segs[i].Sealed = i < len(segs)-1
	}
	return segs
}

// ActiveSegment returns the name of the segment currently accepting
// appends.
func (l *Log) ActiveSegment() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[len(l.segs)-1].Name
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
		if s.Name != name {
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
		if err := l.fs.Remove(filepath.Join(l.dir, s.Name)); err != nil && !errors.Is(err, iofs.ErrNotExist) {
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
	l.segs = append(l.segs, SegmentInfo{Name: name, First: first})
	return nil
}

// ParseRecord decodes the first record framed in b, returning its sequence
// number, a payload view into b, and the total frame length consumed. It
// is the unit the segment walker and the fuzz target exercise: any
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

// scanSegment is the one walker over a segment's records and the one place
// that judges damage: Open, Replay and the scrubbers all read its verdict.
// It checks every frame and that seqs run consecutively from seg.First,
// handing each intact record to visit when visit is non-nil; a visit error
// stops the walk and comes back as is. It returns the last intact seq
// (seg.First-1 when none), the offset just past that record, and one of
// three verdicts:
//   - clean (torn false, err nil): every byte belongs to an intact record;
//   - torn: damage in the last segment (tail) that a crash explains, to be
//     truncated at good: no intact record follows it, or a zero-filled
//     sector lies between it and the first intact record — a page of the
//     unsynced tail that never reached disk while a later one did;
//   - corrupt: any other damage, as an error wrapping ErrCorrupt that names
//     the segment and the offset.
//
// An intact record is a frame whose CRC holds and whose seq is above the
// last good one, and at most seg.First+p/minFrame at offset p, since at
// most p/minFrame records fit before it.
func scanSegment(data []byte, seg SegmentInfo, tail bool, visit func(seq uint64, payload []byte) error) (last uint64, good int64, torn bool, err error) {
	next, off := seg.First, 0
	for off < len(data) {
		seq, payload, n, perr := ParseRecord(data[off:])
		if perr == nil && seq != next {
			perr = fmt.Errorf("seq %d, want %d", seq, next)
		}
		if perr != nil {
			err = fmt.Errorf("%w: %s at offset %d: %v", ErrCorrupt, seg.Name, off, perr)
			break
		}
		if visit != nil {
			if err := visit(seq, payload); err != nil {
				return next - 1, int64(off), false, err
			}
		}
		off += n
		next++
	}
	if err == nil || !tail {
		return next - 1, int64(off), false, err
	}
	p := off
	for ; p < len(data); p++ {
		if seq, _, _, perr := ParseRecord(data[p:]); perr == nil && seq >= next && seq-seg.First <= uint64(p/minFrame) {
			break
		}
	}
	torn = p == len(data)
	for s := (off + sector - 1) / sector * sector; !torn && s+sector <= p; s += sector {
		torn = bytes.Count(data[s:s+sector], []byte{0}) == sector
	}
	if torn {
		err = nil
	}
	return next - 1, int64(off), torn, err
}

// SegmentCheck is one segment's result from VerifyDir.
type SegmentCheck struct {
	// Name is the segment file's name; Bytes its size on disk.
	Name  string
	Bytes int64
	// Records counts the valid records scanned before any damage.
	Records uint64
	// Torn reports a torn tail on the final segment — damage with no intact
	// record after it, which Open truncates. Err carries any other damage,
	// wrapping ErrCorrupt, or a read failure.
	Torn bool
	Err  error
}

// VerifyDir scans every WAL segment in dir offline — without opening a
// Log and without modifying anything — with the walker Open uses, so a
// segment Open would refuse carries Err and a tail Open would cut is Torn.
// Results come back in segment order. A nil fsys means the real disk.
func VerifyDir(fsys faultfs.FS, dir string) ([]SegmentCheck, error) {
	fsys = faultfs.Or(fsys)
	segs, err := ListDir(fsys, dir)
	if err != nil {
		return nil, err
	}
	checks := make([]SegmentCheck, len(segs))
	for i, s := range segs {
		checks[i] = checkSegment(fsys, dir, s, i == len(segs)-1)
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
	first, err := parseSegmentName(name)
	if err != nil {
		return 0, err
	}
	c := checkSegment(faultfs.Or(fsys), dir, SegmentInfo{Name: name, First: first}, false)
	return c.Bytes, c.Err
}

// checkSegment is the one per-segment check behind VerifyDir and
// CheckSegment.
func checkSegment(fsys faultfs.FS, dir string, s SegmentInfo, tail bool) SegmentCheck {
	c := SegmentCheck{Name: s.Name}
	data, err := fsys.ReadFile(filepath.Join(dir, s.Name))
	if err != nil {
		c.Err = err
		return c
	}
	c.Bytes = int64(len(data))
	last, _, torn, err := scanSegment(data, s, tail, nil)
	c.Records, c.Torn, c.Err = last+1-s.First, torn, err
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
			continue // not a name this package wrote, so not a segment
		}
		seg := SegmentInfo{Name: e.Name(), First: first}
		if fi, err := e.Info(); err == nil { // gone since the listing: size 0
			seg.Size = fi.Size()
		}
		segs = append(segs, seg)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].First < segs[j].First })
	return markSealed(segs), nil
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

package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/faultfs"
)

// This file holds the leader-term metadata used by failover: a tiny TERM
// file next to the MANIFEST records the highest term this store has taken
// part in and whether the store has fenced itself because it observed a
// newer one. Terms are what make promotion safe — after a follower bumps
// its term and starts accepting writes, the old leader (and any client
// still talking to it) carries a smaller term, and every write path that
// sees the newer term rejects the stale one instead of silently diverging.
//
// Persistence ordering is deliberately asymmetric, failing safe in both
// directions:
//
//   - Fencing updates memory FIRST, then the TERM file. If the disk write
//     fails the store is still fenced in memory — we may forget the fence
//     across a restart, but we never accept a write after observing a
//     newer term.
//   - A term bump (promotion) writes the TERM file FIRST, then memory. If
//     the disk write fails the node stays a follower — we never serve
//     writes under a term that a crash would forget.

// termName is the durable term metadata file, written atomically through
// the store's filesystem like the MANIFEST.
const termName = "TERM"

// termMagic brands the TERM file; termVersion is the codec version.
const (
	termMagic   = "qpgcTERM"
	termVersion = 1
	termSize    = len(termMagic) + 1 + 8 + 1 + 4 // magic | ver | term | fenced | crc
)

// ErrFenced is the cause recorded when a store fences itself after
// observing a newer leader term. It is wrapped with context, so test it
// with errors.Is.
var ErrFenced = errors.New("store: fenced by newer leader term")

var termCRC = crc32.MakeTable(crc32.Castagnoli)

// encodeTerm renders the TERM file body: magic, version byte, the term as
// little-endian u64, a fenced flag byte, and a CRC32-C of everything
// before it.
func encodeTerm(term uint64, fenced bool) []byte {
	b := make([]byte, termSize)
	n := copy(b, termMagic)
	b[n] = termVersion
	binary.LittleEndian.PutUint64(b[n+1:], term)
	if fenced {
		b[n+9] = 1
	}
	crc := crc32.Checksum(b[:n+10], termCRC)
	binary.LittleEndian.PutUint32(b[n+10:], crc)
	return b
}

// decodeTerm parses a TERM file body. It is a total function: any input —
// truncated, oversized, forged, or bit-flipped — yields an error, never a
// panic, and never a usable term.
func decodeTerm(b []byte) (term uint64, fenced bool, err error) {
	if len(b) != termSize {
		return 0, false, fmt.Errorf("store: term file is %d bytes, want %d", len(b), termSize)
	}
	n := len(termMagic)
	if string(b[:n]) != termMagic {
		return 0, false, fmt.Errorf("store: term file has bad magic %q", b[:n])
	}
	if b[n] != termVersion {
		return 0, false, fmt.Errorf("store: term file version %d unsupported", b[n])
	}
	flag := b[n+9]
	if flag > 1 {
		return 0, false, fmt.Errorf("store: term file fenced flag %d out of range", flag)
	}
	want := binary.LittleEndian.Uint32(b[n+10:])
	got := crc32.Checksum(b[:n+10], termCRC)
	if got != want {
		return 0, false, fmt.Errorf("store: term file checksum mismatch (got %08x, want %08x)", got, want)
	}
	return binary.LittleEndian.Uint64(b[n+1:]), flag == 1, nil
}

// writeTermFile atomically replaces the TERM file.
func writeTermFile(fsys faultfs.FS, dir string, term uint64, fenced bool) error {
	return faultfs.ReplaceFile(fsys, filepath.Join(dir, termName), encodeTerm(term, fenced))
}

// readTermFile loads dir's TERM file. A missing file is term 0, unfenced
// (pre-failover directories stay openable); a corrupt one is an error so a
// forged or torn term can never silently regress.
func readTermFile(fsys faultfs.FS, dir string) (term uint64, fenced bool, err error) {
	b, err := fsys.ReadFile(filepath.Join(dir, termName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	term, fenced, err = decodeTerm(b)
	if err != nil {
		return 0, false, fmt.Errorf("%s/%s: %w", dir, termName, err)
	}
	return term, fenced, nil
}

// termState is the in-memory side of the TERM file, embedded in durable.
// The persisted fenced flag lives in memory as the health state Fenced.
type termState struct {
	term   atomic.Uint64
	termMu sync.Mutex // serializes term transitions and TERM writes
}

// loadTerm recovers the persisted term at open. A recovered fence is
// re-armed only by a term bump, never by the recovery loop.
func (d *durable) loadTerm() error {
	term, fenced, err := readTermFile(d.fs, d.dir)
	if err != nil {
		return err
	}
	d.term.Store(term)
	if fenced {
		d.fenceNow(fmt.Errorf("%w: term %d (recovered from %s)", ErrFenced, term, termName))
	}
	return nil
}

// observeTerm is the leader-side term check: seeing a term above our own
// means another node was promoted, so this store fences itself read-only.
// Memory is updated before disk — a failed TERM write leaves the store
// fenced in memory rather than writable under a superseded term. Equal or
// lower terms are no-ops.
func (d *durable) observeTerm(t uint64) error {
	if t <= d.term.Load() {
		return nil
	}
	d.termMu.Lock()
	defer d.termMu.Unlock()
	cur := d.term.Load()
	if t <= cur {
		return nil
	}
	d.term.Store(t)
	d.fenceNow(fmt.Errorf("%w: term %d superseded by %d", ErrFenced, cur, t))
	if err := writeTermFile(d.fs, d.dir, t, true); err != nil {
		return fmt.Errorf("store: persist fence at term %d: %w", t, err)
	}
	return nil
}

// adoptTerm is the follower-side term check: a follower tailing a leader
// at a higher term raises its own term without fencing (it must keep
// applying shipped batches), preserving any existing fenced flag. Equal or
// lower terms are no-ops.
func (d *durable) adoptTerm(t uint64) error {
	if t <= d.term.Load() {
		return nil
	}
	d.termMu.Lock()
	defer d.termMu.Unlock()
	if t <= d.term.Load() {
		return nil
	}
	if err := writeTermFile(d.fs, d.dir, t, HealthState(d.health.Load()) == Fenced); err != nil {
		return fmt.Errorf("store: persist adopted term %d: %w", t, err)
	}
	d.term.Store(t)
	return nil
}

// bumpTerm moves the store to a fresh term strictly above both its own
// and min, clearing any fence — the promotion step. The TERM file is
// written before memory: if the fsync fails the node stays an unpromoted
// follower instead of serving writes under a term a crash would forget.
func (d *durable) bumpTerm(min uint64) (uint64, error) {
	d.termMu.Lock()
	defer d.termMu.Unlock()
	next := d.term.Load()
	if min > next {
		next = min
	}
	next++
	if err := writeTermFile(d.fs, d.dir, next, false); err != nil {
		return 0, fmt.Errorf("store: persist term bump to %d: %w", next, err)
	}
	d.term.Store(next)
	d.unfence()
	return next, nil
}

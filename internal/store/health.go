package store

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"path/filepath"
	"time"

	"repro/internal/faultfs"
	"repro/internal/snapfile"
	"repro/internal/wal"
)

// This file holds the durable layer's self-healing machinery: the explicit
// health state machine that replaced the old sticky-failure policy, the
// background recovery loop that re-arms a degraded write path, and the
// integrity scrubber that verifies checksums of sealed state at a bounded
// IO rate.
//
// State machine:
//
//	            transient fault        retries exhausted /
//	            (retried in place)     rollback failed
//	  Healthy ────────────────────▶ Degraded(reason)
//	     ▲                              │
//	     │   probe + emergency ckpt +   │  recovery loop,
//	     └────── WAL reset succeed ◀────┘  every RecoveryInterval
//
// Invariants:
//   - Only the writer goroutine moves Healthy → Degraded, and it never
//     touches the log again until the state is Healthy.
//   - Only the recovery loop moves Degraded → Healthy, and it only touches
//     the log while the state is Degraded — so log surgery and appends
//     never race.
//   - acked ⇒ durable holds across every transition: a batch is acked only
//     after a successful post-retry Commit, and re-arming requires an
//     emergency checkpoint covering every acked epoch before the WAL is
//     reset.

// HealthState enumerates the write path's condition.
type HealthState int32

const (
	// Healthy means the write path is armed: batches append to the WAL and
	// are acknowledged per the Sync policy.
	Healthy HealthState = iota
	// Degraded means the write path is disarmed after a persistent storage
	// fault: reads keep serving the last published epoch, writes fail fast
	// with the degradation reason, and the recovery loop is probing the
	// directory to re-arm.
	Degraded
	// Fenced means the store observed a newer leader term: another node was
	// promoted, so this one is read-only by protocol, not by fault. Reads
	// keep serving, writes fail fast with ErrFenced, and — unlike Degraded —
	// the recovery loop never re-arms it; only a term bump (promotion)
	// clears a fence.
	Fenced
)

// String names the state for logs and CLI output.
func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Fenced:
		return "fenced"
	default:
		return fmt.Sprintf("health(%d)", int32(h))
	}
}

// Health is a point-in-time report of a durable store's condition.
type Health struct {
	// State is Healthy, Degraded, or Fenced.
	State HealthState
	// Reason is the degradation or fencing cause, "" while Healthy.
	Reason string
	// Term is the store's persisted leader term (0 before any failover).
	Term uint64
	// Retries counts transient write faults absorbed by in-place retry
	// (the caller never saw them).
	Retries uint64
	// Degradations counts Healthy → Degraded transitions.
	Degradations uint64
	// Recoveries counts Degraded → Healthy transitions.
	Recoveries uint64
	// CheckpointError is the latest background checkpoint failure still
	// outstanding, "" when the last checkpoint succeeded.
	CheckpointError string
	// LastScrub is the most recent integrity scrub's report; zero value if
	// no scrub has run.
	LastScrub ScrubReport
}

// ScrubReport summarizes one integrity scrub pass.
type ScrubReport struct {
	// Checked counts files whose checksums were verified.
	Checked int
	// Bytes is the total data read by the pass.
	Bytes int64
	// Quarantined lists files found corrupt and renamed *.quarantine.
	Quarantined []string
	// Repaired reports that corruption was found and a forced checkpoint
	// re-established a clean on-disk state.
	Repaired bool
	// Err is the error that interrupted the pass, "" for a complete one.
	Err string
}

// health-machinery defaults; see Options for the knobs.
const (
	defaultWriteRetries     = 4
	defaultRetryBackoff     = 5 * time.Millisecond
	maxRetryBackoff         = 500 * time.Millisecond
	defaultRecoveryInterval = 250 * time.Millisecond
	defaultScrubRate        = 8 << 20 // the scrub IO budget, bytes/sec; a constant, not a knob
	probeName               = "health.probe"
)

// ErrDegraded is the cause a write fails with while the write path is
// Degraded. It wraps the fault that degraded it, so test it with
// errors.Is; a fenced store fails with ErrFenced instead.
var ErrDegraded = errors.New("store: write path degraded")

// degradedErr returns the degradation or fencing reason while not
// Healthy, nil while Healthy.
func (d *durable) degradedErr() error {
	if HealthState(d.health.Load()) == Healthy {
		return nil
	}
	if err, ok := d.reason.Load().(error); ok {
		return err
	}
	return ErrDegraded
}

// degrade moves the write path to Degraded. Writer goroutine only. A
// fence outranks a fault: if the store is (or concurrently becomes)
// Fenced, the transition is skipped — the CAS loop, not a blind swap, is
// what keeps a racing fenceNow from being overwritten.
func (d *durable) degrade(cause error) {
	for {
		cur := d.health.Load()
		if cur == int32(Fenced) {
			return
		}
		if cur == int32(Degraded) {
			d.reason.Store(fmt.Errorf("%w: %w", ErrDegraded, cause))
			return
		}
		if d.health.CompareAndSwap(cur, int32(Degraded)) {
			d.reason.Store(fmt.Errorf("%w: %w", ErrDegraded, cause))
			d.degradations.Add(1)
			d.degradedSince.Store(time.Now().UnixNano())
			return
		}
	}
}

// rearm moves the write path back to Healthy. Recovery loop only, after
// the probe, emergency checkpoint and WAL reset all succeeded. The CAS
// from Degraded means a concurrent fence can never be re-armed here —
// only bumpTerm clears a fence.
func (d *durable) rearm() {
	if d.health.CompareAndSwap(int32(Degraded), int32(Healthy)) {
		d.recoveries.Add(1)
		if since := d.degradedSince.Swap(0); since != 0 {
			d.degradedNs.Add(time.Now().UnixNano() - since)
		}
	}
}

// fenceNow forces the state to Fenced from any prior state, closing an
// open degraded-time window. Term transitions (term.go) are the only
// callers.
func (d *durable) fenceNow(cause error) {
	d.reason.Store(cause)
	prev := d.health.Swap(int32(Fenced))
	if prev == int32(Fenced) {
		return
	}
	d.fences.Add(1)
	if prev == int32(Degraded) {
		if since := d.degradedSince.Swap(0); since != 0 {
			d.degradedNs.Add(time.Now().UnixNano() - since)
		}
	}
}

// unfence re-arms a fenced write path after a term bump. Any transient
// fault that was pending when the fence landed has been superseded: the
// writer will rediscover it and degrade normally.
func (d *durable) unfence() {
	d.health.CompareAndSwap(int32(Fenced), int32(Healthy))
}

// healthReport assembles the Health snapshot.
func (d *durable) healthReport() Health {
	h := Health{
		State:        HealthState(d.health.Load()),
		Term:         d.term.Load(),
		Retries:      d.writeRetries.Load(),
		Degradations: d.degradations.Load(),
		Recoveries:   d.recoveries.Load(),
	}
	if h.State != Healthy {
		if err, ok := d.reason.Load().(error); ok {
			h.Reason = err.Error()
		}
	}
	if err := d.ckptErr(); err != nil {
		h.CheckpointError = err.Error()
	}
	d.scrubMu.Lock()
	h.LastScrub = d.lastScrub
	d.scrubMu.Unlock()
	return h
}

// startBackground launches the recovery loop and (when ScrubInterval > 0)
// the periodic scrubber. ckpt persists the store's current in-memory
// snapshot; force bypasses the at-or-below-newest no-op so a quarantined
// current snapshot can be rewritten.
func (d *durable) startBackground(ckpt func(force bool) error) {
	if d.recoveryInterval > 0 {
		d.bgWg.Add(1)
		go func() {
			defer d.bgWg.Done()
			t := time.NewTicker(d.recoveryInterval)
			defer t.Stop()
			for {
				select {
				case <-d.stop:
					return
				case <-t.C:
					if HealthState(d.health.Load()) == Degraded {
						d.recoverOnce(ckpt)
					}
				}
			}
		}()
	}
	if d.scrubInterval > 0 {
		d.bgWg.Add(1)
		go func() {
			defer d.bgWg.Done()
			t := time.NewTicker(d.scrubInterval)
			defer t.Stop()
			for {
				select {
				case <-d.stop:
					return
				case <-t.C:
					d.scrubOnce(ckpt)
				}
			}
		}()
	}
}

// recoverOnce makes one attempt to re-arm a degraded write path:
//
//  1. Probe the directory — create, write, fsync and remove a scratch
//     file. Fails while the disk is still broken (or still full).
//  2. Emergency checkpoint of the current in-memory epoch. Every acked
//     batch is ≤ that epoch, so once it succeeds the WAL — including any
//     unreplayable tail the fault left — is redundant.
//  3. Reset the WAL to a fresh segment at epoch+1, discarding the old
//     segments and the possibly poisoned file handle.
//
// Only then does the state flip to Healthy, atomically re-arming the
// writer. Returns true on success.
func (d *durable) recoverOnce(ckpt func(force bool) error) bool {
	if err := d.probe(); err != nil {
		return false
	}
	if err := ckpt(false); err != nil {
		return false
	}
	epoch := d.lastCkpt.Load()
	if d.log != nil {
		if err := d.log.Reset(epoch + 1); err != nil {
			return false
		}
	}
	d.rearm()
	return true
}

// probe exercises the directory's write path end to end: a whole file
// written and fsynced, then removed.
func (d *durable) probe() error {
	path := filepath.Join(d.dir, probeName)
	if err := faultfs.WriteFile(d.fs, path, []byte("qpgc-probe")); err != nil {
		return err
	}
	return d.fs.Remove(path)
}

// scrubOnce runs one integrity pass: verify the CRC of every sealed WAL
// segment and every snapshot file at a bounded IO rate, quarantine corrupt
// files, and repair by forcing a fresh checkpoint from the in-memory epoch
// when anything was quarantined. The report is retained for Health().
func (d *durable) scrubOnce(ckpt func(force bool) error) ScrubReport {
	var rep ScrubReport

	// Sealed WAL segments. The active segment is skipped: it is growing
	// under the writer, and Open judged its damage when the store opened.
	if d.log != nil {
		for _, seg := range d.log.Segments() {
			if !seg.Sealed {
				continue
			}
			n, err := wal.CheckSegment(d.fs, d.dir, seg.Name)
			scrubThrottle(n)
			rep.Bytes += n
			switch {
			case err == nil:
				rep.Checked++
			case errors.Is(err, iofs.ErrNotExist):
				// Deleted by a concurrent checkpoint truncation; fine.
			case errors.Is(err, wal.ErrCorrupt):
				rep.Checked++
				if qerr := d.log.QuarantineSegment(seg.Name); qerr == nil {
					rep.Quarantined = append(rep.Quarantined, seg.Name)
				} else if rep.Err == "" {
					rep.Err = qerr.Error()
				}
			default:
				if rep.Err == "" {
					rep.Err = err.Error()
				}
			}
		}
	}

	// Snapshot files: the manifest's current one plus any stragglers.
	names, err := listSnapshots(d.fs, d.dir)
	if err != nil {
		if rep.Err == "" {
			rep.Err = err.Error()
		}
		d.keepReport(rep)
		return rep
	}
	current := ""
	if d.ckptEver.Load() {
		current = snapshotName(d.lastCkpt.Load())
	}
	corruptCurrent := false
	for _, name := range names {
		path := filepath.Join(d.dir, name)
		n, verr := snapfile.VerifyFS(d.fs, path)
		scrubThrottle(n)
		rep.Bytes += n
		switch {
		case verr == nil:
			rep.Checked++
		case errors.Is(verr, iofs.ErrNotExist):
			// Removed by a concurrent checkpoint; fine.
		case errors.Is(verr, snapfile.ErrFormat):
			rep.Checked++
			if qerr := d.fs.Rename(path, path+".quarantine"); qerr == nil {
				rep.Quarantined = append(rep.Quarantined, name)
				if name == current {
					corruptCurrent = true
				}
			} else if rep.Err == "" {
				rep.Err = qerr.Error()
			}
		default:
			if rep.Err == "" {
				rep.Err = verr.Error()
			}
		}
	}

	// Repair: corrupt sealed state is gone from the replay path; force a
	// fresh checkpoint of the in-memory epoch so the directory is again
	// recoverable on its own. Forcing matters when the manifest's own
	// snapshot was quarantined — the epoch number did not advance, only
	// the file vanished.
	if len(rep.Quarantined) > 0 {
		if err := ckpt(corruptCurrent); err != nil {
			if rep.Err == "" {
				rep.Err = fmt.Sprintf("repair checkpoint: %v", err)
			}
		} else {
			rep.Repaired = true
		}
	}
	d.keepReport(rep)
	return rep
}

// keepReport retains the scrub report for Health() and folds its tallies
// into the lifetime scrub counters surfaced by the metrics registry.
func (d *durable) keepReport(rep ScrubReport) {
	d.scrubMu.Lock()
	d.lastScrub = rep
	d.scrubMu.Unlock()
	d.scrubPasses.Add(1)
	if n := len(rep.Quarantined); n > 0 {
		d.scrubQuarantined.Add(uint64(n))
	}
	if rep.Repaired {
		d.scrubRepairs.Add(1)
	}
}

// scrubThrottle holds scrub IO to roughly defaultScrubRate by sleeping after
// each file of n bytes.
func scrubThrottle(n int64) {
	if n > 0 {
		time.Sleep(time.Duration(float64(n) / defaultScrubRate * float64(time.Second)))
	}
}

// DirScrub is the result of ScrubDir: per-file integrity of a durable
// directory verified offline.
type DirScrub struct {
	// Checked counts files verified; Bytes the data read.
	Checked int
	Bytes   int64
	// Torn names the WAL tail segment carrying a torn (healable) tail, ""
	// when none.
	Torn string
	// Corrupt lists files whose checksums fail: a WAL segment whose damage
	// is no torn tail (acknowledged batches lost) or a damaged snapshot.
	Corrupt []string
}

// ScrubDir verifies every snapshot and WAL segment checksum of a durable
// directory without opening a store and without modifying anything. WAL
// segments are judged as wal.Open judges them: a torn tail on the final
// segment is reported as Torn — opening the store heals it — and any other
// damage as Corrupt, as is an unreadable checkpoint. A Corrupt segment
// means acknowledged batches were lost, and the store refuses to open
// until it is set aside.
func ScrubDir(dir string) (DirScrub, error) {
	var out DirScrub
	m, err := readManifest(faultfs.Disk, dir)
	if err != nil {
		return out, err
	}
	n, verr := snapfile.Verify(filepath.Join(dir, m.snapshot))
	out.Bytes += n
	out.Checked++
	if verr != nil {
		out.Corrupt = append(out.Corrupt, m.snapshot)
	}
	checks, err := wal.VerifyDir(nil, dir)
	if err != nil {
		return out, err
	}
	for _, c := range checks {
		out.Checked++
		out.Bytes += c.Bytes
		switch {
		case c.Err != nil:
			out.Corrupt = append(out.Corrupt, c.Name)
		case c.Torn:
			out.Torn = c.Name
		}
	}
	return out, nil
}

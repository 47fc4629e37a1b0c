package store

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/snapfile"
	"repro/internal/wal"
)

// This file holds the durability machinery shared by Store and
// ShardedStore: the manifest that names the current checkpoint, the
// checkpoint writer (atomic snapshot file + manifest swap + WAL
// truncation), the WAL group-commit glue, and the batch payload codec.

const manifestName = "MANIFEST"

// durable is the persistence half of a store: one directory holding
// snapshot checkpoints, the MANIFEST pointing at the newest one, and the
// write-ahead log segments. It also owns the self-healing machinery — the
// health state machine, the recovery loop and the integrity scrubber — in
// health.go.
type durable struct {
	dir  string
	kind snapfile.Kind
	fs   faultfs.FS

	syncMode    SyncMode
	ckptBatches uint64 // 0 disables the batch trigger
	ckptBytes   int64  // 0 disables the byte trigger

	retries          int           // in-place append/checkpoint retries before giving up
	backoff          time.Duration // first retry's backoff; doubles per attempt, capped
	recoveryInterval time.Duration // degraded-state probe cadence; 0 disables
	scrubInterval    time.Duration // integrity scrub cadence; 0 disables
	segBytes         int64         // WAL segment rotation threshold; 0 = wal default

	log *wal.Log // nil until openLog

	// manifestEpoch/manifestSnapshot are the recovery inputs read at open;
	// they are not updated by later checkpoints.
	manifestEpoch    uint64
	manifestSnapshot string

	mu       sync.Mutex    // serializes checkpoints and the manifest swap
	lastCkpt atomic.Uint64 // epoch of the newest on-disk checkpoint
	ckptEver atomic.Bool   // false until the directory has any checkpoint
	busy     atomic.Bool   // a background checkpoint is in flight
	wg       sync.WaitGroup

	health       atomic.Int32 // HealthState; writer degrades, recovery re-arms
	reason       atomic.Value // error: the degradation cause
	writeRetries atomic.Uint64
	degradations atomic.Uint64
	recoveries   atomic.Uint64
	fences       atomic.Uint64

	// termState is the leader-term metadata backing failover fencing; the
	// codec and transition rules live in term.go.
	termState

	// Degraded-time accounting for qpgc_health_degraded_seconds_total:
	// degradedSince holds the unix nanos of the live degradation (0 while
	// Healthy), degradedNs the nanoseconds of all finished ones.
	degradedSince atomic.Int64
	degradedNs    atomic.Int64

	// Scrub lifetime counters, bumped by keepReport.
	scrubPasses      atomic.Uint64
	scrubQuarantined atomic.Uint64
	scrubRepairs     atomic.Uint64

	scrubMu   sync.Mutex
	lastScrub ScrubReport

	stop chan struct{}  // closed by close(); stops the background loops
	bgWg sync.WaitGroup // recovery + scrub goroutines

	ckptError atomic.Value // errBox: outstanding background checkpoint failure
	encBuf    []byte       // writer-goroutine-only batch encode scratch
	closed    atomic.Bool

	obsReg *obs.Registry // nil unless the store was opened with a registry
}

// errBox wraps an error for atomic.Value, whose Store panics on nil and on
// inconsistent concrete types.
type errBox struct{ err error }

// newDurable opens the durable layer of a store of the given kind over
// o.Dir, reading the manifest and TERM file a previous run left there.
func newDurable(o Options, kind snapfile.Kind) (*durable, error) {
	fsys := faultfs.Or(o.FS)
	if err := fsys.MkdirAll(o.Dir, 0o777); err != nil {
		return nil, err
	}
	d := &durable{
		dir:      o.Dir,
		kind:     kind,
		fs:       fsys,
		syncMode: o.Sync,
		stop:     make(chan struct{}),
		segBytes: o.WALSegmentBytes,
	}
	switch {
	case o.CheckpointBatches == 0:
		d.ckptBatches = 256
	case o.CheckpointBatches > 0:
		d.ckptBatches = uint64(o.CheckpointBatches)
	}
	switch {
	case o.CheckpointBytes == 0:
		d.ckptBytes = 8 << 20
	case o.CheckpointBytes > 0:
		d.ckptBytes = o.CheckpointBytes
	}
	switch {
	case o.WriteRetries == 0:
		d.retries = defaultWriteRetries
	case o.WriteRetries > 0:
		d.retries = o.WriteRetries
	}
	switch {
	case o.RetryBackoff == 0:
		d.backoff = defaultRetryBackoff
	case o.RetryBackoff > 0:
		d.backoff = o.RetryBackoff
	}
	switch {
	case o.RecoveryInterval == 0:
		d.recoveryInterval = defaultRecoveryInterval
	case o.RecoveryInterval > 0:
		d.recoveryInterval = o.RecoveryInterval
	}
	if o.ScrubInterval > 0 {
		d.scrubInterval = o.ScrubInterval
	}
	if HasState(fsys, o.Dir) {
		m, err := readManifest(fsys, o.Dir)
		if err != nil {
			return nil, err
		}
		if m.kind != kind {
			return nil, fmt.Errorf("store: %s holds a %v store; open it with the matching entry point", o.Dir, m.kind)
		}
		d.manifestEpoch = m.epoch
		d.manifestSnapshot = m.snapshot
		d.lastCkpt.Store(m.epoch)
		d.ckptEver.Store(true)
	}
	if err := d.loadTerm(); err != nil {
		return nil, err
	}
	d.bindObs(o.Obs)
	return d, nil
}

// bindObs registers the durable layer's health, scrub, and WAL metrics
// with r; the WAL size/segment gauges read the log lazily so registration
// can precede openLog. No-op on a nil registry.
func (d *durable) bindObs(r *obs.Registry) {
	if r == nil {
		return
	}
	d.obsReg = r
	r.GaugeFunc("qpgc_health_state", func() float64 {
		return float64(d.health.Load()) // 0 healthy, 1 degraded, 2 fenced
	})
	r.CounterFunc("qpgc_health_retries_total", d.writeRetries.Load)
	r.CounterFunc("qpgc_health_degradations_total", d.degradations.Load)
	r.CounterFunc("qpgc_health_recoveries_total", d.recoveries.Load)
	r.CounterFunc("qpgc_health_fences_total", d.fences.Load)
	r.GaugeFunc("qpgc_store_term", func() float64 {
		return float64(d.term.Load())
	})
	// A gauge func, not a counter: degraded windows are usually sub-second
	// and an integer counter would round them all to zero. The value is
	// still monotone — rate() works on it.
	r.GaugeFunc("qpgc_health_degraded_seconds_total", func() float64 {
		ns := d.degradedNs.Load()
		if since := d.degradedSince.Load(); since != 0 {
			ns += time.Since(time.Unix(0, since)).Nanoseconds()
		}
		return time.Duration(ns).Seconds()
	})
	r.CounterFunc("qpgc_scrub_passes_total", d.scrubPasses.Load)
	r.CounterFunc("qpgc_scrub_quarantined_total", d.scrubQuarantined.Load)
	r.CounterFunc("qpgc_scrub_repairs_total", d.scrubRepairs.Load)
	r.GaugeFunc("qpgc_wal_segment_bytes", func() float64 {
		if d.log == nil {
			return 0
		}
		return float64(d.log.SizeBytes())
	})
	r.GaugeFunc("qpgc_wal_segments", func() float64 {
		if d.log == nil {
			return 0
		}
		return float64(len(d.log.Segments()))
	})
}

// snapshotPath is the absolute path of the manifest's checkpoint.
func (d *durable) snapshotPath() string { return filepath.Join(d.dir, d.manifestSnapshot) }

// openLog opens the WAL, creating it at nextSeq when empty.
func (d *durable) openLog(nextSeq uint64) error {
	l, err := wal.Open(d.dir, nextSeq, &wal.Options{Sync: d.syncMode, FS: d.fs, SegmentBytes: d.segBytes, Obs: d.obsReg})
	if err != nil {
		return err
	}
	d.log = l
	return nil
}

// noteErr records the outcome of a background checkpoint: a failure is
// sticky — surfaced by Health and returned by close — until a later
// checkpoint succeeds and clears it.
func (d *durable) noteErr(err error) {
	d.ckptError.Store(errBox{err})
}

// ckptErr returns the outstanding background checkpoint failure, if any.
func (d *durable) ckptErr() error {
	if b, ok := d.ckptError.Load().(errBox); ok {
		return b.err
	}
	return nil
}

// backoffFor is the capped exponential delay before retry attempt (1-based).
func (d *durable) backoffFor(attempt int) time.Duration {
	delay := d.backoff
	for i := 1; i < attempt && delay < maxRetryBackoff; i++ {
		delay *= 2
	}
	if delay > maxRetryBackoff {
		delay = maxRetryBackoff
	}
	return delay
}

// appendGroup logs one coalesced batch group and commits it under the
// configured fsync policy. Nothing in the group may be applied or
// acknowledged unless this succeeds; on failure the group's partial tail
// is rolled back so batches whose callers saw an error cannot resurface
// on restart (acked ⇒ durable, and errored ⇒ absent).
//
// Transient faults are retried in place with capped exponential backoff —
// each attempt rolls the torn tail back first, so the retried group lands
// whole and the durability contract is unchanged. Exhausting the retries
// degrades the write path; so does a failed rollback, immediately, because
// the log's tail invariant cannot be restored in place. Writer goroutine
// only.
func (d *durable) appendGroup(epochs []uint64, batch func(i int) []graph.Update) error {
	if err := d.degradedErr(); err != nil {
		return err
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			time.Sleep(d.backoffFor(attempt))
			d.writeRetries.Add(1)
		}
		mark := d.log.TailMark()
		lastErr = func() error {
			for i, e := range epochs {
				d.encBuf = EncodeBatch(d.encBuf[:0], batch(i))
				if err := d.log.Append(e, d.encBuf); err != nil {
					return err
				}
			}
			return d.log.Commit()
		}()
		if lastErr == nil {
			return nil
		}
		if rerr := d.log.Rollback(mark); rerr != nil {
			// The torn group stays on disk for recovery's emergency
			// checkpoint + WAL reset to supersede; no retry can run on a
			// tail in unknown state.
			d.degrade(fmt.Errorf("%w (rollback also failed: %v)", lastErr, rerr))
			return d.degradedErr()
		}
		if attempt >= d.retries {
			break
		}
	}
	d.degrade(lastErr)
	return d.degradedErr()
}

// maybeCheckpoint starts a background checkpoint when the batch or byte
// threshold is crossed at epoch and none is in flight. image pins the view
// to persist — on the calling (writer) goroutine, so the checkpoint covers
// the epoch that crossed the threshold — and the write itself runs off it;
// the concurrency choreography (single-flight CAS, close-time wait, error
// recording) lives here. A threshold crossed while a checkpoint is in
// flight finds it busy, so when one finishes it asks again at the epoch
// published by then, and goes on through image, pinned under the
// checkpoint lock as an install requires.
func (d *durable) maybeCheckpoint(epoch uint64, image func() (uint64, func(path string) error)) {
	if !d.shouldCheckpoint(epoch) {
		return
	}
	if !d.busy.CompareAndSwap(false, true) {
		return
	}
	epoch, write := image()
	pin := func() (uint64, func(path string) error) { return epoch, write }
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for {
			err := d.withRetry(func() error { return d.checkpoint(pin, false) })
			d.noteErr(err)
			d.busy.Store(false)
			// A failure is left to the next write, and an epoch already
			// checkpointed asks nothing: a log whose live segment alone is
			// past the byte threshold would otherwise spin here.
			if now, _ := image(); err != nil || now <= d.lastCkpt.Load() || !d.shouldCheckpoint(now) || !d.busy.CompareAndSwap(false, true) {
				return
			}
			pin = image
		}
	}()
}

// withRetry runs fn, retrying failures with the append path's capped
// backoff. It stops early when the durable layer is closing.
func (d *durable) withRetry(fn func() error) error {
	var err error
	for attempt := 0; attempt <= d.retries; attempt++ {
		if attempt > 0 {
			select {
			case <-d.stop:
				return err
			case <-time.After(d.backoffFor(attempt)):
			}
		}
		if err = fn(); err == nil {
			return nil
		}
	}
	return err
}

// shouldCheckpoint reports whether the batch or byte threshold is crossed
// at the given epoch.
func (d *durable) shouldCheckpoint(epoch uint64) bool {
	last := d.lastCkpt.Load()
	if d.ckptBatches > 0 && epoch >= last && epoch-last >= d.ckptBatches {
		return true
	}
	if d.ckptBytes > 0 && d.log != nil && d.log.SizeBytes() >= d.ckptBytes {
		return true
	}
	return false
}

// checkpoint makes the view pin returns the directory's newest
// checkpoint: its write writes the snapshot image to the path it is given,
// then the manifest is swapped and the WAL prefix the checkpoint covers is
// truncated, along with every other snapshot file. pin runs under the
// checkpoint lock, which an image install holds until its view serves, so a
// checkpoint never pins the history an install replaced. Concurrent and
// repeated calls are safe; a checkpoint at or below the newest one is a
// no-op unless forced, which rewrites it. The scrubber needs that after
// quarantining the manifest's own snapshot — the epoch did not advance, only
// the file is gone.
func (d *durable) checkpoint(pin func() (uint64, func(path string) error), force bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	epoch, write := pin()
	last := d.lastCkpt.Load()
	if d.ckptEver.Load() && epoch <= last {
		if !force {
			return nil
		}
		if epoch < last {
			// Never move the manifest backwards; rewrite the newest.
			epoch = last
		}
	}
	name := snapshotName(epoch)
	// write replaces the file through faultfs.ReplaceFile, whose directory
	// fsync makes the snapshot's entry durable before the manifest names it.
	if err := write(filepath.Join(d.dir, name)); err != nil {
		return err
	}
	if err := writeManifest(d.fs, d.dir, manifest{kind: d.kind, epoch: epoch, snapshot: name}); err != nil {
		return err
	}
	d.lastCkpt.Store(epoch)
	d.ckptEver.Store(true)
	if d.log != nil {
		if err := d.log.TruncateBefore(epoch); err != nil {
			return err
		}
	}
	return d.removeSnapshotsBut(epoch)
}

// A checkpoint file is named snap-<epoch as 16 hex digits>.qps.
const snapPrefix, snapSuffix = "snap-", ".qps"

// snapshotName is the file name of the checkpoint at epoch.
func snapshotName(epoch uint64) string { return fmt.Sprintf(snapPrefix+"%016x"+snapSuffix, epoch) }

// listSnapshots lists by name the checkpoint files of dir: those that
// snapshotName names. Any other file is not ours and is left out.
func listSnapshots(fsys faultfs.FS, dir string) ([]string, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		hex := strings.TrimSuffix(strings.TrimPrefix(e.Name(), snapPrefix), snapSuffix)
		if epoch, err := strconv.ParseUint(hex, 16, 64); err == nil && e.Name() == snapshotName(epoch) {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// removeSnapshotsBut deletes every snapshot file but the checkpoint at
// keep's.
func (d *durable) removeSnapshotsBut(keep uint64) error {
	names, err := listSnapshots(d.fs, d.dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if name == snapshotName(keep) {
			continue
		}
		if err := d.fs.Remove(filepath.Join(d.dir, name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// replayTail decodes every WAL record after fromEpoch into batches,
// validating node ids against the snapshot's node count.
func (d *durable) replayTail(fromEpoch uint64, numNodes int) (tail [][]graph.Update, updates uint64, err error) {
	err = d.log.Replay(fromEpoch+1, func(seq uint64, payload []byte) error {
		b, derr := DecodeBatch(payload, numNodes)
		if derr != nil {
			return fmt.Errorf("store: WAL record %d: %w", seq, derr)
		}
		tail = append(tail, b)
		updates += uint64(len(b))
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return tail, updates, nil
}

// close stops the background loops, waits for in-flight checkpoints and
// closes the WAL. It returns the outstanding background checkpoint failure
// if one is sticky, else any close error. Idempotent.
func (d *durable) close() error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(d.stop)
	d.bgWg.Wait()
	d.wg.Wait()
	var err error
	if d.log != nil {
		err = d.log.Close()
	}
	if cerr := d.ckptErr(); cerr != nil {
		// A lost checkpoint outranks close noise: the caller should know
		// the directory's newest checkpoint is older than it expects.
		return cerr
	}
	return err
}

// manifest is the recovery pointer: which snapshot file is current.
type manifest struct {
	kind     snapfile.Kind
	epoch    uint64
	snapshot string
}

// writeManifest atomically replaces the manifest.
func writeManifest(fsys faultfs.FS, dir string, m manifest) error {
	body := fmt.Sprintf("qpgc-durable v1\nkind %v\nepoch %d\nsnapshot %s\n", m.kind, m.epoch, m.snapshot)
	return faultfs.ReplaceFile(fsys, filepath.Join(dir, manifestName), []byte(body))
}

// readManifest parses the manifest of dir.
func readManifest(fsys faultfs.FS, dir string) (manifest, error) {
	b, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return manifest{}, err
	}
	var m manifest
	sc := bufio.NewScanner(bytes.NewReader(b))
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch {
		case line == 1:
			if len(fields) != 2 || fields[0] != "qpgc-durable" || fields[1] != "v1" {
				return manifest{}, fmt.Errorf("store: %s/%s: unsupported manifest header %q", dir, manifestName, sc.Text())
			}
		case fields[0] == "kind" && len(fields) == 2:
			switch fields[1] {
			case "store":
				m.kind = snapfile.KindStore
			case "sharded":
				m.kind = snapfile.KindSharded
			default:
				return manifest{}, fmt.Errorf("store: manifest names unknown kind %q", fields[1])
			}
		case fields[0] == "epoch" && len(fields) == 2:
			if m.epoch, err = strconv.ParseUint(fields[1], 10, 64); err != nil {
				return manifest{}, fmt.Errorf("store: manifest epoch: %w", err)
			}
		case fields[0] == "snapshot" && len(fields) == 2:
			if strings.ContainsAny(fields[1], "/\\") {
				return manifest{}, fmt.Errorf("store: manifest snapshot %q escapes the directory", fields[1])
			}
			m.snapshot = fields[1]
		}
	}
	if err := sc.Err(); err != nil {
		return manifest{}, err
	}
	if m.kind == 0 || m.snapshot == "" {
		return manifest{}, fmt.Errorf("store: %s/%s is incomplete", dir, manifestName)
	}
	return m, nil
}

// HasState reports whether dir holds recoverable durable state (a
// manifest written by a previous durable store), looking through fsys
// (nil = the disk).
func HasState(fsys faultfs.FS, dir string) bool {
	_, err := faultfs.Or(fsys).Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// DirInfo summarizes a durable directory without opening a store.
type DirInfo struct {
	// Epoch is the newest checkpoint's batch epoch.
	Epoch uint64
	// Snapshot is the checkpoint filename; SnapshotBytes its size.
	Snapshot      string
	SnapshotBytes int64
	// WALBytes and WALSegments size the log tail on disk.
	WALBytes    int64
	WALSegments int
	// Quarantined lists files the scrubber found corrupt and set aside
	// (*.quarantine): evidence of damage, no longer part of recovery.
	Quarantined []string
}

// Inspect reads a durable directory's manifest and sizes its files on the
// disk, for the CLI's recover/checkpoint subcommands.
func Inspect(dir string) (DirInfo, error) {
	fsys := faultfs.Disk
	m, err := readManifest(fsys, dir)
	if err != nil {
		return DirInfo{}, err
	}
	info := DirInfo{Epoch: m.epoch, Snapshot: m.snapshot}
	if st, err := fsys.Stat(filepath.Join(dir, m.snapshot)); err == nil {
		info.SnapshotBytes = st.Size()
	}
	segs, err := wal.ListDir(fsys, dir)
	if err != nil {
		return DirInfo{}, err
	}
	info.WALSegments = len(segs)
	for _, seg := range segs {
		info.WALBytes += seg.Size
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return DirInfo{}, err
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".quarantine") {
			info.Quarantined = append(info.Quarantined, e.Name())
		}
	}
	return info, nil
}

// EncodeBatch appends the encoding of one batch to buf: what a WAL record
// holds, what a client's Apply request carries and what a diff carries per
// epoch. It is snapfile.AppendBatch: node ids at the bit width of the
// largest, the insert flags as bits.
func EncodeBatch(buf []byte, batch []graph.Update) []byte { return snapfile.AppendBatch(buf, batch) }

// DecodeBatch parses a batch encoding — the current one, or the nine bytes
// an update older WAL segments and clients wrote — validating the declared
// count against the payload size, node ids against numNodes, and the
// insert flag's domain: corrupt or foreign payloads error, never panic.
func DecodeBatch(payload []byte, numNodes int) ([]graph.Update, error) {
	return snapfile.DecodeBatch(payload, numNodes)
}

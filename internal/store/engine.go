package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
	"repro/internal/graph"
	"repro/internal/snapfile"
)

// This file holds the epoch engine, the lifecycle both store kinds embed:
// ordered request queue → coalesce → assign epochs → durable group append →
// apply → publish → ack → checkpoint trigger, plus everything that hangs
// off the durable layer (checkpoint, recovery, health, terms, scrub,
// close), the batch scheduler's state and the metrics binding. A kind
// contributes its snapshot type, its read methods and the pipeline below.

// pipeline is the seam between the engine and a store kind. Only the writer
// goroutine (and the open path, before it starts) calls through it; reads
// never do — each kind answers queries from its own typed snapshot pointer.
type pipeline[R any] interface {
	// materialize builds the write-side state (maintainers, shard writers)
	// from the current view plus tail unless it already exists. The engine
	// passes nil: the first write after a warm restart, a promotion.
	// Recovery's WAL tail goes to the finish a kind's load returns.
	materialize(tail [][]graph.Update)
	// apply folds one accepted batch into the write-side state and reports
	// the kind's result for it, stamped with epoch.
	apply(epoch uint64, batch []graph.Update) R
	// publish builds the view of everything applied so far and swaps it in
	// as epoch's snapshot.
	publish(epoch uint64)
	// image pins the current view for a checkpoint: its epoch and a function
	// writing it as a snapshot file. Safe on any goroutine.
	image() (epoch uint64, write func(path string) error)
	// stop releases what materialize started, as the writer exits.
	stop()
}

type applyOutcome[R any] struct {
	res   R
	epoch uint64
	err   error
}

type applyReq[R any] struct {
	batch []graph.Update
	// task, when set, is a write that is not one batch — a shipped group, the
	// build of the write side — run by the writer alone, in its turn.
	task func() applyOutcome[R]
	res  chan applyOutcome[R]
}

// engine is the epoch engine one store kind embeds; R is the kind's
// ApplyBatch result. The counters sit here by value so a kind's read
// methods bump them at a fixed offset of the store itself.
type engine[R any] struct {
	p     pipeline[R]
	kind  snapfile.Kind
	cfg   Options // the kind-independent options
	nodes int     // static |V|

	dur   *durable  // nil for in-memory stores
	sched scheduler // multi-wave batch scheduler (sched.go)
	ob    *storeObs // nil unless Options.Obs

	reqs chan applyReq[R]
	idle chan struct{} // closed when the writer goroutine exits

	mu     sync.RWMutex // guards closed vs. sends on reqs
	closed bool

	epoch   atomic.Uint64 // latest published epoch
	wake    Wake          // broadcast when epoch moves or the store is fenced
	batches atomic.Uint64 // latest assigned epoch
	updates atomic.Uint64
	reads   atomic.Uint64

	// bstats counts batch read-path events over the store's life; every
	// view bumps it through a pointer, so a reader still sweeping a view it
	// pinned before a publish is counted like any other.
	bstats batchCounters
}

// init readies the engine of a store under construction and starts its
// writer, which idles until the open has returned and a first batch
// arrives — so from here on Close is the one way out, also for an open
// that fails half way.
func (e *engine[R]) init(p pipeline[R], kind snapfile.Kind, cfg Options) {
	e.p, e.kind, e.cfg = p, kind, cfg
	e.ob = newStoreObs(cfg.Obs)
	e.reqs = make(chan applyReq[R])
	e.idle = make(chan struct{})
	go e.run()
}

// openMode validates the (graph, Dir) combination Open and OpenSharded
// accept and reports whether the call recovers existing state.
func openMode(fn string, g *graph.Graph, fsys faultfs.FS, dir string) (reopen bool, err error) {
	reopen = dir != "" && HasState(fsys, dir)
	switch {
	case g == nil && dir == "":
		err = fmt.Errorf("store: %s needs a graph when no Dir is set", fn)
	case g == nil && !reopen:
		err = fmt.Errorf("store: %s holds no recoverable state and no graph was given", dir)
	case g != nil && reopen:
		err = fmt.Errorf("%w (%s)", ErrStateExists, dir)
	}
	return reopen, err
}

// create makes a just-built store durable in a fresh directory: the epoch-0
// checkpoint, then the log. No-op without a Dir.
func (e *engine[R]) create() error {
	if e.cfg.Dir == "" {
		return nil
	}
	d, err := newDurable(e.cfg, e.kind)
	if err != nil {
		return err
	}
	e.dur = d
	if err := e.persist(false); err != nil {
		return err
	}
	if err := d.openLog(1); err != nil {
		return err
	}
	d.startBackground(e.persist)
	return nil
}

// reopen recovers a durable directory. load decodes the newest checkpoint
// as far as its epoch and G (setting e.nodes), and returns finish, which
// takes the WAL tail: with an empty tail it installs the kind's views from
// the checkpoint, and no compression work happens at all; with a tail it
// builds the write side over the checkpoint's graph with the tail folded
// in, and the engine publishes the result.
func (e *engine[R]) reopen(load func(fsys faultfs.FS, path string) (epoch uint64, finish func(tail [][]graph.Update) error, err error)) error {
	d, err := newDurable(e.cfg, e.kind)
	if err != nil {
		return err
	}
	epoch, finish, err := load(d.fs, d.snapshotPath())
	if err != nil {
		return err
	}
	if epoch != d.manifestEpoch {
		return fmt.Errorf("store: snapshot %s is epoch %d, manifest says %d", d.manifestSnapshot, epoch, d.manifestEpoch)
	}
	e.dur = d
	e.epoch.Store(epoch)
	if err := d.openLog(epoch + 1); err != nil {
		return err
	}
	tail, updates, err := d.replayTail(epoch, e.nodes)
	if err != nil {
		return err
	}
	// The tail exists only when the last run crashed or closed between
	// checkpoints. The write-side state is built from scratch either way,
	// so the tail is folded into the graph first and the result is
	// compressed once — maintained state is a function of the graph alone,
	// so the answers equal the uninterrupted run's.
	if err := finish(tail); err != nil {
		return err
	}
	if len(tail) > 0 {
		epoch += uint64(len(tail))
		e.updates.Store(updates)
		e.advance(epoch)
	}
	e.batches.Store(epoch)
	d.startBackground(e.persist)
	return nil
}

// advance publishes epoch and moves the frontier behind it.
func (e *engine[R]) advance(epoch uint64) {
	e.p.publish(epoch)
	e.mark(epoch)
}

// mark moves the O(1) epoch frontier to a snapshot already installed, so a
// reader that saw Epoch() = k finds a snapshot of at least k; then it wakes
// whoever is parked in AwaitEpoch. The writer calls it before it sends the
// batch's results — Wake.Broadcast says why the order matters.
func (e *engine[R]) mark(epoch uint64) {
	e.epoch.Store(epoch)
	e.wake.Broadcast()
}

// run is the writer goroutine: it serializes batches, folds queued requests
// into one snapshot rebuild, logs the group to the WAL (group commit)
// before any state changes, and signals completion after publication. A
// task is never coalesced: it runs alone, after the group before it.
func (e *engine[R]) run() {
	defer close(e.idle)
	defer e.p.stop()
	var next *applyReq[R] // a task the last drain stopped at
	for {
		req := next
		next = nil
		if req == nil {
			r, ok := <-e.reqs
			if !ok {
				return
			}
			req = &r
		}
		if req.task != nil {
			req.res <- req.task()
			continue
		}
		pending := []applyReq[R]{*req}
	drain:
		for len(pending) < maxCoalesce {
			select {
			case r, ok := <-e.reqs:
				if !ok {
					break drain
				}
				if r.task != nil {
					next = &r
					break drain
				}
				pending = append(pending, r)
			default:
				break drain
			}
		}
		// WAL first: the group is appended and committed before any batch
		// is applied or acknowledged, so acked ⇒ durable. A log failure
		// that survives the in-place retries degrades the write path —
		// reads keep working on the last snapshot, writes fail fast — until
		// the background recovery loop re-arms it: with the log behind the
		// write-side state, continuing would acknowledge updates a restart
		// silently forgets.
		var start time.Time
		if e.ob != nil {
			start = time.Now()
		}
		epochs := make([]uint64, len(pending))
		for i := range pending {
			epochs[i] = e.batches.Add(1)
		}
		if e.dur != nil {
			if err := e.dur.appendGroup(epochs, func(i int) []graph.Update { return pending[i].batch }); err != nil {
				// Roll the epoch counter back so the next accepted group —
				// possibly after a recovery reset the WAL — continues the
				// acked sequence with no gap.
				e.batches.Store(epochs[0] - 1)
				for _, p := range pending {
					p.res <- applyOutcome[R]{err: err}
				}
				continue
			}
		}
		if e.ob != nil {
			e.ob.stageWAL.Observe(time.Since(start))
		}
		e.p.materialize(nil)
		results := make([]applyOutcome[R], len(pending))
		for i, p := range pending {
			results[i].epoch = epochs[i]
			results[i].res = e.p.apply(epochs[i], p.batch)
			e.updates.Add(uint64(len(p.batch)))
		}
		last := epochs[len(epochs)-1]
		e.advance(last)
		if e.ob != nil {
			e.ob.apply.Observe(time.Since(start))
		}
		for i, p := range pending {
			p.res <- results[i]
		}
		if e.dur != nil {
			e.dur.maybeCheckpoint(last, e.p.image)
		}
	}
}

// submit queues one batch and waits for the writer's verdict on it.
func (e *engine[R]) submit(batch []graph.Update) applyOutcome[R] {
	return e.queue(applyReq[R]{batch: batch, res: make(chan applyOutcome[R], 1)})
}

// submitTask runs task on the writer goroutine, in turn with every write,
// and returns what it reports.
func (e *engine[R]) submitTask(task func() applyOutcome[R]) applyOutcome[R] {
	return e.queue(applyReq[R]{task: task, res: make(chan applyOutcome[R], 1)})
}

func (e *engine[R]) queue(req applyReq[R]) applyOutcome[R] {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return applyOutcome[R]{err: ErrClosed}
	}
	e.reqs <- req
	e.mu.RUnlock()
	return <-req.res
}

// ApplyBatch submits one batch ΔG and blocks until the snapshot containing
// it is published; the store then equals G ⊕ ΔG for every reader, and — on
// a durable store — the batch is on stable storage per the Sync policy.
// Batches from concurrent callers are applied in arrival order. It returns
// ErrClosed after Close. On a durable store whose write path is degraded
// by a persistent storage fault it fails fast with the degradation reason
// — no state changes, nothing is acknowledged — until background recovery
// re-arms the path (see Health).
func (e *engine[R]) ApplyBatch(batch []graph.Update) (R, error) {
	out := e.submit(batch)
	return out.res, out.err
}

// Apply is ApplyBatch reporting only the epoch at which the batch became
// visible.
func (e *engine[R]) Apply(batch []graph.Update) (uint64, error) {
	out := e.submit(batch)
	return out.epoch, out.err
}

// Close stops the writer goroutine (and a sharded store's shard writers)
// after the queue drains, stops the recovery and scrub loops, waits for any
// in-flight background checkpoint, and closes the WAL. Queries remain
// answerable on the final snapshot; further ApplyBatch calls fail with
// ErrClosed. Close is idempotent and does not checkpoint: a reopen replays
// the WAL tail instead (call Checkpoint first to make the next start a pure
// snapshot load). It returns a background checkpoint failure still
// outstanding at close, so a caller that never checked Health sees the
// directory ended behind where it should be.
func (e *engine[R]) Close() error {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.reqs)
	}
	e.mu.Unlock()
	<-e.idle
	if e.dur != nil {
		return e.dur.close()
	}
	return nil
}

// Epoch returns the latest published epoch in O(1). A Snapshot loaded
// afterwards is at that epoch or a later one.
func (e *engine[R]) Epoch() uint64 { return e.epoch.Load() }

// AwaitEpoch blocks until the published epoch reaches min, timeout passes,
// cancel is closed or the store is fenced — a fenced store publishes
// nothing more — and returns the epoch it then reads. It parks on the
// wake-up advance broadcasts; nothing polls.
func (e *engine[R]) AwaitEpoch(min uint64, timeout time.Duration, cancel <-chan struct{}) uint64 {
	e.wake.Await(func() bool { return e.Epoch() >= min || e.Fenced() }, timeout, cancel)
	return e.Epoch()
}

// NumNodes returns |V| in O(1); the node set is static for the life of a
// store.
func (e *engine[R]) NumNodes() int { return e.nodes }

// SetSchedWorkers overrides how many helper goroutines wide batches may
// run beside their callers, over all batches in flight; n <= 0 returns to
// the default, GOMAXPROCS at the time of each batch.
func (e *engine[R]) SetSchedWorkers(n int) { e.sched.setWorkers(n) }

// SchedStats reports the multi-wave scheduler and the batch read path's
// hybrid-leaf counters, over every epoch the store has served. On a sharded
// store Hop2Peeled counts same-shard index answers and the hub fields the
// per-shard hub caches.
func (e *engine[R]) SchedStats() SchedStats {
	st := e.sched.stats()
	st.BatchLanes, st.Hop2Peeled = e.bstats.lanes.Load(), e.bstats.hop2Peeled.Load()
	st.HubCacheLanes, st.HubCachePrunes = e.bstats.hubLanes.Load(), e.bstats.hubPrunes.Load()
	if st.BatchLanes > 0 {
		st.HubCacheHitRate = float64(st.HubCacheLanes) / float64(st.BatchLanes)
	}
	return st
}

// persist checkpoints the current view; Checkpoint, the recovery loop and
// the scrubber call it (force rewrites even at the newest epoch).
func (e *engine[R]) persist(force bool) error {
	return e.dur.checkpoint(e.p.image, force)
}

// Checkpoint synchronously writes the current snapshot to the durable
// directory, points the manifest at it, and truncates the WAL prefix it
// covers. After Checkpoint, reopening the directory is a pure snapshot
// load. It fails with ErrNotDurable on an in-memory store.
func (e *engine[R]) Checkpoint() error {
	if e.dur == nil {
		return ErrNotDurable
	}
	return e.persist(false)
}

// Health reports the write path's health: state, degradation reason,
// retry/degradation/recovery counters and the last scrub. A sharded store
// logs the global update stream through one WAL, so health is a whole-store
// property. An in-memory store is always Healthy.
func (e *engine[R]) Health() Health {
	if e.dur == nil {
		return Health{State: Healthy}
	}
	return e.dur.healthReport()
}

// Term returns the store's persisted leader term; 0 on an in-memory store
// (terms only mean something for durable, replicable stores).
func (e *engine[R]) Term() uint64 {
	if e.dur == nil {
		return 0
	}
	return e.dur.term.Load()
}

// Fenced reports whether the store has fenced itself read-only after
// observing a newer leader term.
func (e *engine[R]) Fenced() bool {
	return e.dur != nil && HealthState(e.dur.health.Load()) == Fenced
}

// ObserveTerm is the leader-side term check: if t is above the store's own
// term, another node was promoted and this store fences itself read-only
// (writes fail fast with ErrFenced; reads keep serving). Equal or lower
// terms, and in-memory stores, are no-ops.
func (e *engine[R]) ObserveTerm(t uint64) error {
	if e.dur == nil {
		return nil
	}
	err := e.dur.observeTerm(t)
	e.wake.Broadcast() // a fence releases whatever waits on epochs that will not come
	return err
}

// AdoptTerm is the follower-side term check: raise the store's term to t
// without fencing, so a follower tailing a newly promoted leader keeps
// applying shipped batches. Equal or lower terms, and in-memory stores,
// are no-ops.
func (e *engine[R]) AdoptTerm(t uint64) error {
	if e.dur == nil {
		return nil
	}
	return e.dur.adoptTerm(t)
}

// BumpTerm moves the store to a fresh term strictly above both its own
// term and min, fsyncs it, and clears any fence — the promotion step. It
// then builds the write-side state a store recovered from a snapshot, or
// fed shipped effects, goes without, and republishes the current epoch
// from it, so that promotion and not the first write pays for maintenance
// and its first full view build. It returns the new term, or ErrNotDurable
// on an in-memory store.
func (e *engine[R]) BumpTerm(min uint64) (uint64, error) {
	if e.dur == nil {
		return 0, ErrNotDurable
	}
	term, err := e.dur.bumpTerm(min)
	if err == nil {
		e.submitTask(func() applyOutcome[R] {
			e.p.materialize(nil)
			e.advance(e.Epoch())
			return applyOutcome[R]{}
		})
	}
	return term, err
}

// ScrubNow runs one integrity scrub pass synchronously — verify sealed WAL
// segments and snapshot checksums, quarantine corrupt files, re-checkpoint
// if anything was set aside — and returns its report. It works whether or
// not the background scrubber is enabled; ErrNotDurable on an in-memory
// store.
func (e *engine[R]) ScrubNow() (ScrubReport, error) {
	if e.dur == nil {
		return ScrubReport{}, ErrNotDurable
	}
	return e.dur.scrubOnce(e.persist), nil
}

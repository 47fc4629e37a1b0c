// Package store composes compression, incremental maintenance and the CSR
// read path into one concurrent lifecycle: a Store owns the mutable
// write-side graph together with both incremental maintainers (incRCM for
// reachability, incPCM for patterns) and serves queries from immutable
// per-epoch snapshots while batches of edge updates land.
//
// # Consistency model (snapshot per epoch, batch-atomic visibility)
//
// All writes funnel through a single writer goroutine. Each ApplyBatch call
// advances the epoch by one; after a group of batches is applied, the writer
// publishes a fresh Snapshot — frozen CSR forms of G, the reachability
// quotient Gr-reach, and the bisimulation quotient Gr-pattern, plus their
// 2-hop indexes — by swapping one atomic pointer. Consequences:
//
//   - Readers never block on writers and never observe a partially applied
//     batch: a batch is invisible until its snapshot swap, then visible in
//     full (batch-atomic visibility).
//   - A reader that loads a Snapshot can keep querying it indefinitely; it
//     observes one consistent epoch, never a torn state. Store-level query
//     methods load the current snapshot per call instead.
//   - ApplyBatch returns only after the snapshot containing its batch is
//     published, so a writer's own subsequent reads see its write
//     (read-your-writes for the caller of ApplyBatch).
//   - Batches from concurrent callers are serialized in arrival order;
//     under write pressure the writer coalesces queued batches into one
//     snapshot rebuild, trading snapshot freshness-granularity for
//     throughput (each batch still gets a distinct epoch number).
//
// Readers pull queries.Scratch traversal state from a sync.Pool, so the
// warm read path performs zero heap allocations for point reachability.
//
// # Durability (snapshot checkpoints + write-ahead log)
//
// With Options.Dir set, the store is durable: every accepted batch is
// appended to a write-ahead log (internal/wal) and made durable — per the
// Sync policy — before ApplyBatch returns, and the full epoch state is
// periodically checkpointed to a binary snapshot file (internal/snapfile),
// after which the covered log prefix is truncated. Reopening the directory
// (Open with a nil graph) loads the newest checkpoint by slicing its flat
// layout — no recompression — and, when a log tail exists, folds it into
// the thawed graph and compresses that once. A store recovered with an
// empty tail serves reads straight from the loaded snapshot and defers
// building maintainer state until the first write. See DESIGN.md,
// "Durability".
package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bisim"
	"repro/internal/faultfs"
	"repro/internal/graph"
	"repro/internal/hop2"
	"repro/internal/incbisim"
	"repro/internal/increach"
	"repro/internal/maintain"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/reach"
	"repro/internal/snapfile"
	"repro/internal/wal"
)

// ErrClosed is returned by ApplyBatch after Close.
var ErrClosed = errors.New("store: closed")

// ErrStateExists is returned by Open/OpenSharded when a graph is passed
// but the directory already holds durable state: recovering would discard
// the graph, initializing would discard the state. Pass a nil graph to
// recover, or point Dir at a fresh directory.
var ErrStateExists = errors.New("store: directory already contains durable state; pass a nil graph to recover it")

// ErrNotDurable is returned by Checkpoint on a store opened without a Dir.
var ErrNotDurable = errors.New("store: not durable (no Options.Dir)")

// SyncMode is the WAL fsync policy, re-exported from internal/wal.
type SyncMode = wal.SyncMode

const (
	// SyncAlways fsyncs the WAL once per coalesced batch group, before any
	// caller is acknowledged: an acked batch survives power failure.
	SyncAlways = wal.SyncAlways
	// SyncNone leaves flushing to the OS: an acked batch survives a
	// process crash but may be lost on power failure.
	SyncNone = wal.SyncNone
)

// maxCoalesce bounds how many queued batches the writer folds into one
// snapshot rebuild.
const maxCoalesce = 32

// Options configures a Store.
type Options struct {
	// Indexes controls whether each snapshot carries a 2-hop reachability
	// index built over the reachability quotient (the paper's Fig. 12(d)
	// point: indexing Gr is cheap where indexing G is not). Building it
	// adds per-epoch work proportional to the (small) quotient. When
	// recovering from a durable directory, the loaded snapshot's own
	// index presence wins, so a store restarts with the configuration it
	// was serving.
	Indexes bool
	// Dir enables durability: snapshot checkpoints and the write-ahead
	// log live here. Empty means in-memory only.
	Dir string
	// Sync is the WAL fsync policy (durable stores only).
	Sync SyncMode
	// CheckpointBatches triggers a background checkpoint once this many
	// batches accumulated since the last one. 0 means the default (256);
	// negative disables the batch trigger.
	CheckpointBatches int
	// CheckpointBytes triggers a background checkpoint once the WAL holds
	// this many bytes. 0 means the default (8 MiB); negative disables the
	// byte trigger.
	CheckpointBytes int64
	// FS is the filesystem the durable layer runs on. Nil means the real
	// disk; tests substitute a faultfs.Inject to fire storage faults
	// deterministically.
	FS faultfs.FS
	// WriteRetries is how many times a failed WAL append group is retried
	// in place (with capped exponential backoff) before the write path
	// degrades. 0 means the default (4); negative disables retries.
	WriteRetries int
	// RetryBackoff is the delay before the first retry, doubling per
	// attempt up to a cap. 0 means the default (5ms).
	RetryBackoff time.Duration
	// RecoveryInterval is how often a degraded store re-probes its
	// directory to re-arm the write path. 0 means the default (250ms);
	// negative disables background recovery.
	RecoveryInterval time.Duration
	// ScrubInterval enables the background integrity scrubber at this
	// cadence; 0 (the default) disables it. ScrubNow works either way.
	ScrubInterval time.Duration
	// ScrubRate bounds scrub IO in bytes/sec. 0 means the default (8 MiB/s).
	ScrubRate int64
	// WALSegmentBytes is the WAL's segment rotation threshold. 0 means the
	// wal package default (4 MiB); smaller values seal segments sooner,
	// giving checkpoint truncation and the scrubber finer granularity.
	WALSegmentBytes int64
	// SchedWorkers sizes the multi-wave batch scheduler's worker pool
	// (sched.go): large BatchReachable calls split into waves claimed
	// across the pool, and SchedReachable point queries coalesce into
	// shared waves. 0 means GOMAXPROCS at Open time; SetSchedWorkers
	// resizes a running pool.
	SchedWorkers int
	// Obs, when non-nil, receives the store's metrics: apply/publish
	// latency histograms, epoch age, scheduler wave latency and occupancy,
	// batch read-path leaf counters, WAL fsync latency and group-commit
	// sizes, and the self-healing layer's health state. Nil (the default)
	// disables all instrumentation at zero hot-path cost.
	Obs *obs.Registry
}

// durableCfg projects the durable layer's cut of the options.
func (o Options) durableCfg() durableConfig {
	return durableConfig{
		dir:              o.Dir,
		sync:             o.Sync,
		ckptBatches:      o.CheckpointBatches,
		ckptBytes:        o.CheckpointBytes,
		fs:               o.FS,
		writeRetries:     o.WriteRetries,
		retryBackoff:     o.RetryBackoff,
		recoveryInterval: o.RecoveryInterval,
		scrubInterval:    o.ScrubInterval,
		scrubRate:        o.ScrubRate,
		segBytes:         o.WALSegmentBytes,
		obsReg:           o.Obs,
	}
}

// DefaultOptions returns the standard configuration: 2-hop indexes on,
// in-memory (no Dir), SyncAlways once a Dir is set.
func DefaultOptions() Options { return Options{Indexes: true} }

// ReachView is the reachability-compressed face of one snapshot.
type ReachView struct {
	// Gr is the frozen reachability quotient R(G).
	Gr *graph.CSR
	// Compressed carries the node mapping R (Rewrite/ClassOf) and the
	// class member index for this epoch.
	Compressed *reach.Compressed
	// Index is a 2-hop reachability labeling over Gr, nil unless
	// Options.Indexes.
	Index *hop2.Index
}

// PatternView is the pattern-compressed face of one snapshot.
type PatternView struct {
	// Gr is the frozen bisimulation quotient.
	Gr *graph.CSR
	// Compressed carries the class mapping and member index used by the
	// post-processing function P (pattern.Expand).
	Compressed *bisim.Compressed
}

// Snapshot is the immutable query state of one epoch. All fields are safe
// for concurrent use by any number of goroutines; a Snapshot never changes
// after publication.
type Snapshot struct {
	// Epoch counts applied batches: a snapshot with Epoch = k reflects
	// exactly the first k batches accepted by the store.
	Epoch uint64
	// G is the frozen original graph at this epoch, in public node ids.
	G *graph.CSR

	// gord caches the locality-reordered view of G, materialized on first
	// use (GOrd); gperm, when non-nil, is a permutation recovered from a
	// snapshot file that GOrd applies instead of recomputing.
	gord  atomic.Pointer[graph.Reordered]
	gperm []graph.Node

	// Batch read-path state, epoch-local by construction: a fresh snapshot
	// starts with empty counters and no hub cache, so a cached hub
	// reach-set never outlives its epoch (see hubcache.go). Counters are
	// metadata only — no query-visible state ever changes after
	// publication.
	bstats  batchCounters
	hubOnce sync.Once
	hub     atomic.Pointer[hubCache]
	// leafHist, when non-nil, times each wave's leaf-engine work
	// (qpgc_query_stage_seconds{stage="leaf"}); copied from the store's
	// instruments at publish so BatchReachable pays only a nil check when
	// metrics are off. so shares the sampling clock: only 1 in
	// obsSampleWaves waves pays the clock reads.
	leafHist *obs.Histogram
	so       *storeObs
	// Reach is the reachability-compressed read path.
	Reach ReachView
	// Pattern is the pattern-compressed read path.
	Pattern PatternView
}

// GOrd returns the locality-reordered view of G: an isomorphic CSR whose
// layout follows a BFS-from-hubs permutation, plus the old↔new id maps.
// The uncompressed traversal paths (ReachableOnG and the batched forms)
// rewrite their endpoints through it once per query; the maps never
// appear in the traversal hot loop. The view is materialized lazily on
// first use — the compressed hot path never needs it, so the writer does
// not pay the O(|G| log |G|) reorder per published epoch — and is safe
// for concurrent callers (a race computes it at most twice, identically).
// See internal/graph/reorder.go.
func (sn *Snapshot) GOrd() *graph.Reordered {
	if ro := sn.gord.Load(); ro != nil {
		return ro
	}
	var ro *graph.Reordered
	if sn.gperm != nil {
		ro = graph.ApplyPerm(sn.G, sn.gperm)
	} else {
		ro = graph.Reorder(sn.G)
	}
	sn.gord.CompareAndSwap(nil, ro)
	return sn.gord.Load()
}

// Reachable answers QR(u,v) on the compressed graph: O(1) rewriting, then
// bidirectional BFS over the frozen Gr-reach. Allocation-free with a warm
// scratch.
func (sn *Snapshot) Reachable(s *queries.Scratch, u, v graph.Node) bool {
	cu, cv := sn.Reach.Compressed.Rewrite(u, v)
	return queries.ReachableBiCSR(sn.Reach.Gr, s, cu, cv)
}

// ReachableOnG answers QR(u,v) by bidirectional BFS over the uncompressed
// snapshot of G — the baseline the compressed path is measured against.
// The traversal runs on the locality-reordered layout after an O(1)
// endpoint rewrite.
func (sn *Snapshot) ReachableOnG(s *queries.Scratch, u, v graph.Node) bool {
	ro := sn.GOrd()
	return queries.ReachableBiCSR(ro.C, s, ro.ToNew(u), ro.ToNew(v))
}

// ReachableHop2 answers QR(u,v) from the snapshot's 2-hop labels over
// Gr-reach: no graph traversal at all. It panics if the store was opened
// with Options.Indexes false; callers that cannot guarantee indexes are on
// should use ReachableHop2OK instead.
func (sn *Snapshot) ReachableHop2(u, v graph.Node) bool {
	if sn.Reach.Index == nil {
		panic("store: ReachableHop2 on a snapshot without 2-hop indexes (Options.Indexes false); use ReachableHop2OK")
	}
	cu, cv := sn.Reach.Compressed.Rewrite(u, v)
	return sn.Reach.Index.Reachable(cu, cv)
}

// ReachableHop2OK is the non-panicking form of ReachableHop2: it reports
// ok = false (and an unspecified first result) when the snapshot carries no
// 2-hop index, letting callers fall back to a traversal-based path.
func (sn *Snapshot) ReachableHop2OK(u, v graph.Node) (reachable, ok bool) {
	if sn.Reach.Index == nil {
		return false, false
	}
	cu, cv := sn.Reach.Compressed.Rewrite(u, v)
	return sn.Reach.Index.Reachable(cu, cv), true
}

// Match computes the maximum match of p on the compressed graph and expands
// it back to G via the post-processing function P.
func (sn *Snapshot) Match(p *pattern.Pattern) *pattern.Result {
	return pattern.Expand(pattern.MatchCSR(sn.Pattern.Gr, p), sn.Pattern.Compressed)
}

// MatchOnG computes the maximum match of p directly on the snapshot of G.
func (sn *Snapshot) MatchOnG(p *pattern.Pattern) *pattern.Result {
	return pattern.MatchCSR(sn.G, p)
}

// ApplyResult reports one ApplyBatch call.
type ApplyResult struct {
	// Epoch is the epoch at which the batch became visible (the batch's
	// 1-based sequence number among all accepted batches).
	Epoch uint64
	// Reach and Pattern report the incremental maintenance work.
	Reach   increach.Stats
	Pattern incbisim.Stats
}

// Stats is a point-in-time summary of the store.
type Stats struct {
	// Epoch, Batches and Updates count accepted work: Batches == Epoch of
	// the latest published snapshot once the writer is idle.
	Epoch   uint64
	Batches uint64
	// Updates counts individual edge updates across all accepted batches.
	Updates uint64
	// Reads counts queries served through Store-level query methods
	// (snapshot-pinned reads are not counted).
	Reads uint64
	// Nodes and Edges describe G at the latest snapshot.
	Nodes, Edges int
	// ReachClasses/ReachRatio and PatternClasses/PatternRatio describe the
	// two quotients at the latest snapshot; ratios are |Gr|/|G|.
	ReachClasses   int
	ReachRatio     float64
	PatternClasses int
	PatternRatio   float64
}

type applyOutcome struct {
	res ApplyResult
	err error
}

type applyReq struct {
	batch []graph.Update
	res   chan applyOutcome
}

// Store is a concurrent compressed-graph store: one writer, any number of
// readers. See the package documentation for the consistency model.
type Store struct {
	opts Options

	// m owns the authoritative write-side state: the graph and both
	// incremental maintainers over it. It is nil in a store recovered from
	// a snapshot until the first write forces ensureMaintainers — the lazy
	// path that makes a warm restart O(read) instead of O(recompress).
	// reachGen/patternGen are the maintainer generations the current
	// snapshot's views were built at (noGen when they came from a file).
	// Only the writer goroutine (or Open, before it starts) touches these.
	m                    *maintain.Pair
	reachGen, patternGen uint64

	dur *durable // nil for in-memory stores

	snap     atomic.Pointer[Snapshot]
	scratch  sync.Pool // *queries.Scratch
	bscratch sync.Pool // *queries.BatchScratch

	sched *scheduler // multi-wave batch scheduler; nil only before open finishes

	reqs chan applyReq
	idle chan struct{} // closed when the writer goroutine exits

	mu     sync.RWMutex // guards closed vs. sends on reqs
	closed bool

	batches atomic.Uint64
	updates atomic.Uint64
	reads   atomic.Uint64

	// Batch read-path counters folded in from retired snapshots by
	// publish; SchedStats adds the live snapshot's share on top.
	batchLanes atomic.Uint64
	hop2Peeled atomic.Uint64
	hubLanes   atomic.Uint64
	hubPrunes  atomic.Uint64

	ob *storeObs // nil unless Options.Obs
}

// Open returns a running Store serving queries on both compressed forms
// while accepting batched edge updates; Close releases it.
//
// With no Options.Dir, it takes ownership of g (which must not be used
// afterwards), compresses it under both schemes, publishes the epoch-0
// snapshot and starts the writer; it never fails. With a Dir naming a
// fresh directory it additionally writes the epoch-0 checkpoint and opens
// the write-ahead log. With a Dir holding previous state, g must be nil:
// the store recovers by loading the newest checkpoint and replaying the
// WAL tail, and serves reads from the loaded snapshot without
// recompressing anything.
func Open(g *graph.Graph, opts *Options) (*Store, error) {
	o := DefaultOptions()
	if opts != nil {
		o = *opts
	}
	if o.Dir == "" {
		if g == nil {
			return nil, errors.New("store: Open needs a graph when no Dir is set")
		}
		return openMem(g, o), nil
	}
	if HasState(o.Dir) {
		if g != nil {
			return nil, fmt.Errorf("%w (%s)", ErrStateExists, o.Dir)
		}
		return recoverStore(o)
	}
	if g == nil {
		return nil, fmt.Errorf("store: %s holds no recoverable state and no graph was given", o.Dir)
	}
	s := openMem(g, o)
	d, err := newDurable(o.durableCfg(), snapfile.KindStore)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.dur = d
	if err := s.writeCheckpoint(s.Snapshot()); err != nil {
		s.Close()
		return nil, err
	}
	if err := d.openLog(1); err != nil {
		s.Close()
		return nil, err
	}
	d.startBackground(s.persistSnapshot)
	return s, nil
}

// openMem builds the in-memory store around fresh maintainers and starts
// the writer.
func openMem(g *graph.Graph, o Options) *Store {
	n := g.NumNodes() // captured now: the closure below runs on reader
	// goroutines and must not touch the writer-owned graph
	s := &Store{
		opts: o,
		reqs: make(chan applyReq),
		idle: make(chan struct{}),
		ob:   newStoreObs(o.Obs),
	}
	s.setMaintainers(g)
	s.scratch.New = func() any { return queries.NewScratch(n) }
	s.publish(0)
	s.sched = s.newSched()
	s.bindStoreObs()
	go s.run()
	return s
}

// newSched binds a scheduler to this store: cluster keys come from the
// current reachability quotient (64-aligned class buckets, source in the
// key's high half per the scheduler's 40-bit layout), singles waves run
// the snapshot batch path with pooled scratch.
func (s *Store) newSched() *scheduler {
	return newScheduler(s.opts.SchedWorkers,
		func(u, v graph.Node) uint64 {
			sn := s.Snapshot()
			cu, cv := sn.Reach.Compressed.Rewrite(u, v)
			return (uint64(cu>>6)&0xFFFFF)<<20 | uint64(cv>>6)&0xFFFFF
		},
		func() int { return (s.Snapshot().Reach.Gr.NumNodes() + 63) / 64 },
		func(us, vs []graph.Node, out []bool) {
			bs := s.getBatchScratch()
			s.Snapshot().BatchReachable(bs, us, vs, out)
			s.bscratch.Put(bs)
		})
}

// noGen is a maintainer generation no maintainer reports: views tagged with
// it are always rebuilt by the next publish.
const noGen = ^uint64(0)

// setMaintainers takes ownership of g and compresses it under both schemes
// as the store's write-side state.
func (s *Store) setMaintainers(g *graph.Graph) {
	s.m = maintain.New(g)
	s.reachGen, s.patternGen = noGen, noGen
	if s.ob != nil {
		s.m.ReachTime, s.m.PatternTime = s.ob.stageReach, s.ob.stagePattern
	}
}

// ensureMaintainers materializes the incremental maintainers of a store
// recovered from a snapshot with no WAL tail: the first write pays the
// one-time compression cost that the warm restart skipped. Writer
// goroutine only.
func (s *Store) ensureMaintainers() {
	if s.m == nil {
		s.setMaintainers(s.Snapshot().G.Thaw())
	}
}

// publish rebuilds the snapshot from the maintainers and swaps it in.
// Called from Open and then only from the writer goroutine.
func (s *Store) publish(epoch uint64) {
	var pubStart time.Time
	if s.ob != nil {
		pubStart = time.Now()
	}
	old := s.snap.Load()
	sn := &Snapshot{Epoch: epoch, G: s.m.Graph().Freeze()}
	// A view is rebuilt only when its maintainer's compression moved since
	// the previous snapshot; an epoch whose updates were all redundant for
	// a scheme carries that scheme's view — class index, reordered Gr,
	// 2-hop index — over untouched. When rebuilt, the quotient is relabeled
	// by its locality permutation (baked into the class mapping, so queries
	// need no translation); G's reordered traversal view is materialized
	// lazily by GOrd, off the write path.
	if gen := s.m.Reach.Generation(); gen == s.reachGen {
		sn.Reach = old.Reach
	} else {
		rc, rGr := reorderReach(s.m.Reach.CompressedCSR())
		sn.Reach = ReachView{Gr: rGr, Compressed: rc}
		if s.opts.Indexes {
			sn.Reach.Index = hop2.BuildCSR(rGr)
		}
		s.reachGen = gen
	}
	if gen := s.m.Pattern.Generation(); gen == s.patternGen {
		sn.Pattern = old.Pattern
	} else {
		// The pattern quotient is projected over the snapshot of G frozen
		// above instead of freezing a second time.
		pc, pGr := reorderPattern(s.m.Pattern.CompressedCSR(sn.G))
		sn.Pattern = PatternView{Gr: pGr, Compressed: pc}
		s.patternGen = gen
	}
	// Fold the retiring snapshot's batch counters into the store
	// accumulators — the epoch swap that also retires its hub cache.
	// Readers still pinning the old snapshot may bump its counters after
	// the fold; those late events are dropped (stats, not a ledger).
	if old != nil {
		s.batchLanes.Add(old.bstats.lanes.Load())
		s.hop2Peeled.Add(old.bstats.hop2Peeled.Load())
		s.hubLanes.Add(old.bstats.hubLanes.Load())
		s.hubPrunes.Add(old.bstats.hubPrunes.Load())
	}
	if s.ob != nil {
		sn.leafHist = s.ob.leaf
		sn.so = s.ob
	}
	s.snap.Store(sn)
	if s.ob != nil {
		s.ob.notePublish(time.Since(pubStart))
	}
}

// run is the writer goroutine: it serializes batches, folds queued requests
// into one snapshot rebuild, logs the group to the WAL (group commit)
// before any state changes, and signals completion after publication.
func (s *Store) run() {
	defer close(s.idle)
	for req := range s.reqs {
		pending := []applyReq{req}
	drain:
		for len(pending) < maxCoalesce {
			select {
			case r, ok := <-s.reqs:
				if !ok {
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
		// maintainers' state, continuing would acknowledge updates a
		// restart silently forgets.
		var applyStart time.Time
		if s.ob != nil {
			applyStart = time.Now()
		}
		epochs := make([]uint64, len(pending))
		for i := range pending {
			epochs[i] = s.batches.Add(1)
		}
		if s.dur != nil {
			if err := s.dur.appendGroup(epochs, func(i int) []graph.Update { return pending[i].batch }); err != nil {
				// Roll the epoch counter back so the next accepted group —
				// possibly after a recovery reset the WAL — continues the
				// acked sequence with no gap.
				s.batches.Store(epochs[0] - 1)
				for _, p := range pending {
					p.res <- applyOutcome{err: err}
				}
				continue
			}
		}
		if s.ob != nil {
			s.ob.stageWAL.Observe(time.Since(applyStart))
		}
		s.ensureMaintainers()
		results := make([]applyOutcome, len(pending))
		for i, p := range pending {
			results[i].res.Epoch = epochs[i]
			results[i].res.Reach, results[i].res.Pattern = s.m.Apply(p.batch)
			s.updates.Add(uint64(len(p.batch)))
		}
		s.publish(epochs[len(epochs)-1])
		if s.ob != nil {
			s.ob.apply.Observe(time.Since(applyStart))
		}
		for i, p := range pending {
			p.res <- results[i]
		}
		s.maybeCheckpoint()
	}
}

// maybeCheckpoint hands the current snapshot to the durable layer's
// background checkpoint trigger. Writer goroutine only.
func (s *Store) maybeCheckpoint() {
	if s.dur == nil {
		return
	}
	sn := s.snap.Load()
	s.dur.maybeCheckpoint(sn.Epoch, func() error { return s.writeCheckpoint(sn) })
}

// Checkpoint synchronously writes the current snapshot to the durable
// directory, points the manifest at it, and truncates the WAL prefix it
// covers. After Checkpoint, reopening the directory is a pure snapshot
// load. It fails with ErrNotDurable on an in-memory store.
func (s *Store) Checkpoint() error {
	if s.dur == nil {
		return ErrNotDurable
	}
	return s.writeCheckpoint(s.Snapshot())
}

// writeCheckpoint persists sn as the directory's newest checkpoint.
func (s *Store) writeCheckpoint(sn *Snapshot) error {
	return s.dur.checkpoint(sn.Epoch, func(path string) error {
		return snapfile.WriteStoreFS(s.dur.fs, path, storeParts(sn))
	})
}

// persistSnapshot checkpoints the current snapshot; the recovery loop and
// the scrubber call it (force rewrites even at the newest epoch).
func (s *Store) persistSnapshot(force bool) error {
	sn := s.Snapshot()
	return s.dur.checkpointAt(sn.Epoch, func(path string) error {
		return snapfile.WriteStoreFS(s.dur.fs, path, storeParts(sn))
	}, force)
}

// Health reports the write path's health: state, degradation reason,
// retry/degradation/recovery counters and the last scrub. An in-memory
// store is always Healthy.
func (s *Store) Health() Health {
	if s.dur == nil {
		return Health{State: Healthy}
	}
	return s.dur.healthReport()
}

// Term returns the store's persisted leader term; 0 on an in-memory store
// (terms only mean something for durable, replicable stores).
func (s *Store) Term() uint64 {
	if s.dur == nil {
		return 0
	}
	return s.dur.term.Load()
}

// Fenced reports whether the store has fenced itself read-only after
// observing a newer leader term.
func (s *Store) Fenced() bool {
	if s.dur == nil {
		return false
	}
	return HealthState(s.dur.health.Load()) == Fenced
}

// ObserveTerm is the leader-side term check: if t is above the store's own
// term, another node was promoted and this store fences itself read-only
// (writes fail fast with ErrFenced; reads keep serving). Equal or lower
// terms, and in-memory stores, are no-ops.
func (s *Store) ObserveTerm(t uint64) error {
	if s.dur == nil {
		return nil
	}
	return s.dur.observeTerm(t)
}

// AdoptTerm is the follower-side term check: raise the store's term to t
// without fencing, so a follower tailing a newly promoted leader keeps
// applying shipped batches. Equal or lower terms, and in-memory stores,
// are no-ops.
func (s *Store) AdoptTerm(t uint64) error {
	if s.dur == nil {
		return nil
	}
	return s.dur.adoptTerm(t)
}

// BumpTerm moves the store to a fresh term strictly above both its own
// term and min, fsyncs it, and clears any fence — the promotion step. It
// returns the new term, or ErrNotDurable on an in-memory store.
func (s *Store) BumpTerm(min uint64) (uint64, error) {
	if s.dur == nil {
		return 0, ErrNotDurable
	}
	return s.dur.bumpTerm(min)
}

// ScrubNow runs one integrity scrub pass synchronously — verify sealed WAL
// segments and snapshot checksums, quarantine corrupt files, re-checkpoint
// if anything was set aside — and returns its report. It works whether or
// not the background scrubber is enabled; ErrNotDurable on an in-memory
// store.
func (s *Store) ScrubNow() (ScrubReport, error) {
	if s.dur == nil {
		return ScrubReport{}, ErrNotDurable
	}
	return s.dur.scrubOnce(s.persistSnapshot), nil
}

// storeParts projects a published snapshot onto the codec's flat form. The
// snapshot is immutable, so this is safe off the writer goroutine.
func storeParts(sn *Snapshot) *snapfile.StoreParts {
	return &snapfile.StoreParts{
		Epoch:          sn.Epoch,
		G:              sn.G,
		GPerm:          sn.GOrd().NewID,
		ReachGr:        sn.Reach.Gr,
		ReachClassOf:   sn.Reach.Compressed.ClassMap(),
		ReachMembers:   sn.Reach.Compressed.Members,
		ReachCyclic:    sn.Reach.Compressed.CyclicClass,
		ReachIndex:     sn.Reach.Index,
		PatternGr:      sn.Pattern.Gr,
		PatternBlockOf: sn.Pattern.Compressed.ClassMap(),
		PatternMembers: sn.Pattern.Compressed.Members,
	}
}

// recoverStore reopens a durable directory: load the newest checkpoint,
// fold the WAL tail into its graph and compress the result once, and start
// serving. With an empty tail no compression work happens at all.
func recoverStore(o Options) (*Store, error) {
	d, err := newDurable(o.durableCfg(), snapfile.KindStore)
	if err != nil {
		return nil, err
	}
	parts, err := snapfile.LoadStoreFS(d.fs, d.snapshotPath())
	if err != nil {
		return nil, err
	}
	if parts.Epoch != d.manifestEpoch {
		return nil, fmt.Errorf("store: snapshot %s is epoch %d, manifest says %d", d.manifestSnapshot, parts.Epoch, d.manifestEpoch)
	}
	o.Indexes = parts.ReachIndex != nil
	// The locality permutation of G round-trips through the snapshot file:
	// GOrd applies it instead of recomputing the numbering, so a recovered
	// snapshot serves the exact layout it checkpointed. Older snapshots
	// without one fall back to recomputing on first use.
	sn := &Snapshot{
		Epoch: parts.Epoch,
		G:     parts.G,
		gperm: parts.GPerm,
		Reach: ReachView{
			Gr:         parts.ReachGr,
			Compressed: reach.AssembleCompressed(parts.ReachGr.Thaw(), parts.ReachClassOf, parts.ReachMembers, parts.ReachCyclic),
			Index:      parts.ReachIndex,
		},
		Pattern: PatternView{
			Gr:         parts.PatternGr,
			Compressed: bisim.AssembleCompressed(parts.PatternGr.Thaw(), parts.PatternBlockOf, parts.PatternMembers),
		},
	}
	s := &Store{
		opts: o,
		dur:  d,
		reqs: make(chan applyReq),
		idle: make(chan struct{}),
		ob:   newStoreObs(o.Obs),
	}
	n := sn.G.NumNodes()
	s.scratch.New = func() any { return queries.NewScratch(n) }
	if s.ob != nil {
		sn.leafHist = s.ob.leaf
		sn.so = s.ob
	}
	s.snap.Store(sn)
	s.batches.Store(sn.Epoch)

	if err := d.openLog(parts.Epoch + 1); err != nil {
		return nil, err
	}
	tail, updates, err := d.replayTail(parts.Epoch, n)
	if err != nil {
		d.close()
		return nil, err
	}
	if len(tail) > 0 {
		// The tail exists only when the last run crashed or closed between
		// checkpoints. The maintainers are built from scratch either way,
		// so the tail is folded into the graph first and the final graph is
		// compressed once — maintained state is a function of the graph
		// alone, so the answers equal the uninterrupted run's.
		gm := sn.G.Thaw()
		for _, batch := range tail {
			gm.Apply(batch)
		}
		s.setMaintainers(gm)
		s.batches.Store(sn.Epoch + uint64(len(tail)))
		s.updates.Store(updates)
		s.publish(sn.Epoch + uint64(len(tail)))
	}
	d.startBackground(s.persistSnapshot)
	s.sched = s.newSched()
	s.bindStoreObs()
	go s.run()
	return s, nil
}

// ApplyBatch submits one batch ΔG and blocks until the snapshot containing
// it is published; the store then equals G ⊕ ΔG for every reader, and — on
// a durable store — the batch is on stable storage per the Sync policy.
// Batches from concurrent callers are applied in arrival order. It returns
// ErrClosed after Close. On a durable store whose write path is degraded
// by a persistent storage fault it fails fast with the degradation reason
// — no state changes, nothing is acknowledged — until background recovery
// re-arms the path (see Health).
func (s *Store) ApplyBatch(batch []graph.Update) (ApplyResult, error) {
	req := applyReq{batch: batch, res: make(chan applyOutcome, 1)}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ApplyResult{}, ErrClosed
	}
	s.reqs <- req
	s.mu.RUnlock()
	out := <-req.res
	return out.res, out.err
}

// Close stops the writer goroutine after the queue drains, stops the
// recovery and scrub loops, waits for any in-flight background checkpoint,
// and closes the WAL. Queries remain answerable on the final snapshot;
// further ApplyBatch calls fail. Close does not checkpoint: a reopen
// replays the WAL tail instead (call Checkpoint first to make the next
// start a pure snapshot load). It returns a background checkpoint failure
// still outstanding at close, so a caller that never checked Health sees
// the directory ended behind where it should be.
func (s *Store) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.reqs)
	}
	s.mu.Unlock()
	<-s.idle
	if s.sched != nil {
		s.sched.close()
	}
	if s.dur != nil {
		return s.dur.close()
	}
	return nil
}

// Snapshot returns the current epoch's immutable query state. Use it to pin
// a sequence of queries to one consistent epoch.
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// SchedReachable answers QR(u,v) through the multi-wave scheduler:
// concurrent callers' queries coalesce into shared 64-lane waves sized by
// the adaptive controller, so a loaded serving tier pays one lane sweep
// per wave instead of one BFS per query. Answers are identical to
// Reachable; after Close it falls back to the scalar path on the final
// snapshot.
func (s *Store) SchedReachable(u, v graph.Node) bool {
	s.reads.Add(1)
	if s.sched != nil {
		if ans, ok := s.sched.query(u, v); ok {
			return ans
		}
	}
	sc := s.getScratch()
	ok := s.Snapshot().Reachable(sc, u, v)
	s.scratch.Put(sc)
	return ok
}

// SetSchedWorkers resizes the scheduler's worker pool; n <= 0 means
// GOMAXPROCS.
func (s *Store) SetSchedWorkers(n int) { s.sched.setWorkers(n) }

// SchedStats reports the multi-wave scheduler and the batch read path's
// hybrid-leaf counters (retired epochs' counts plus the live snapshot's).
func (s *Store) SchedStats() SchedStats {
	st := s.sched.stats()
	sn := s.Snapshot()
	st.BatchLanes = s.batchLanes.Load() + sn.bstats.lanes.Load()
	st.Hop2Peeled = s.hop2Peeled.Load() + sn.bstats.hop2Peeled.Load()
	st.HubCacheLanes = s.hubLanes.Load() + sn.bstats.hubLanes.Load()
	st.HubCachePrunes = s.hubPrunes.Load() + sn.bstats.hubPrunes.Load()
	if st.BatchLanes > 0 {
		st.HubCacheHitRate = float64(st.HubCacheLanes) / float64(st.BatchLanes)
	}
	return st
}

// getScratch pools traversal scratch across readers; with steady traffic
// every goroutine reuses a warm scratch and point queries allocate nothing.
func (s *Store) getScratch() *queries.Scratch { return s.scratch.Get().(*queries.Scratch) }

// Reachable answers QR(u,v) on the current snapshot's compressed graph.
// Safe for any number of concurrent callers, also during ApplyBatch.
func (s *Store) Reachable(u, v graph.Node) bool {
	s.reads.Add(1)
	sc := s.getScratch()
	ok := s.Snapshot().Reachable(sc, u, v)
	s.scratch.Put(sc)
	return ok
}

// ReachableHop2 answers QR(u,v) preferring the snapshot's 2-hop index and
// falling back cleanly to the bidirectional BFS over Gr when the store was
// opened with Options.Indexes false — it never panics.
func (s *Store) ReachableHop2(u, v graph.Node) bool {
	s.reads.Add(1)
	sn := s.Snapshot()
	if got, ok := sn.ReachableHop2OK(u, v); ok {
		return got
	}
	sc := s.getScratch()
	ok := sn.Reachable(sc, u, v)
	s.scratch.Put(sc)
	return ok
}

// ReachableOnG answers QR(u,v) on the current snapshot of the uncompressed
// graph — the baseline path.
func (s *Store) ReachableOnG(u, v graph.Node) bool {
	s.reads.Add(1)
	sc := s.getScratch()
	ok := s.Snapshot().ReachableOnG(sc, u, v)
	s.scratch.Put(sc)
	return ok
}

// Match answers the pattern query on the current snapshot via the
// compressed graph plus post-processing.
func (s *Store) Match(p *pattern.Pattern) *pattern.Result {
	s.reads.Add(1)
	return s.Snapshot().Match(p)
}

// MatchOnG answers the pattern query directly on the current snapshot of G.
func (s *Store) MatchOnG(p *pattern.Pattern) *pattern.Result {
	s.reads.Add(1)
	return s.Snapshot().MatchOnG(p)
}

// Stats summarizes the store at the current snapshot.
func (s *Store) Stats() Stats {
	sn := s.Snapshot()
	gSize := float64(sn.G.Size())
	return Stats{
		Epoch:          sn.Epoch,
		Batches:        s.batches.Load(),
		Updates:        s.updates.Load(),
		Reads:          s.reads.Load(),
		Nodes:          sn.G.NumNodes(),
		Edges:          sn.G.NumEdges(),
		ReachClasses:   sn.Reach.Gr.NumNodes(),
		ReachRatio:     float64(sn.Reach.Gr.Size()) / gSize,
		PatternClasses: sn.Pattern.Gr.NumNodes(),
		PatternRatio:   float64(sn.Pattern.Gr.Size()) / gSize,
	}
}

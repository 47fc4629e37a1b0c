// Package store composes compression, incremental maintenance and the CSR
// read path into one concurrent lifecycle: a Store owns the mutable
// write-side graph together with both incremental maintainers (incRCM for
// reachability, incPCM for patterns) and serves queries from immutable
// per-epoch snapshots while batches of edge updates land.
//
// The lifecycle — request queue, WAL group commit, epoch publication,
// checkpoints, recovery, health, terms — is the epoch engine in engine.go;
// this file is the Store: its snapshot type, its read methods, and the
// pipeline the engine drives (maintain.Pair + publish). The package also
// holds a second kind, ShardedStore (sharded.go), which embeds the same
// engine; nothing outside this package and the systems benchmark opens it.
//
// # Consistency model (snapshot per epoch, batch-atomic visibility)
//
// All writes funnel through a single writer goroutine. Each ApplyBatch call
// advances the epoch by one; after a group of batches is applied, the writer
// publishes a fresh Snapshot — frozen CSR forms of G, the reachability
// quotient Gr-reach and incPCM's bisimulation quotient Gr-pattern — by
// swapping one atomic pointer. The writer builds no 2-hop index: the first
// reader of a reach view that wants one builds it (ReachView.Index), and
// the pattern view has none. Consequences:
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
	// point: indexing Gr is cheap where indexing G is not). It is built —
	// work proportional to the (small) quotient — by the first batch read
	// of a reach view, whose 2-hop peel probes it, never by the writer or a
	// checkpoint. It decides on open and on recovery alike: a checkpoint
	// holds no index and no setting.
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
	// WALSegmentBytes is the WAL's segment rotation threshold. 0 means the
	// wal package default (4 MiB); smaller values seal segments sooner,
	// giving checkpoint truncation and the scrubber finer granularity.
	WALSegmentBytes int64
	// Obs, when non-nil, receives the store's metrics: apply/publish
	// latency histograms, epoch age, scheduler wave latency and occupancy,
	// batch read-path leaf counters, WAL fsync latency and group-commit
	// sizes, and the self-healing layer's health state. Nil (the default)
	// disables all instrumentation at zero hot-path cost.
	Obs *obs.Registry
}

// DefaultOptions returns the standard configuration: 2-hop indexes on,
// in-memory (no Dir), SyncAlways once a Dir is set.
func DefaultOptions() Options { return Options{Indexes: true} }

// ReachView is the reachability-compressed face of one snapshot.
type ReachView struct {
	// Gr is the frozen reachability quotient R(G).
	Gr *graph.CSR
	// Compressed carries the node mapping R (Rewrite/ClassOf) and the
	// classes' cyclic flags for this epoch.
	Compressed *reach.Compressed
	// hop holds the 2-hop labeling over Gr, nil unless Options.Indexes.
	hop *hopCell
}

// Index returns the 2-hop reachability labeling over Gr, nil unless
// Options.Indexes. The writer does not build it, nor does a checkpoint:
// the first caller on a view does (the batch read path's peel), later ones
// and every epoch that carries the view over find it built. Safe for
// concurrent use.
func (rv ReachView) Index() *hop2.Index {
	if rv.hop == nil {
		return nil
	}
	return rv.hop.get(rv.Gr)
}

// PatternView is the pattern-compressed face of one snapshot: the view
// incPCM publishes (incbisim.View), or one a follower patched the same way.
type PatternView = incbisim.View

// Snapshot is the immutable query state of one epoch. All fields are safe
// for concurrent use by any number of goroutines; a Snapshot never changes
// after publication.
type Snapshot struct {
	// Epoch counts applied batches: a snapshot with Epoch = k reflects
	// exactly the first k batches accepted by the store.
	Epoch uint64
	// Lineage names the layout of the two views: drawn at random when a
	// store builds its maintainers (open, materialize, promotion) or loads a
	// checkpoint, kept by every patch and by a follower that applies this
	// layout's effects. Two snapshots with the same (Lineage, Epoch)
	// hold the same views array for array (effect.go).
	Lineage uint64
	// G is the frozen original graph at this epoch, in public node ids.
	G *graph.CSR

	// gord caches the locality-reordered view of G, materialized on first
	// use (GOrd).
	gord atomic.Pointer[graph.Reordered]

	// Batch read-path state. swept and the hub cache are epoch-local by
	// construction: a fresh snapshot starts with no lanes swept and no hub
	// cache, so a cached hub reach-set never outlives its epoch (see
	// hubcache.go). bstats is the store's lifetime counters. All of it is
	// metadata only — no query-visible state ever changes after publication.
	bstats  *batchCounters
	swept   atomic.Uint64 // lanes this snapshot has swept, counted up to the hub-cache gate
	hubOnce sync.Once
	hub     atomic.Pointer[hubCache]
	// leafHist, when non-nil, times each wave's leaf-engine work
	// (qpgc_query_stage_seconds{stage="leaf"}); copied from the store's
	// instruments at publish so BatchReachable pays only a nil check when
	// metrics are off. so shares the sampling clock: only 1 in
	// obsSampleWaves waves pays the clock reads.
	leafHist *obs.Histogram
	so       *storeObs
	// view is this snapshot pinned for Store.View, made once at install so
	// a pinned read allocates nothing.
	view View
	// Reach is the reachability-compressed read path.
	Reach ReachView
	// Pattern is the pattern-compressed read path.
	Pattern PatternView
}

// GOrd returns the locality-reordered view of G: an isomorphic CSR whose
// layout follows a BFS-from-hubs permutation, plus the old↔new id maps.
// ReachableOnG, the uncompressed traversal path, rewrites its endpoints
// through it once per query; the maps never appear in the traversal hot
// loop. The view is materialized lazily on first use — the compressed hot
// path never needs it, so neither the writer nor a checkpoint pays the
// O(|G| log |G|) reorder — and is safe for concurrent callers (a race
// computes it at most twice, identically). See internal/graph/reorder.go.
func (sn *Snapshot) GOrd() *graph.Reordered {
	if ro := sn.gord.Load(); ro != nil {
		return ro
	}
	sn.gord.CompareAndSwap(nil, graph.Reorder(sn.G))
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

// Match computes the maximum match of p on the compressed graph and expands
// it back to G via the post-processing function P.
func (sn *Snapshot) Match(p *pattern.Pattern) *pattern.Result {
	return pattern.Expand(pattern.MatchCSR(sn.Pattern.Gr, p), sn.Pattern.Compressed)
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

// Store is a concurrent compressed-graph store: one writer, any number of
// readers. See the package documentation for the consistency model. The
// lifecycle methods (ApplyBatch, Checkpoint, Health, the term surface,
// Close, ...) are the embedded engine's.
type Store struct {
	engine[ApplyResult]

	// m owns the authoritative write-side state: the graph and both
	// incremental maintainers over it. It is nil in a store recovered from
	// a snapshot until the first write forces materialize — the lazy path
	// that makes a warm restart O(read) instead of O(recompress).
	// reachGen is the reach maintainer's generation the current snapshot's
	// reach view was built at (noGen when it came from a file); the pattern
	// maintainer tells by itself whether its view moved. full makes the next
	// publish build every view from scratch and draw a new lineage — set
	// whenever m is new, so nothing of the previous snapshot describes it,
	// and only then. Only the writer
	// goroutine (or Open, before it starts) touches these.
	m        *maintain.Pair
	reachGen uint64
	full     bool
	// ring holds the effects of the latest groups for the followers tailing
	// this store, es is the scratch of applying shipped ones (effect.go).
	// group holds the batches of the group being applied while the ring
	// records, for its effect; writer goroutine only.
	ring  effectRing
	es    incbisim.Patcher
	group [][]graph.Update

	snap     atomic.Pointer[Snapshot]
	scratch  sync.Pool // *queries.Scratch
	bscratch sync.Pool // *queries.BatchScratch
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
	reopen, err := openMode("Open", g, o.FS, o.Dir)
	if err != nil {
		return nil, err
	}
	return start(o, func(s *Store) error {
		if reopen {
			return s.reopen(s.load)
		}
		s.nodes = g.NumNodes()
		s.setMaintainers(g)
		s.advance(0)
		return s.create()
	})
}

// start runs open on a new store under o — Open's or OpenImage's way of
// giving it a snapshot — and binds its metrics; a store whose open fails is
// closed.
func start(o Options, open func(s *Store) error) (*Store, error) {
	s := &Store{}
	s.init(s, snapfile.KindStore, o)
	// nodes is read when a reader first needs a scratch, long after open
	// fixed it; the closure must not touch the writer-owned graph.
	s.scratch.New = func() any { return queries.NewScratch(s.nodes) }
	if err := open(s); err != nil {
		s.Close()
		return nil, err
	}
	s.bindObs()
	o.Obs.GaugeFunc("qpgc_store_effect_ring_bytes", func() float64 { return float64(s.ring.bytes.Load()) })
	return s, nil
}

// noGen is a maintainer generation no maintainer reports: views tagged with
// it are always rebuilt by the next publish.
const noGen = ^uint64(0)

// setMaintainers takes ownership of g and compresses it under both schemes
// as the store's write-side state.
func (s *Store) setMaintainers(g *graph.Graph) {
	s.m = maintain.New(g)
	s.reachGen, s.full = noGen, true
	if s.ob != nil {
		s.m.Meter = &s.ob.meter
		s.ob.meter.PatternLevels.Set(int64(s.m.Pattern.Levels()))
	}
}

// materialize builds the incremental maintainers of a store recovered from
// a snapshot, over its graph, with tail folded in: the first write pays
// the one-time compression cost that the warm restart skipped.
func (s *Store) materialize(tail [][]graph.Update) {
	if s.m == nil {
		s.build(s.Snapshot().G, tail)
	}
}

// build makes the maintainers over c — thawed, in O(1) — with tail folded
// in.
func (s *Store) build(c *graph.CSR, tail [][]graph.Update) {
	g := c.Thaw()
	for _, batch := range tail {
		g.Apply(batch)
	}
	s.setMaintainers(g)
}

func (s *Store) apply(epoch uint64, batch []graph.Update) ApplyResult {
	res := ApplyResult{Epoch: epoch}
	res.Reach, res.Pattern = s.m.Apply(batch)
	if s.ring.on.Load() {
		s.group = append(s.group, batch)
	}
	return res
}

func (s *Store) stop() {}

// publish builds epoch's snapshot and swaps it in: G frozen off the
// maintained graph, and the views from the maintainers alone when they are
// new (open, materialize), otherwise from the previous snapshot patched by
// what the group changed (publish.go). New maintainers draw a new lineage;
// otherwise, while somebody tails the store, the group's effect goes to the
// ring (effect.go). Called from Open and then only from the writer
// goroutine.
func (s *Store) publish(epoch uint64) {
	clk := s.ob.startPublish()
	old := s.snap.Load()
	sn := &Snapshot{Epoch: epoch}
	reachMoved := false

	sn.G = s.m.Graph().Freeze()
	if old != nil && sn.G == old.G { // nothing effective: the same G, and its reordered view if one was made
		sn.gord.Store(old.gord.Load())
	}
	clk.lap(pubFreeze)

	// A view is rebuilt only when its maintainer's compression moved since
	// the previous snapshot; an epoch whose updates were all redundant for
	// a scheme carries that scheme's view — class index, Gr, 2-hop cell —
	// over untouched. When rebuilt, the view is incRCM's Gr as it stands,
	// topologically numbered by the quotient kernel, with one pass over V
	// for the class map; G's reordered traversal view is materialized
	// lazily by GOrd, off the write path.
	if gen := s.m.Reach.Generation(); gen == s.reachGen {
		sn.Reach = old.Reach
	} else {
		rc, rGr := s.m.Reach.View()
		sn.Reach = ReachView{Gr: rGr, Compressed: rc, hop: newHopCell(s.cfg.Indexes, s.ob)}
		s.reachGen, reachMoved = gen, true
	}
	clk.lap(pubReach)

	// The pattern view is incPCM's own: a new maintainer's first is a full
	// build, every later one is patched from its change log, which this
	// empties, or is the previous when nothing effective was absorbed.
	var diff *incbisim.Diff
	sn.Pattern, diff = s.m.Pattern.View()
	if diff.How == incbisim.Patched {
		s.ob.notePatched(len(diff.Rows.IDs))
	}
	clk.lap(pubPattern)

	if s.full {
		sn.Lineage = newLineage()
	} else {
		sn.Lineage = old.Lineage
	}
	// The effect goes to the ring before the swap: a tail round that finds
	// sn published finds its effect too, and does not take sn as a ring
	// miss. A group the ring started recording partway through is not
	// recorded: a follower it leaves unchained is sent an image.
	if !s.full && s.ring.on.Load() && uint64(len(s.group)) == epoch-old.Epoch {
		s.recordEffect(old, sn, s.group, reachMoved, diff)
	}
	s.install(sn)
	s.group, s.full = nil, false
	s.ob.noteHeap(s.m)
	clk.lap(pubSwap)
	s.ob.notePublish(clk.start)
}

// install makes sn the current snapshot.
func (s *Store) install(sn *Snapshot) {
	sn.bstats = &s.bstats
	if s.ob != nil {
		sn.leafHist = s.ob.leaf
		sn.so = s.ob
	}
	sn.view = View{s, sn}
	s.snap.Store(sn)
}

// image pins the current snapshot for a checkpoint.
func (s *Store) image() (uint64, func(path string) error) {
	sn := s.Snapshot()
	return sn.Epoch, func(path string) error { return snapfile.WriteStoreFS(s.dur.fs, path, storeParts(sn)) }
}

// storeParts projects a published snapshot onto the codec's flat form,
// building nothing. The snapshot is immutable, so this is safe off the
// writer goroutine.
func storeParts(sn *Snapshot) *snapfile.StoreParts {
	return &snapfile.StoreParts{
		Epoch:          sn.Epoch,
		G:              sn.G,
		ReachGr:        sn.Reach.Gr,
		ReachClassOf:   sn.Reach.Compressed.ClassMap(),
		ReachCyclic:    sn.Reach.Compressed.CyclicClass,
		PatternGr:      sn.Pattern.Gr,
		PatternBlockOf: sn.Pattern.Compressed.ClassMap(),
	}
}

// load decodes a checkpoint file as far as G — the monolithic half of
// recovery; the engine replays the WAL tail and hands it to the returned
// finish. With an empty tail, finish decodes the views and installs the
// snapshot the file holds. With a tail, the views the file holds would be
// thrown away, so finish decodes none: it builds the maintainers over G
// with the tail folded in, and the engine publishes their snapshot. A file
// records no lineage: a recovered store is a layout of its own, and a
// follower that restarts is sent an image.
func (s *Store) load(fsys faultfs.FS, path string) (uint64, func(tail [][]graph.Update) error, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	parts, views, err := snapfile.DecodeStoreGraph(data)
	if err != nil {
		return 0, nil, err
	}
	s.nodes = parts.G.NumNodes()
	return parts.Epoch, func(tail [][]graph.Update) error {
		if len(tail) > 0 {
			s.build(parts.G, tail)
			return nil
		}
		if err := views(); err != nil {
			return err
		}
		s.install(s.snapshotOf(parts, newLineage()))
		return nil
	}, nil
}

// snapshotOf reassembles the snapshot a checkpoint's parts hold, with views
// of the given lineage, slicing the parts' arrays: GOrd and the 2-hop index
// are built on first use, as on any snapshot.
func (s *Store) snapshotOf(parts *snapfile.StoreParts, lineage uint64) *Snapshot {
	return &Snapshot{
		Epoch:   parts.Epoch,
		Lineage: lineage,
		G:       parts.G,
		Reach: ReachView{
			Gr:         parts.ReachGr,
			Compressed: reach.AssembleCompressed(nil, parts.ReachClassOf, parts.ReachCyclic),
			hop:        newHopCell(s.cfg.Indexes, s.ob),
		},
		Pattern: PatternView{
			Gr:         parts.PatternGr,
			Compressed: bisim.AssembleCompressed(nil, parts.PatternBlockOf, parts.PatternMembers),
		},
	}
}

// Snapshot returns the current epoch's immutable query state. Use it to pin
// a sequence of queries to one consistent epoch.
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// getScratch pools traversal scratch across readers; with steady traffic
// every goroutine reuses a warm scratch and point queries allocate nothing.
func (s *Store) getScratch() *queries.Scratch { return s.scratch.Get().(*queries.Scratch) }

// Reachable answers QR(u,v) on the current snapshot's compressed graph.
// Safe for any number of concurrent callers, also during ApplyBatch.
func (s *Store) Reachable(u, v graph.Node) bool { return s.reachable(s.Snapshot(), u, v) }

func (s *Store) reachable(sn *Snapshot, u, v graph.Node) bool {
	s.reads.Add(1)
	sc := s.getScratch()
	ok := sn.Reachable(sc, u, v)
	s.scratch.Put(sc)
	return ok
}

// ReachableOnG answers QR(u,v) on the current snapshot of the uncompressed
// graph — the baseline path.
func (s *Store) ReachableOnG(u, v graph.Node) bool { return s.reachableOnG(s.Snapshot(), u, v) }

func (s *Store) reachableOnG(sn *Snapshot, u, v graph.Node) bool {
	s.reads.Add(1)
	sc := s.getScratch()
	ok := sn.ReachableOnG(sc, u, v)
	s.scratch.Put(sc)
	return ok
}

// Match answers the pattern query on the current snapshot via the
// compressed graph plus post-processing.
func (s *Store) Match(p *pattern.Pattern) *pattern.Result { return s.match(s.Snapshot(), p) }

func (s *Store) match(sn *Snapshot, p *pattern.Pattern) *pattern.Result {
	s.reads.Add(1)
	return sn.Match(p)
}

// View pins the current snapshot for reads that must report the epoch they
// were answered at.
func (s *Store) View() *View { return &s.Snapshot().view }

// View is one pinned snapshot read through its store's scratch pools: the
// epoch it reports is the epoch every answer it gives was computed at —
// exact, not a lower bound — which is what a server stamps on a response.
type View struct {
	s  *Store
	sn *Snapshot
}

// Epoch is the pinned snapshot's epoch.
func (v *View) Epoch() uint64 { return v.sn.Epoch }

// Reachable is Store.Reachable on the pinned snapshot.
func (v *View) Reachable(a, b graph.Node) bool { return v.s.reachable(v.sn, a, b) }

// ReachableOnG is Store.ReachableOnG on the pinned snapshot.
func (v *View) ReachableOnG(a, b graph.Node) bool { return v.s.reachableOnG(v.sn, a, b) }

// BatchReachable is Store.BatchReachable on the pinned snapshot.
func (v *View) BatchReachable(us, vs []graph.Node) []bool {
	return v.s.batchReachable(v.sn, us, vs)
}

// Match is Store.Match on the pinned snapshot.
func (v *View) Match(p *pattern.Pattern) *pattern.Result { return v.s.match(v.sn, p) }

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

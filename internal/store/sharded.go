// Sharded store: k partition-parallel compression pipelines behind one
// coordinator, with a frozen boundary summary graph for cross-shard
// reachability and a stitched bisimulation quotient for cross-shard
// pattern matching. This file is the sharded kind — its snapshot type, its
// read methods and the k-shard pipeline (routeBatch + roundTrip + publish)
// that the epoch engine in engine.go drives; the lifecycle and the
// consistency model are the engine's, exactly as for the unsharded Store.
//
// The kind is internal: no facade, server, replica or CLI path opens it,
// and a directory it wrote does not open as a Store. Only the systems
// benchmark's sharded workload and this package's tests use it.
//
// # Architecture (one writer per shard, routed from a coordinator)
//
// OpenSharded splits G into k shards with part.Split (SCC-aware, so local
// reachability structure never straddles shards) and starts one writer
// goroutine per shard, each owning that shard's incremental maintainers
// (a maintain.Pair over the shard's local subgraph). The engine's writer
// goroutine is the coordinator: it routes each update of an accepted batch
// to the shard owning both endpoints — or, for cross-shard edges, applies
// it to the coordinator-owned cross adjacency — fans the group's per-shard
// sub-batches out to the shard writers, and, once all writers acknowledge,
// assembles and publishes the epoch's ShardedSnapshot by one atomic pointer
// swap: a vector of per-shard snapshots plus the boundary summary and
// stitched quotient.
//
// # Query routing
//
// Reachable(u,v) runs local-lookup → summary-hop → local-lookup: a
// same-shard query first consults the shard's own compressed quotient (or
// its 2-hop index); any remaining possibility must cross shards, so the
// router collects the boundary nodes u reaches locally, the boundary nodes
// that reach v locally, and asks the frozen summary CSR whether the first
// set reaches the second. Match evaluates on the stitched quotient — a
// true bisimulation of G, so answers are exact — and expands the result
// back to G fanning out per shard (stitched blocks never span shards).
package store

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bisim"
	"repro/internal/faultfs"
	"repro/internal/graph"
	"repro/internal/increach"
	"repro/internal/obs"
	"repro/internal/part"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/reach"
	"repro/internal/snapfile"
)

// ShardedOptions configures a ShardedStore.
type ShardedOptions struct {
	// Shards is the partition count k (clamped to >= 1; 1 degenerates to a
	// single local pipeline with an empty summary). When recovering from a
	// durable directory the snapshot's own shard count wins — the
	// partition is static for the life of the store.
	Shards int
	// Indexes controls per-shard 2-hop indexes over the local reachability
	// quotients, used as the same-shard fast path. As in Options.Indexes, it
	// decides on open and on recovery alike.
	Indexes bool
	// Dir enables durability, as in Options.Dir: checkpoints of the full
	// epoch vector (per-shard views, boundary summary, stitched quotient)
	// plus a write-ahead log of the global update stream.
	Dir string
	// Sync is the WAL fsync policy (durable stores only).
	Sync SyncMode
	// CheckpointBatches and CheckpointBytes are the background checkpoint
	// thresholds, as in Options.
	CheckpointBatches int
	// CheckpointBytes is the WAL size trigger, as in Options.
	CheckpointBytes int64
	// FS is the filesystem the durable layer runs on, as in Options.FS.
	FS faultfs.FS
	// Obs, when non-nil, receives the store's metrics, as in Options.Obs;
	// the sharded store additionally exposes per-shard batch latency
	// (qpgc_shard_batch_seconds{shard="k"}), the input a self-tuning
	// rebalancer needs.
	Obs *obs.Registry
}

// durableCfg projects the kind-independent cut of the options — everything
// the engine and its durable layer read, that is all but Shards.
func (o ShardedOptions) durableCfg() Options {
	return Options{
		Indexes:           o.Indexes,
		Dir:               o.Dir,
		Sync:              o.Sync,
		CheckpointBatches: o.CheckpointBatches,
		CheckpointBytes:   o.CheckpointBytes,
		FS:                o.FS,
		Obs:               o.Obs,
	}
}

// DefaultShardedOptions returns the standard configuration: 4 shards,
// per-shard 2-hop indexes on, in-memory.
func DefaultShardedOptions() ShardedOptions { return ShardedOptions{Shards: 4, Indexes: true} }

// ShardView is one shard's slice of a ShardedSnapshot: the frozen local
// subgraph and its reachability-compressed read path.
type ShardView struct {
	// G is the frozen local subgraph (local node ids).
	G *graph.CSR
	// Reach is the shard's reachability-compressed read path (local ids).
	Reach ReachView
	// byClass maps a local reach class to the summary ids of the boundary
	// nodes it contains.
	byClass [][]graph.Node
}

// ShardedSnapshot is the immutable query state of one epoch of a
// ShardedStore: the per-shard snapshot vector, the boundary summary, and
// the stitched pattern quotient, all published together by one atomic
// swap. Safe for concurrent use by any number of goroutines.
type ShardedSnapshot struct {
	// Epoch counts accepted batches, as in Snapshot.
	Epoch uint64
	// Shards is the per-shard snapshot vector.
	Shards []ShardView
	// Summary is the epoch's frozen boundary summary.
	Summary *part.Summary
	// Stitched is the epoch's cross-shard pattern quotient.
	Stitched *part.Stitched

	p          *part.Partition
	crossOut   [][]graph.Node // per-epoch immutable cross-shard successors
	crossEdges int            // total length of crossOut's rows
	edges      int            // |E| of the composite G: every shard's local edges plus crossEdges

	// Batch read-path counters, as on Snapshot: the store's lifetime
	// counters and this snapshot's own swept-lane count; pure metadata.
	bstats *batchCounters
	swept  atomic.Uint64
	// hubs holds one lazy hub reach-set cache per shard quotient, gated and
	// invalidated exactly like Snapshot.hub (hubcache.go): a write publishes
	// a new snapshot with empty slots.
	hubs []hubSlot
	// leafHist/sumHist, when non-nil, time each wave's local leaf phase and
	// cross-shard summary hop (qpgc_query_stage_seconds); copied from the
	// store's instruments at publish. so shares the sampling clock: only 1
	// in obsSampleWaves waves pays the clock reads.
	leafHist *obs.Histogram
	sumHist  *obs.Histogram
	so       *storeObs
}

// RouteScratch is reusable traversal state for queries against a
// ShardedSnapshot: local BFS marks, summary BFS marks, target stamps and
// collection buffers. A RouteScratch is owned by one goroutine at a time;
// with a warm scratch, routed point queries allocate nothing.
type RouteScratch struct {
	local *queries.Scratch // local quotient traversals
	sum   *queries.Scratch // summary traversals

	tgt      []uint32 // target marks over summary ids
	tgtEpoch uint32

	gMark  []uint32 // composite-graph marks for ReachableOnG
	gEpoch uint32
	gQueue []graph.Node

	buf []graph.Node // source summary ids
	cls []graph.Node // reached local classes
}

// NewRouteScratch returns an empty scratch; all state grows on demand.
func NewRouteScratch() *RouteScratch {
	return &RouteScratch{local: queries.NewScratch(0), sum: queries.NewScratch(0)}
}

// beginTargets readies the target-mark array for nb summary nodes.
func (rs *RouteScratch) beginTargets(nb int) {
	if len(rs.tgt) < nb {
		rs.tgt = make([]uint32, nb)
		rs.tgtEpoch = 0
	}
	rs.tgtEpoch++
	if rs.tgtEpoch == 0 {
		clear(rs.tgt)
		rs.tgtEpoch = 1
	}
}

// beginG readies the composite-graph marks for n global nodes.
func (rs *RouteScratch) beginG(n int) {
	if len(rs.gMark) < n {
		rs.gMark = make([]uint32, n)
		rs.gEpoch = 0
	}
	rs.gEpoch++
	if rs.gEpoch == 0 {
		clear(rs.gMark)
		rs.gEpoch = 1
	}
}

// Reachable answers QR(u,v) on the sharded snapshot: same-shard pairs are
// answered by the shard's local quotient (or 2-hop index) first; anything
// else routes local-lookup → summary-hop → local-lookup. Exact for every
// pair, including cross-shard cycles.
func (sn *ShardedSnapshot) Reachable(rs *RouteScratch, u, v graph.Node) bool {
	p := sn.p
	su, sv := p.ShardOf[u], p.ShardOf[v]
	lu, lv := p.LocalID[u], p.LocalID[v]
	if su == sv {
		sh := &sn.Shards[su]
		cu, cv := sh.Reach.Compressed.Rewrite(lu, lv)
		if idx := sh.Reach.Index(); idx != nil {
			if idx.Reachable(cu, cv) {
				return true
			}
		} else if queries.ReachableBiCSR(sh.Reach.Gr, rs.local, cu, cv) {
			return true
		}
		// A fully local path does not exist; a path leaving and re-entering
		// the shard still might — fall through to the summary route.
	}
	if sn.Summary.NumBoundary() == 0 {
		return false
	}

	// Local lookup, forward: boundary nodes u reaches inside its shard
	// (u itself counts when it is a boundary node).
	shu := &sn.Shards[su]
	rs.cls = queries.DescendantsCSR(shu.Reach.Gr, rs.local, shu.Reach.Compressed.ClassOf(lu), rs.cls[:0])
	rs.buf = rs.buf[:0]
	for _, c := range rs.cls {
		rs.buf = append(rs.buf, shu.byClass[c]...)
	}
	if id := sn.Summary.SumID(u); id >= 0 {
		rs.buf = append(rs.buf, id)
	}
	if len(rs.buf) == 0 {
		return false
	}

	// Local lookup, backward: boundary nodes reaching v inside its shard.
	shv := &sn.Shards[sv]
	rs.cls = queries.AncestorsCSR(shv.Reach.Gr, rs.local, shv.Reach.Compressed.ClassOf(lv), rs.cls[:0])
	// Marks must cover every summary node: the BFS traverses class nodes
	// (ids >= NumBoundary) even though only boundary nodes are targets.
	rs.beginTargets(sn.Summary.S.NumNodes())
	targets := 0
	for _, c := range rs.cls {
		for _, id := range shv.byClass[c] {
			if rs.tgt[id] != rs.tgtEpoch {
				rs.tgt[id] = rs.tgtEpoch
				targets++
			}
		}
	}
	if id := sn.Summary.SumID(v); id >= 0 && rs.tgt[id] != rs.tgtEpoch {
		rs.tgt[id] = rs.tgtEpoch
		targets++
	}
	if targets == 0 {
		return false
	}

	// Summary hop: does some source boundary node reach some target
	// boundary node by a nonempty summary path?
	return queries.ReachableAnyCSR(sn.Summary.S, rs.sum, rs.buf, func(w graph.Node) bool {
		return rs.tgt[w] == rs.tgtEpoch
	})
}

// ReachableOnG answers QR(u,v) by BFS over the composite of the local
// subgraphs and the cross-shard adjacency — semantically the uncompressed
// G of this epoch. It is the sharded baseline/verification path.
func (sn *ShardedSnapshot) ReachableOnG(rs *RouteScratch, u, v graph.Node) bool {
	p := sn.p
	rs.beginG(len(p.ShardOf))
	epoch := rs.gEpoch
	queue := rs.gQueue[:0]
	found := false
	visit := func(w graph.Node) {
		if w == v {
			found = true
			return
		}
		if rs.gMark[w] != epoch {
			rs.gMark[w] = epoch
			queue = append(queue, w)
		}
	}
	expand := func(x graph.Node) {
		s := p.ShardOf[x]
		lx := p.LocalID[x]
		for _, lw := range sn.Shards[s].G.Successors(lx) {
			visit(p.Nodes[s][lw])
			if found {
				return
			}
		}
		for _, w := range sn.crossOut[x] {
			visit(w)
			if found {
				return
			}
		}
	}
	expand(u)
	for i := 0; i < len(queue) && !found; i++ {
		expand(queue[i])
	}
	rs.gQueue = queue
	return found
}

// Match computes the maximum match of pt on the stitched quotient and
// expands it back to G, fanning the expansion out per shard and merging
// the per-shard chunks (stitched blocks never span shards).
func (sn *ShardedSnapshot) Match(pt *pattern.Pattern) *pattern.Result {
	r := pattern.MatchCSR(sn.Stitched.Q, pt)
	if !r.OK {
		return r
	}
	k := sn.p.K
	np := len(r.Sets)
	chunks := make([][][]graph.Node, k) // shard -> pattern node -> members
	var wg sync.WaitGroup
	wg.Add(k)
	for s := 0; s < k; s++ {
		go func(s int) {
			defer wg.Done()
			mine := make([][]graph.Node, np)
			for u, classes := range r.Sets {
				for _, cls := range classes {
					if sn.Stitched.ShardOfBlock[cls] == int32(s) {
						mine[u] = append(mine[u], sn.Stitched.Members[cls]...)
					}
				}
			}
			chunks[s] = mine
		}(s)
	}
	wg.Wait()
	out := &pattern.Result{OK: true, Sets: make([][]graph.Node, np)}
	for u := 0; u < np; u++ {
		var set []graph.Node
		for s := 0; s < k; s++ {
			set = append(set, chunks[s][u]...)
		}
		sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
		out.Sets[u] = set
	}
	return out
}

// ShardedApplyResult reports one ShardedStore.ApplyBatch call.
type ShardedApplyResult struct {
	// Epoch is the epoch at which the batch became visible.
	Epoch uint64
	// LocalUpdates and CrossUpdates count how the batch's updates were
	// routed: to a single shard's pipeline vs. the cross-shard adjacency.
	LocalUpdates, CrossUpdates int
}

// ShardedStats is a point-in-time summary of a ShardedStore.
type ShardedStats struct {
	// Epoch, Batches, Updates and Reads count accepted work, as in Stats.
	Epoch, Batches, Updates, Reads uint64
	// Shards is the partition count k.
	Shards int
	// Nodes and Edges describe the composite G at the latest snapshot
	// (local edges of all shards plus cross-shard edges).
	Nodes, Edges int
	// CrossEdges counts the cut: the cross-shard edges.
	CrossEdges int
}

// shardCmd asks a shard writer to apply a local sub-batch (possibly empty)
// and refresh its epoch view.
type shardCmd struct {
	batch []graph.Update // local-id updates
	view  *shardEpochView
	wg    *sync.WaitGroup
}

// shardEpochView is one shard's contribution to a publish, filled in by
// the shard writer.
type shardEpochView struct {
	g     *graph.CSR
	reach ReachView
	part  *bisim.Partition
}

// shardWorker owns one shard's incremental maintainers; only its writer
// goroutine touches them.
type shardWorker struct {
	local   *graph.Graph // handed to run(), which builds the maintainers
	indexes bool         // reach views get a 2-hop cell
	reqs    chan *shardCmd
	done    chan struct{}
	hist    *obs.Histogram // per-shard batch latency; nil when metrics are off
	ob      *storeObs      // the store's stage histograms; nil when metrics are off
}

func (w *shardWorker) run() {
	defer close(w.done)
	m := w.ob.newPair(w.local)
	w.local = nil
	var cached shardEpochView
	for cmd := range w.reqs {
		if len(cmd.batch) > 0 || cached.g == nil {
			var start time.Time
			if w.hist != nil {
				start = time.Now()
			}
			if len(cmd.batch) > 0 {
				m.Apply(cmd.batch)
			}
			clk := w.ob.startPublish()
			// The shard's snapshot of its subgraph is its graph frozen, as on
			// the monolithic store.
			cached.g = m.Graph().Freeze()
			clk.lap(pubFreeze)
			// The reach view — and with it the shard's 2-hop cell — is
			// new only when the shard's compression moved. incRCM numbers
			// the quotient topologically in the class mapping itself, so
			// the routed read path and the boundary summary build see one
			// consistent id space.
			if rv, d := m.Reach.View(false); d.How != increach.Kept {
				cached.reach = newReachView(rv, w.indexes, w.ob)
			}
			clk.lap(pubReach)
			cached.part = m.Pattern.Partition()
			if w.hist != nil {
				w.hist.Observe(time.Since(start))
			}
		}
		*cmd.view = cached
		cmd.wg.Done()
	}
}

// ShardedStore is a concurrent compressed-graph store with k
// partition-parallel write pipelines: one coordinator, one writer per
// shard, any number of readers. See the file documentation for the
// architecture; the lifecycle methods are the embedded engine's, as on
// Store.
type ShardedStore struct {
	engine[ShardedApplyResult]

	shards int // the partition count k
	p      *part.Partition
	labels *graph.Labels

	// workers is nil in a store recovered from a snapshot until the first
	// write forces materialize (the lazy warm-restart path). Only the
	// coordinator goroutine (or OpenSharded, before it starts) touches it.
	workers []*shardWorker

	// Coordinator-owned evolving cross-shard state. Rows of crossOut are
	// copy-on-write: mutation writes a fresh slice, so published snapshots
	// can share rows safely.
	crossOut      [][]graph.Node
	crossInDeg    []int32
	crossEdges    int
	boundary      []graph.Node   // cached global boundary list
	shardBoundary [][]graph.Node // cached per-shard boundary lists
	boundaryDirty bool
	crossDirty    bool              // a crossOut row changed since the last install
	views         []*shardEpochView // latest per-shard views
	routed        [][]graph.Update  // per-shard sub-batches routed since the last round trip

	snap     atomic.Pointer[ShardedSnapshot]
	scratch  sync.Pool // *RouteScratch
	bscratch sync.Pool // *BatchRouteScratch
}

// OpenSharded returns a running ShardedStore with opts.Shards
// partition-parallel write pipelines; Close releases it.
//
// With no ShardedOptions.Dir it takes ownership of g (which must not be
// used afterwards), partitions it, builds every shard's compression
// pipeline concurrently, publishes the epoch-0 snapshot and starts the
// coordinator; it never fails. With a Dir naming a fresh directory it
// additionally writes the epoch-0 checkpoint and opens the write-ahead
// log. With a Dir holding previous state, g must be nil: the store
// recovers the whole epoch vector from the checkpoint, replays the WAL
// tail through the per-shard maintainers, and serves reads without
// recompressing anything.
func OpenSharded(g *graph.Graph, opts *ShardedOptions) (*ShardedStore, error) {
	o := DefaultShardedOptions()
	if opts != nil {
		o = *opts
	}
	return openSharded(g, max(o.Shards, 1), o.durableCfg())
}

// openSharded is OpenSharded over the projected options; k is ignored when
// the call recovers (the checkpoint's own shard count wins).
func openSharded(g *graph.Graph, k int, o Options) (*ShardedStore, error) {
	reopen, err := openMode("OpenSharded", g, o.FS, o.Dir)
	if err != nil {
		return nil, err
	}
	s := &ShardedStore{shards: k}
	s.init(s, snapfile.KindSharded, o)
	s.scratch.New = func() any { return NewRouteScratch() }
	if reopen {
		err = s.reopen(s.load)
	} else {
		s.build(g)
		err = s.create()
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	s.bindObs()
	return s, nil
}

// build partitions g, starts every shard's pipeline (each compresses its
// subgraph concurrently) and publishes the epoch-0 snapshot.
func (s *ShardedStore) build(g *graph.Graph) {
	c := g.Freeze()
	s.setPartition(part.Split(c, s.shards), c.Labels())
	s.boundaryDirty = true
	locals := make([]*graph.Graph, s.shards)
	for i := range locals {
		locals[i] = s.p.Subgraph(c, i)
	}
	s.startWorkers(locals)
	s.advance(0)
}

// setPartition adopts the static partition and sizes the coordinator's
// per-shard tables to it.
func (s *ShardedStore) setPartition(p *part.Partition, labels *graph.Labels) {
	s.p, s.labels, s.nodes, s.shards = p, labels, len(p.ShardOf), p.K
	s.crossOut, s.crossInDeg, s.crossEdges = p.CrossOut, p.CrossInDeg, p.CrossEdges
	s.views = make([]*shardEpochView, p.K)
	s.routed = make([][]graph.Update, p.K)
}

// roundTrip hands the routed per-shard sub-batches to the shard writers and
// waits for the touched writers to refresh their views. Shards with an
// empty sub-batch keep last epoch's view untouched and are not messaged at
// all (except when they have no view yet — at open and after materialize),
// so a batch naming few shards costs few coordinator-writer handoffs.
// Touched writers run concurrently; the coordinator blocks until the
// slowest finishes.
func (s *ShardedStore) roundTrip() {
	var wg sync.WaitGroup
	for i, w := range s.workers {
		if len(s.routed[i]) == 0 && s.views[i] != nil {
			continue
		}
		view := &shardEpochView{}
		s.views[i] = view
		wg.Add(1)
		w.reqs <- &shardCmd{batch: s.routed[i], view: view, wg: &wg}
		s.routed[i] = nil
	}
	wg.Wait()
}

// applyCross applies one cross-shard update to the coordinator's cross
// adjacency with copy-on-write rows. It returns whether the edge set
// changed and marks the boundary list dirty when a node's boundary
// membership flipped.
func (s *ShardedStore) applyCross(u, v graph.Node, insert bool) bool {
	row := s.crossOut[u]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	present := i < len(row) && row[i] == v
	if insert == present {
		return false
	}
	wasBoundaryU := len(row) > 0 || s.crossInDeg[u] > 0
	wasBoundaryV := len(s.crossOut[v]) > 0 || s.crossInDeg[v] > 0
	if insert {
		next := make([]graph.Node, len(row)+1)
		copy(next, row[:i])
		next[i] = v
		copy(next[i+1:], row[i:])
		s.crossOut[u] = next
		s.crossInDeg[v]++
		s.crossEdges++
	} else {
		next := make([]graph.Node, 0, len(row)-1)
		next = append(next, row[:i]...)
		next = append(next, row[i+1:]...)
		if len(next) == 0 {
			next = nil
		}
		s.crossOut[u] = next
		s.crossInDeg[v]--
		s.crossEdges--
	}
	s.crossDirty = true
	if isB := len(s.crossOut[u]) > 0 || s.crossInDeg[u] > 0; isB != wasBoundaryU {
		s.boundaryDirty = true
	}
	if isB := len(s.crossOut[v]) > 0 || s.crossInDeg[v] > 0; isB != wasBoundaryV {
		s.boundaryDirty = true
	}
	return true
}

// materialize builds the per-shard writers of a store recovered from a
// snapshot: tail is routed — per shard and cross-adjacency in the original
// run's order — local graphs are thawed from the loaded shard views with
// their share of it folded in, and the incremental maintainers are built
// once on the result, paying here the compression cost the warm restart
// skipped. Every view is dropped, so the next publish's round trip has each
// writer materialize its own.
func (s *ShardedStore) materialize(tail [][]graph.Update) {
	if s.workers != nil {
		return
	}
	var res ShardedApplyResult
	for _, batch := range tail {
		s.routeBatch(batch, &res)
	}
	sn := s.snap.Load()
	locals := make([]*graph.Graph, s.shards)
	for i := range locals {
		locals[i] = sn.Shards[i].G.Thaw()
		locals[i].Apply(s.routed[i])
		s.routed[i] = nil
	}
	s.startWorkers(locals)
	clear(s.views)
}

// startWorkers starts one writer per shard, each building its maintainers
// over locals[i] concurrently.
func (s *ShardedStore) startWorkers(locals []*graph.Graph) {
	s.workers = make([]*shardWorker, len(locals))
	for i, local := range locals {
		w := &shardWorker{
			local:   local,
			indexes: s.cfg.Indexes,
			reqs:    make(chan *shardCmd),
			done:    make(chan struct{}),
			hist:    shardBatchHist(s.cfg.Obs, i),
			ob:      s.ob,
		}
		s.workers[i] = w
		go w.run()
	}
}

// routeBatch splits one global batch into per-shard local sub-batches —
// queued on routed for the next round trip — and coordinator-applied
// cross-shard updates, counting both into res.
func (s *ShardedStore) routeBatch(batch []graph.Update, res *ShardedApplyResult) {
	for _, up := range batch {
		su, sv := s.p.ShardOf[up.From], s.p.ShardOf[up.To]
		if su == sv {
			s.routed[su] = append(s.routed[su], graph.Update{
				From:   s.p.LocalID[up.From],
				To:     s.p.LocalID[up.To],
				Insert: up.Insert,
			})
			res.LocalUpdates++
		} else {
			s.applyCross(up.From, up.To, up.Insert)
			res.CrossUpdates++
		}
	}
}

func (s *ShardedStore) apply(epoch uint64, batch []graph.Update) ShardedApplyResult {
	res := ShardedApplyResult{Epoch: epoch}
	s.routeBatch(batch, &res)
	return res
}

// stop ends the shard writers; the coordinator has exited.
func (s *ShardedStore) stop() {
	for _, w := range s.workers {
		close(w.reqs)
	}
	for _, w := range s.workers {
		<-w.done
	}
}

// image pins the current snapshot for a checkpoint.
func (s *ShardedStore) image() (uint64, func(path string) error) {
	sn := s.Snapshot()
	return sn.Epoch, func(path string) error { return snapfile.WriteShardedFS(s.dur.fs, path, shardedParts(s, sn)) }
}

// shardedParts projects a published sharded snapshot onto the codec's
// flat form, building nothing. Everything referenced is immutable, so this
// is safe off the coordinator goroutine.
func shardedParts(s *ShardedStore, sn *ShardedSnapshot) *snapfile.ShardedParts {
	p := &snapfile.ShardedParts{
		Epoch:     sn.Epoch,
		K:         sn.p.K,
		Labels:    s.labels,
		ShardOf:   sn.p.ShardOf,
		NodeLabel: sn.p.Label,
		CrossOut:  sn.crossOut,
		Shards:    make([]snapfile.ShardParts, sn.p.K),
		Summary:   sn.Summary,
		Stitched:  sn.Stitched,
	}
	for i := range sn.Shards {
		sv := &sn.Shards[i]
		p.Shards[i] = snapfile.ShardParts{
			G:            sv.G,
			ReachGr:      sv.Reach.Gr,
			ReachClassOf: sv.Reach.Compressed.ClassMap(),
			ReachCyclic:  sv.Reach.Compressed.CyclicClass,
		}
	}
	return p
}

// load rebuilds the static partition and the full epoch vector from a
// checkpoint file by slicing, and installs it — the sharded half of
// recovery; the engine replays the WAL tail, and the returned finish starts
// the shard writers over it with a tail folded in.
func (s *ShardedStore) load(fsys faultfs.FS, path string) (uint64, func(tail [][]graph.Update) error, error) {
	parts, err := snapfile.LoadShardedFS(fsys, path)
	if err != nil {
		return 0, nil, err
	}
	k := parts.K

	// The static partition: ShardOf and the label array are stored; the
	// dense local ids and per-shard node lists are re-derived exactly as
	// Split assigned them (ascending global id within each shard).
	n := len(parts.ShardOf)
	p := &part.Partition{
		K:          k,
		ShardOf:    parts.ShardOf,
		LocalID:    make([]int32, n),
		Nodes:      make([][]graph.Node, k),
		Label:      parts.NodeLabel,
		CrossOut:   parts.CrossOut,
		CrossInDeg: make([]int32, n),
	}
	for v := 0; v < n; v++ {
		sh := p.ShardOf[v]
		p.LocalID[v] = int32(len(p.Nodes[sh]))
		p.Nodes[sh] = append(p.Nodes[sh], graph.Node(v))
	}
	for v := 0; v < n; v++ {
		for _, w := range p.CrossOut[v] {
			p.CrossInDeg[w]++
			p.CrossEdges++
		}
	}

	s.setPartition(p, parts.Labels)
	s.setBoundary(parts.Summary.Boundary)

	// Reassemble the epoch vector, per-shard views first.
	shards := make([]ShardView, k)
	for i := 0; i < k; i++ {
		sp := &parts.Shards[i]
		rv := newReachView(increach.Assemble(sp.ReachGr, sp.ReachClassOf, sp.ReachCyclic), s.cfg.Indexes, s.ob)
		shards[i] = s.shardView(i, sp.G, rv, parts.Summary)
	}
	s.install(&ShardedSnapshot{
		Epoch:    parts.Epoch,
		Shards:   shards,
		Summary:  parts.Summary,
		Stitched: parts.Stitched,
	})
	return parts.Epoch, func(tail [][]graph.Update) error {
		if len(tail) > 0 {
			s.materialize(tail)
		}
		return nil
	}, nil
}

// publish completes the group's round trip, then assembles and swaps in
// the epoch's snapshot from the latest shard views and cross-shard state.
// Called from OpenSharded and then only from the coordinator goroutine.
func (s *ShardedStore) publish(epoch uint64) {
	s.roundTrip()
	clk := s.ob.startPublish()
	k := s.shards
	if s.boundaryDirty {
		s.setBoundary(part.BoundaryNodes(s.crossOut, s.crossInDeg))
		s.boundaryDirty = false
	}

	rcs := make([]*reach.Compressed, k)
	grs := make([]*graph.CSR, k)
	locals := make([]*graph.CSR, k)
	parts := make([]*bisim.Partition, k)
	for i, v := range s.views {
		rcs[i], grs[i], locals[i], parts[i] = v.reach.Compressed, v.reach.Gr, v.g, v.part
	}
	summary := part.BuildSummary(s.boundary, s.crossOut, s.shardBoundary, s.p.LocalID, rcs, grs)
	clk.lap(pubReach)
	stitched := part.BuildStitched(s.p, locals, parts, s.crossOut, s.labels)
	clk.lap(pubPattern)

	shards := make([]ShardView, k)
	for i, v := range s.views {
		shards[i] = s.shardView(i, v.g, v.reach, summary)
	}
	s.install(&ShardedSnapshot{Epoch: epoch, Shards: shards, Summary: summary, Stitched: stitched})
	clk.lap(pubSwap)
	s.ob.notePublish(clk.start)
}

// setBoundary caches the global boundary list and its per-shard split.
func (s *ShardedStore) setBoundary(boundary []graph.Node) {
	s.boundary = boundary
	s.shardBoundary = make([][]graph.Node, s.shards)
	for _, v := range boundary {
		sh := s.p.ShardOf[v]
		s.shardBoundary[sh] = append(s.shardBoundary[sh], v)
	}
}

// shardView assembles shard i's slice of a snapshot. Its class → summary-id
// map is rebuilt for every snapshot: it is cheap (O(classes + boundary)) and
// summary ids shift whenever the boundary set changes.
func (s *ShardedStore) shardView(i int, g *graph.CSR, rv ReachView, sum *part.Summary) ShardView {
	by := make([][]graph.Node, rv.Compressed.NumClasses())
	for _, b := range s.shardBoundary[i] {
		cls := rv.Compressed.ClassOf(s.p.LocalID[b])
		by[cls] = append(by[cls], sum.SumID(b))
	}
	return ShardView{G: g, Reach: rv, byClass: by}
}

// install completes sn from the coordinator's state — the partition, this
// epoch's cross-shard rows, empty hub slots — and makes it the current
// snapshot. Rows of crossOut are copy-on-write, so the |V|-long header is
// copied only for an epoch that changed one; otherwise the previous
// snapshot's is carried.
func (s *ShardedStore) install(sn *ShardedSnapshot) {
	sn.p = s.p
	if old := s.snap.Load(); old != nil && !s.crossDirty {
		sn.crossOut = old.crossOut
	} else {
		sn.crossOut = slices.Clone(s.crossOut)
		s.crossDirty = false
	}
	sn.crossEdges, sn.edges = s.crossEdges, s.crossEdges
	for i := range sn.Shards {
		sn.edges += sn.Shards[i].G.NumEdges()
	}
	sn.hubs = make([]hubSlot, s.shards)
	sn.bstats = &s.bstats
	if s.ob != nil {
		sn.leafHist = s.ob.leaf
		sn.sumHist = s.ob.summary
		sn.so = s.ob
	}
	s.snap.Store(sn)
}

// Snapshot returns the current epoch's immutable query state. Use it to
// pin a sequence of queries to one consistent epoch.
func (s *ShardedStore) Snapshot() *ShardedSnapshot { return s.snap.Load() }

// getScratch pools routing scratch across readers.
func (s *ShardedStore) getScratch() *RouteScratch { return s.scratch.Get().(*RouteScratch) }

// Reachable answers QR(u,v) on the current snapshot via the sharded read
// path. Safe for any number of concurrent callers, also during ApplyBatch.
func (s *ShardedStore) Reachable(u, v graph.Node) bool {
	s.reads.Add(1)
	rs := s.getScratch()
	ok := s.Snapshot().Reachable(rs, u, v)
	s.scratch.Put(rs)
	return ok
}

// Match answers the pattern query on the current snapshot via the stitched
// quotient with per-shard expansion.
func (s *ShardedStore) Match(p *pattern.Pattern) *pattern.Result {
	s.reads.Add(1)
	return s.Snapshot().Match(p)
}

// Stats summarizes the store at the current snapshot.
func (s *ShardedStore) Stats() ShardedStats {
	sn := s.Snapshot()
	return ShardedStats{
		Epoch:      sn.Epoch,
		Batches:    s.batches.Load(),
		Updates:    s.updates.Load(),
		Reads:      s.reads.Load(),
		Shards:     s.shards,
		Nodes:      s.nodes,
		Edges:      sn.edges,
		CrossEdges: sn.crossEdges,
	}
}

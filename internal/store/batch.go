// Batched (vectorized) read path for both stores: up to 64 reachability
// queries are answered by ONE lane-mask BFS (internal/queries/batch.go)
// instead of 64 traversals, and larger batches chunk into 64-lane waves
// that all run against a single pinned snapshot — one epoch for the whole
// batch, so a batch is never torn across concurrent writes.
//
// On the sharded store the batching goes one level further: instead of one
// summary-hop per query, a wave does one lane BFS per TOUCHED SHARD for the
// local collections (forward descendants of every source in that shard,
// backward ancestors of every target) and then a single lane BFS over the
// boundary summary graph carrying all still-unresolved lanes at once.
package store

import (
	"math/bits"
	"time"

	"repro/internal/graph"
	"repro/internal/hop2"
	"repro/internal/queries"
)

// BatchReachable answers QR(us[i], vs[i]) for every i on this snapshot's
// compressed graph, chunking into waves of queries.MaxBatch lanes. Answers
// are identical to len(us) scalar Reachable calls on the same snapshot.
//
// The topological numbering of the published quotient (increach's View) is
// what makes the wave cheap: after the O(1) rewrite through R, a query
// whose target class precedes its source class is false outright, a query
// within one class is the class's cyclic flag, and only the remaining
// lanes — sources strictly below targets in topological order — enter the
// one-pass lane sweep of queries.BatchReachableTopoHub.
//
// Two hybrid leaves thin the sweep further. With 2-hop indexes on, a lane
// whose label probe is cheaper than its share of the sweep
// (hop2.ProbeCost vs hop2.PeelBudget over this wave's width) peels off to
// a pure label intersection — on deep quotients, where cones are long and
// labels short, most lanes peel. And once the snapshot has swept enough
// lanes to amortize it, high-fanout quotient nodes get memoized
// reach-set rows (hubcache.go) that the sweep prunes whole subtrees
// against. Both leaves change costs only, never answers — the
// differential tests pin that.
func (sn *Snapshot) BatchReachable(bs *queries.BatchScratch, us, vs []graph.Node, out []bool) {
	checkBatchArgs(len(us), len(vs), len(out))
	rc := sn.Reach.Compressed
	gr := sn.Reach.Gr
	h2 := sn.Reach.Index()
	cyc := rc.CyclicClass
	noteLanes(sn.bstats, &sn.swept, len(us))
	var ru, rv [queries.MaxBatch]graph.Node
	var lidx [queries.MaxBatch]int
	var lout [queries.MaxBatch]bool
	var peeled, hubLanes, hubPrunes int
	for off := 0; off < len(us); off += queries.MaxBatch {
		end := min(off+queries.MaxBatch, len(us))
		budget := 0
		if h2 != nil {
			budget = hop2.PeelBudget(gr.NumNodes(), gr.NumEdges(), end-off)
		}
		nl := 0
		for i := off; i < end; i++ {
			cu, cv := rc.Rewrite(us[i], vs[i])
			if cv < cu {
				out[i] = false
				continue
			}
			if cu == cv {
				out[i] = cyc[cu]
				continue
			}
			if h2 != nil && h2.ProbeCost(cu, cv) <= budget {
				out[i] = h2.Reachable(cu, cv)
				peeled++
				continue
			}
			ru[nl], rv[nl] = cu, cv
			lidx[nl] = i
			nl++
		}
		if nl == 0 {
			continue
		}
		var leafStart time.Time
		timed := sn.leafHist != nil && sn.so.sampleWave()
		if timed {
			leafStart = time.Now()
		}
		hl, hp := queries.BatchReachableTopoHub(gr, bs, sn.hub.get(gr, sn.swept.Load()), ru[:nl], rv[:nl], lout[:nl])
		if timed {
			sn.leafHist.Observe(time.Since(leafStart))
		}
		hubLanes += hl
		hubPrunes += hp
		for j := 0; j < nl; j++ {
			out[lidx[j]] = lout[j]
		}
	}
	if peeled > 0 {
		sn.bstats.hop2Peeled.Add(uint64(peeled))
	}
	if hubLanes > 0 {
		sn.bstats.hubLanes.Add(uint64(hubLanes))
	}
	if hubPrunes > 0 {
		sn.bstats.hubPrunes.Add(uint64(hubPrunes))
	}
}

// BatchReachable answers the batch on the current snapshot, pinning one
// epoch for all queries. Safe for any number of concurrent callers, also
// during ApplyBatch. Batches wider than one 64-lane wave are clustered by
// quotient-id locality (64-aligned class buckets of the pinned quotient,
// source in the key's high half) and run as concurrent scheduler waves —
// keyed and swept against the single snapshot pinned here, so the batch is
// never torn across epochs.
func (s *Store) BatchReachable(us, vs []graph.Node) []bool {
	return s.batchReachable(s.Snapshot(), us, vs)
}

func (s *Store) batchReachable(sn *Snapshot, us, vs []graph.Node) []bool {
	checkBatchArgs(len(us), len(vs), len(us))
	s.reads.Add(uint64(len(us)))
	out := make([]bool, len(us))
	if len(us) > queries.MaxBatch {
		rc := sn.Reach.Compressed
		s.sched.runPinned(us, vs, out, (sn.Reach.Gr.NumNodes()+63)/64,
			func(u, v graph.Node) uint64 {
				cu, cv := rc.Rewrite(u, v)
				return (uint64(cu>>6)&0xFFFFF)<<20 | uint64(cv>>6)&0xFFFFF
			},
			func(wus, wvs []graph.Node, wout []bool) {
				bs := s.getBatchScratch()
				sn.BatchReachable(bs, wus, wvs, wout)
				s.bscratch.Put(bs)
			})
		return out
	}
	bs := s.getBatchScratch()
	sn.BatchReachable(bs, us, vs, out)
	s.bscratch.Put(bs)
	return out
}

// getBatchScratch pools lane-BFS scratch across readers.
func (s *Store) getBatchScratch() *queries.BatchScratch {
	if v := s.bscratch.Get(); v != nil {
		return v.(*queries.BatchScratch)
	}
	return queries.NewBatchScratch(0)
}

// checkBatchArgs validates the parallel-slice contract of the batch APIs.
func checkBatchArgs(nu, nv, nout int) {
	if nv != nu || nout < nu {
		panic("store: batch query us/vs/out length mismatch")
	}
}

// BatchRouteScratch is reusable traversal state for batched reads against
// a ShardedSnapshot: one lane-BFS scratch for the per-shard local
// collections and one for the summary hop. Owned by one goroutine at a
// time; all state grows on demand.
type BatchRouteScratch struct {
	local *queries.BatchScratch
	sum   *queries.BatchScratch
}

// NewBatchRouteScratch returns an empty scratch.
func NewBatchRouteScratch() *BatchRouteScratch {
	return &BatchRouteScratch{
		local: queries.NewBatchScratch(0),
		sum:   queries.NewBatchScratch(0),
	}
}

// BatchReachable answers QR(us[i], vs[i]) for every i on the sharded
// snapshot, identically to scalar Reachable, in 64-lane waves. Per wave,
// same-shard pairs are first answered by the shard's local read path (the
// 2-hop index when present, otherwise one local lane BFS per touched
// shard); every remaining lane is routed with one forward and one backward
// local lane BFS per touched shard and a SINGLE multi-lane hop over the
// boundary summary — batch size many summary traversals collapse into one.
func (sn *ShardedSnapshot) BatchReachable(brs *BatchRouteScratch, us, vs []graph.Node, out []bool) {
	checkBatchArgs(len(us), len(vs), len(out))
	for off := 0; off < len(us); off += queries.MaxBatch {
		end := min(off+queries.MaxBatch, len(us))
		sn.batchWave(brs, us[off:end], vs[off:end], out[off:end])
	}
}

// batchWave answers one wave of at most 64 queries.
func (sn *ShardedSnapshot) batchWave(brs *BatchRouteScratch, us, vs []graph.Node, out []bool) {
	p := sn.p
	k := len(us)
	nshards := len(sn.Shards)
	noteLanes(sn.bstats, &sn.swept, k)
	peeled := 0
	var stageStart time.Time
	timed := sn.leafHist != nil && sn.so.sampleWave()
	if timed {
		stageStart = time.Now()
	}
	var active uint64 // lanes not yet answered true locally

	// Phase A: same-shard fast path. Indexed shards answer per lane in
	// O(1)-ish; unindexed shards share one local lane BFS. A same-shard
	// miss stays active: a path leaving and re-entering the shard may
	// still exist.
	for i := 0; i < k; i++ {
		out[i] = false
		su, sv := p.ShardOf[us[i]], p.ShardOf[vs[i]]
		if su == sv {
			sh := &sn.Shards[su]
			cu, cv := sh.Reach.Compressed.Rewrite(p.LocalID[us[i]], p.LocalID[vs[i]])
			// Topo-order prefilter on the shard quotient: a same-class
			// pair is the class's cyclic flag; a backward pair cannot be
			// locally reachable (but may still route through the summary).
			if cu == cv {
				if sh.Reach.Compressed.CyclicClass[cu] {
					out[i] = true
					continue
				}
			} else if cu < cv {
				if idx := sh.Reach.Index(); idx != nil && idx.Reachable(cu, cv) {
					peeled++ // index-answered: the sharded hybrid leaf
					out[i] = true
					continue
				}
			}
		}
		active |= 1 << uint(i)
	}
	if peeled > 0 {
		sn.bstats.hop2Peeled.Add(uint64(peeled))
	}
	for s := 0; s < nshards; s++ {
		sh := &sn.Shards[s]
		if sh.Reach.hop != nil {
			continue // already answered above
		}
		var lanes uint64
		for i := 0; i < k; i++ {
			if active>>uint(i)&1 != 0 && p.ShardOf[us[i]] == int32(s) && p.ShardOf[vs[i]] == int32(s) {
				lanes |= 1 << uint(i)
			}
		}
		if lanes == 0 {
			continue
		}
		var ru, rv [queries.MaxBatch]graph.Node
		var idx [queries.MaxBatch]int
		var lout [queries.MaxBatch]bool
		nl := 0
		for i := 0; i < k; i++ {
			if lanes>>uint(i)&1 != 0 {
				ru[nl], rv[nl] = sh.Reach.Compressed.Rewrite(p.LocalID[us[i]], p.LocalID[vs[i]])
				idx[nl] = i
				nl++
			}
		}
		// The hub-pruned sweep, as on the unsharded path: each shard's
		// quotient lazily memoizes its high-fanout reach-sets once the
		// snapshot has swept enough lanes (hubSlot), and the sweep
		// answers cached-hub lanes O(1) and prunes subtrees at hub rows.
		hl, hp := queries.BatchReachableTopoHub(sh.Reach.Gr, brs.local, sn.hubs[s].get(sh.Reach.Gr, sn.swept.Load()), ru[:nl], rv[:nl], lout[:nl])
		if hl > 0 {
			sn.bstats.hubLanes.Add(uint64(hl))
		}
		if hp > 0 {
			sn.bstats.hubPrunes.Add(uint64(hp))
		}
		for j := 0; j < nl; j++ {
			if lout[j] {
				out[idx[j]] = true
				active &^= 1 << uint(idx[j])
			}
		}
	}
	if timed {
		now := time.Now()
		sn.leafHist.Observe(now.Sub(stageStart))
		stageStart = now
	}
	if active == 0 || sn.Summary.NumBoundary() == 0 {
		return
	}

	// Phases B+C seed one summary-wide lane BFS: forward local descendants
	// per source shard become summary sources, backward local ancestors
	// per target shard become summary targets, exactly mirroring the
	// scalar route's collection steps (a source/target that is itself a
	// boundary node joins its side directly).
	brs.sum.Begin(sn.Summary.S.NumNodes())
	for s := 0; s < nshards; s++ {
		sh := &sn.Shards[s]
		var lanes uint64
		for i := 0; i < k; i++ {
			if active>>uint(i)&1 != 0 && p.ShardOf[us[i]] == int32(s) {
				lanes |= 1 << uint(i)
			}
		}
		if lanes == 0 {
			continue
		}
		brs.local.Begin(sh.Reach.Gr.NumNodes())
		for i := 0; i < k; i++ {
			if lanes>>uint(i)&1 != 0 {
				brs.local.Seed(sh.Reach.Compressed.ClassOf(p.LocalID[us[i]]), 1<<uint(i))
			}
		}
		brs.local.RunForward(sh.Reach.Gr)
		for _, cls := range brs.local.Reached() {
			m := brs.local.Lanes(cls)
			for _, id := range sh.byClass[cls] {
				brs.sum.Seed(id, m)
			}
		}
	}
	for i := 0; i < k; i++ {
		if active>>uint(i)&1 != 0 {
			if id := sn.Summary.SumID(us[i]); id >= 0 {
				brs.sum.Seed(id, 1<<uint(i))
			}
		}
	}
	for s := 0; s < nshards; s++ {
		sh := &sn.Shards[s]
		var lanes uint64
		for i := 0; i < k; i++ {
			if active>>uint(i)&1 != 0 && p.ShardOf[vs[i]] == int32(s) {
				lanes |= 1 << uint(i)
			}
		}
		if lanes == 0 {
			continue
		}
		brs.local.Begin(sh.Reach.Gr.NumNodes())
		for i := 0; i < k; i++ {
			if lanes>>uint(i)&1 != 0 {
				brs.local.Seed(sh.Reach.Compressed.ClassOf(p.LocalID[vs[i]]), 1<<uint(i))
			}
		}
		brs.local.RunBackward(sh.Reach.Gr)
		for _, cls := range brs.local.Reached() {
			m := brs.local.Lanes(cls)
			for _, id := range sh.byClass[cls] {
				brs.sum.Target(id, m)
			}
		}
	}
	for i := 0; i < k; i++ {
		if active>>uint(i)&1 != 0 {
			if id := sn.Summary.SumID(vs[i]); id >= 0 {
				brs.sum.Target(id, 1<<uint(i))
			}
		}
	}

	// Phase D: one summary hop for every still-active lane.
	done := brs.sum.RunForward(sn.Summary.S)
	for m := done & active; m != 0; m &= m - 1 {
		out[bits.TrailingZeros64(m)] = true
	}
	if timed && sn.sumHist != nil {
		sn.sumHist.Observe(time.Since(stageStart))
	}
}

// BatchReachable answers the batch on the current snapshot via the sharded
// batched route, pinning one epoch for all queries. Safe for any number of
// concurrent callers, also during ApplyBatch. Batches wider than one wave
// run as concurrent scheduler waves against the single pinned snapshot,
// clustered by shard pair (source shard in the key's high half) so
// co-batched lanes touch few shards.
func (s *ShardedStore) BatchReachable(us, vs []graph.Node) []bool {
	sn := s.Snapshot()
	checkBatchArgs(len(us), len(vs), len(us))
	s.reads.Add(uint64(len(us)))
	out := make([]bool, len(us))
	if len(us) > queries.MaxBatch {
		shardOf := sn.p.ShardOf
		s.sched.runPinned(us, vs, out, len(sn.Shards),
			func(u, v graph.Node) uint64 {
				return (uint64(shardOf[u])&0xFFFFF)<<20 | uint64(shardOf[v])&0xFFFFF
			},
			func(wus, wvs []graph.Node, wout []bool) {
				brs := s.getBatchScratch()
				sn.BatchReachable(brs, wus, wvs, wout)
				s.bscratch.Put(brs)
			})
		return out
	}
	brs := s.getBatchScratch()
	sn.BatchReachable(brs, us, vs, out)
	s.bscratch.Put(brs)
	return out
}

// getBatchScratch pools batched-routing scratch across readers.
func (s *ShardedStore) getBatchScratch() *BatchRouteScratch {
	if v := s.bscratch.Get(); v != nil {
		return v.(*BatchRouteScratch)
	}
	return NewBatchRouteScratch()
}

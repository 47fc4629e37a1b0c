package queries

import (
	"math/bits"

	"repro/internal/graph"
)

// This file implements the vectorized batch read path: a word-parallel
// multi-source BFS that answers up to 64 reachability queries (or computes
// up to 64 descendant/ancestor sets) in a single traversal of a CSR
// snapshot. Every node carries a 64-bit lane mask — one bit per query — so
// frontier expansion does the bookkeeping of all queries in a handful of
// word operations per edge instead of one full traversal per query. The
// semantics of each lane are exactly those of the scalar functions
// (nonempty paths: a source reaches itself only via a cycle), which the
// differential tests in this package and in internal/store pin down.

// MaxBatch is the lane capacity of the batch engine: one bit of a 64-bit
// mask per query. Callers with larger batches chunk into waves of MaxBatch.
const MaxBatch = 64

// BatchScratch is reusable state for the lane-mask BFS. Like Scratch, its
// per-node arrays are epoch-stamped, so a warm BatchScratch makes repeated
// batches over one snapshot allocate nothing (result-slice growth aside).
// A BatchScratch is owned by one goroutine at a time.
//
// The zero-cost composition surface is Begin / Seed / Target / RunForward /
// RunBackward plus Reached and Lanes, which the sharded routing layer uses
// to batch its summary hop; BatchReachable and BatchReachableTopoHub are
// the packaged forms.
type BatchScratch struct {
	stamp   []uint32 // per node: epoch at which mask/pend became valid
	mask    []uint64 // lanes that reached the node by a nonempty path
	pend    []uint64 // lanes reached but not yet expanded from the node
	tstamp  []uint32 // per node: epoch at which tmask became valid
	tmask   []uint64 // lanes for which the node is a target
	epoch   uint32
	queue   []graph.Node
	touched []graph.Node // nodes with a nonzero mask this epoch
	seeded  uint64       // union of seeded lanes
	hasTgt  bool         // at least one Target call this epoch

	// Bidirectional state (BatchReachable only): backward masks mirror the
	// forward ones, smask marks lane sources the way tmask marks targets.
	bstamp []uint32
	bmask  []uint64
	bpend  []uint64
	sstamp []uint32
	smask  []uint64
	bqueue []graph.Node

	// words/bwords are the forward/backward pending bitmaps of the
	// topological sweep (BatchReachableTopoHub); the sweeps clear every bit
	// they set, so both are all-zero between waves and Begin never touches
	// them.
	words  []uint64
	bwords []uint64
	tids   []graph.Node // sorted target ids of the current topo wave
	sids   []graph.Node // sorted source ids of the current topo wave
}

// NewBatchScratch returns a BatchScratch pre-sized for an n-node graph.
// Scratches grow on demand, so sizing is an optimization, not a
// requirement.
func NewBatchScratch(n int) *BatchScratch {
	return &BatchScratch{
		stamp:  make([]uint32, n),
		mask:   make([]uint64, n),
		pend:   make([]uint64, n),
		tstamp: make([]uint32, n),
		tmask:  make([]uint64, n),
		bstamp: make([]uint32, n),
		bmask:  make([]uint64, n),
		bpend:  make([]uint64, n),
		sstamp: make([]uint32, n),
		smask:  make([]uint64, n),
		queue:  make([]graph.Node, 0, 64),
		bqueue: make([]graph.Node, 0, 64),
	}
}

// Begin readies the scratch for one batch over an n-node graph: it grows
// the arrays if needed, advances the epoch (zeroing only on wraparound),
// and clears the seed/target/queue state of the previous batch.
func (bs *BatchScratch) Begin(n int) {
	if len(bs.stamp) < n {
		bs.stamp = make([]uint32, n)
		bs.mask = make([]uint64, n)
		bs.pend = make([]uint64, n)
		bs.tstamp = make([]uint32, n)
		bs.tmask = make([]uint64, n)
		bs.bstamp = make([]uint32, n)
		bs.bmask = make([]uint64, n)
		bs.bpend = make([]uint64, n)
		bs.sstamp = make([]uint32, n)
		bs.smask = make([]uint64, n)
		bs.epoch = 0
	}
	bs.epoch++
	if bs.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(bs.stamp)
		clear(bs.tstamp)
		clear(bs.bstamp)
		clear(bs.sstamp)
		bs.epoch = 1
	}
	bs.queue = bs.queue[:0]
	bs.bqueue = bs.bqueue[:0]
	bs.touched = bs.touched[:0]
	bs.seeded = 0
	bs.hasTgt = false
}

// touch validates node v's mask/pend slots for the current epoch.
func (bs *BatchScratch) touch(v graph.Node) {
	if bs.stamp[v] != bs.epoch {
		bs.stamp[v] = bs.epoch
		bs.mask[v] = 0
		bs.pend[v] = 0
	}
}

// Seed registers v as a source for the given lanes: the next Run expands
// v's row under those lanes without marking v itself reached (nonempty-path
// semantics). Seeding the same node repeatedly accumulates lanes.
func (bs *BatchScratch) Seed(v graph.Node, lanes uint64) {
	if lanes == 0 {
		return
	}
	bs.touch(v)
	if bs.pend[v] == 0 {
		bs.queue = append(bs.queue, v)
	}
	bs.pend[v] |= lanes
	bs.seeded |= lanes
}

// Target registers v as the target of the given lanes: a lane is reported
// done by Run as soon as it reaches one of its targets, after which it
// stops propagating. Lanes without targets run to frontier exhaustion.
func (bs *BatchScratch) Target(v graph.Node, lanes uint64) {
	if lanes == 0 {
		return
	}
	if bs.tstamp[v] != bs.epoch {
		bs.tstamp[v] = bs.epoch
		bs.tmask[v] = 0
	}
	bs.tmask[v] |= lanes
	bs.hasTgt = true
}

// RunForward runs the seeded lane BFS over successor rows and returns the
// lanes that reached one of their targets.
func (bs *BatchScratch) RunForward(c *graph.CSR) uint64 { return bs.run(c, true) }

// RunBackward runs the seeded lane BFS over predecessor rows (ancestor
// direction) and returns the lanes that reached one of their targets.
func (bs *BatchScratch) RunBackward(c *graph.CSR) uint64 { return bs.run(c, false) }

// run is the lane-mask BFS core. Each queue entry is a node with pending
// lanes; expanding it ORs those lanes into every neighbor, re-queueing a
// neighbor only when it gains lanes it has not seen. A lane that hits one
// of its targets enters done and is masked out of all further expansion;
// when every seeded lane is done the traversal stops early.
func (bs *BatchScratch) run(c *graph.CSR, fwd bool) uint64 {
	epoch := bs.epoch
	var done uint64
	q := bs.queue
	for i := 0; i < len(q); i++ {
		x := q[i]
		m := bs.pend[x] &^ done
		bs.pend[x] = 0
		if m == 0 {
			continue
		}
		var row []graph.Node
		if fwd {
			row = c.Successors(x)
		} else {
			row = c.Predecessors(x)
		}
		for _, w := range row {
			if bs.stamp[w] != epoch {
				bs.stamp[w] = epoch
				bs.mask[w] = 0
				bs.pend[w] = 0
			}
			add := m &^ bs.mask[w]
			if add == 0 {
				continue
			}
			if bs.mask[w] == 0 {
				bs.touched = append(bs.touched, w)
			}
			bs.mask[w] |= add
			if bs.hasTgt && bs.tstamp[w] == epoch {
				if hit := add & bs.tmask[w]; hit != 0 {
					done |= hit
					if done == bs.seeded {
						bs.queue = q
						return done
					}
					add &^= done
					if add == 0 {
						continue
					}
					m &^= done
				}
			}
			if bs.pend[w] == 0 {
				q = append(q, w)
			}
			bs.pend[w] |= add
		}
	}
	bs.queue = q
	return done
}

// Reached returns the nodes reached by at least one lane during the last
// Run, in traversal order. The slice is valid until the next Begin.
func (bs *BatchScratch) Reached() []graph.Node { return bs.touched }

// Lanes returns the lane mask of v after a Run: bit i is set iff lane i
// reached v by a nonempty path. Note that lanes stop propagating once they
// hit a target, so masks are complete only for target-free lanes.
func (bs *BatchScratch) Lanes(v graph.Node) uint64 {
	if bs.stamp[v] != bs.epoch {
		return 0
	}
	return bs.mask[v]
}

// checkBatch validates a batch's lane count against MaxBatch.
func checkBatch(k int) {
	if k > MaxBatch {
		panic("queries: batch larger than MaxBatch lanes; chunk into waves of 64")
	}
}

// BatchReachable answers the reachability queries QR(us[i], vs[i]),
// i < len(us) <= MaxBatch, in one BIDIRECTIONAL lane-mask BFS over c,
// writing the answers to out[:len(us)]. Answers are identical to len(us)
// scalar ReachableBiCSR calls. Like the scalar BIBFS, each round expands
// the smaller of the two frontiers — a forward one carrying every lane's
// source cone and a backward one carrying every lane's target cone — and a
// lane finishes the moment its cones meet at any node (or an endpoint is
// hit directly); finished lanes are masked out of all further expansion.
// The traversal cost is shared word-parallel across all lanes.
func BatchReachable(c *graph.CSR, bs *BatchScratch, us, vs []graph.Node, out []bool) {
	k := len(us)
	checkBatch(k)
	if len(vs) != k || len(out) < k {
		panic("queries: BatchReachable: us/vs/out length mismatch")
	}
	n := c.NumNodes()
	bs.Begin(n)
	epoch := bs.epoch
	all := uint64(0)
	if k == 64 {
		all = ^uint64(0)
	} else {
		all = 1<<uint(k) - 1
	}
	// Mark sources (smask) and targets (tmask), and queue the seeds of both
	// directions; seeds carry pending lanes but are not marked reached, so
	// only nonempty paths count.
	for i := 0; i < k; i++ {
		lane := uint64(1) << uint(i)
		u, v := us[i], vs[i]
		if bs.sstamp[u] != epoch {
			bs.sstamp[u] = epoch
			bs.smask[u] = 0
		}
		bs.smask[u] |= lane
		if bs.tstamp[v] != epoch {
			bs.tstamp[v] = epoch
			bs.tmask[v] = 0
		}
		bs.tmask[v] |= lane
		bs.touch(u)
		if bs.pend[u] == 0 {
			bs.queue = append(bs.queue, u)
		}
		bs.pend[u] |= lane
		if bs.bstamp[v] != epoch {
			bs.bstamp[v] = epoch
			bs.bmask[v] = 0
			bs.bpend[v] = 0
		}
		if bs.bpend[v] == 0 {
			bs.bqueue = append(bs.bqueue, v)
		}
		bs.bpend[v] |= lane
	}

	var done uint64
	fq, bq := bs.queue, bs.bqueue
	fLo, bLo := 0, 0
	for done != all && (fLo < len(fq) || bLo < len(bq)) {
		if bLo >= len(bq) || (fLo < len(fq) && len(fq)-fLo <= len(bq)-bLo) {
			// Forward level: expand successor rows; a lane meets when it
			// newly marks a node its backward cone (or target) already
			// holds.
			hi := len(fq)
			for ; fLo < hi; fLo++ {
				x := fq[fLo]
				m := bs.pend[x] &^ done
				bs.pend[x] = 0
				if m == 0 {
					continue
				}
				for _, w := range c.Successors(x) {
					if bs.stamp[w] != epoch {
						bs.stamp[w] = epoch
						bs.mask[w] = 0
						bs.pend[w] = 0
					}
					add := m &^ bs.mask[w]
					if add == 0 {
						continue
					}
					bs.mask[w] |= add
					opp := uint64(0)
					if bs.tstamp[w] == epoch {
						opp |= bs.tmask[w]
					}
					if bs.bstamp[w] == epoch {
						opp |= bs.bmask[w]
					}
					if hit := add & opp; hit != 0 {
						done |= hit
						if done == all {
							bs.queue, bs.bqueue = fq, bq
							goto finish
						}
						add &^= done
						if add == 0 {
							continue
						}
						m &^= done
					}
					if bs.pend[w] == 0 {
						fq = append(fq, w)
					}
					bs.pend[w] |= add
				}
			}
		} else {
			// Backward level: expand predecessor rows; a lane meets when it
			// newly marks a node its forward cone (or source) already holds.
			hi := len(bq)
			for ; bLo < hi; bLo++ {
				x := bq[bLo]
				m := bs.bpend[x] &^ done
				bs.bpend[x] = 0
				if m == 0 {
					continue
				}
				for _, w := range c.Predecessors(x) {
					if bs.bstamp[w] != epoch {
						bs.bstamp[w] = epoch
						bs.bmask[w] = 0
						bs.bpend[w] = 0
					}
					add := m &^ bs.bmask[w]
					if add == 0 {
						continue
					}
					bs.bmask[w] |= add
					opp := uint64(0)
					if bs.sstamp[w] == epoch {
						opp |= bs.smask[w]
					}
					if bs.stamp[w] == epoch {
						opp |= bs.mask[w]
					}
					if hit := add & opp; hit != 0 {
						done |= hit
						if done == all {
							bs.queue, bs.bqueue = fq, bq
							goto finish
						}
						add &^= done
						if add == 0 {
							continue
						}
						m &^= done
					}
					if bs.bpend[w] == 0 {
						bq = append(bq, w)
					}
					bs.bpend[w] |= add
				}
			}
		}
	}
	bs.queue, bs.bqueue = fq, bq
finish:
	for i := 0; i < k; i++ {
		out[i] = done>>uint(i)&1 != 0
	}
}

// HubDesc supplies memoized descendant reach-sets for hub nodes of a
// topologically ordered CSR: Desc(v) returns the bitset words of the nodes
// reachable from v by a nonempty path (bit w of word w/64 set iff v
// reaches w), or nil when v has no cached row. Implementations must answer
// for the SAME snapshot the sweep traverses — a row from another epoch is
// a wrong answer, which is why the store keeps its cache on the snapshot
// itself (see internal/store: a cached reach-set never outlives its
// epoch).
type HubDesc interface {
	Desc(v graph.Node) []uint64
}

// BatchReachableTopoHub answers up to MaxBatch reachability queries on a
// TOPOLOGICALLY ORDERED CSR — every non-self-loop edge (u,v) has u < v, as
// produced by graph.ReorderTopoPerm; reachability quotients qualify, being
// DAGs with self-loops on cyclic classes. It interleaves two strictly
// in-order sweeps, node for node: a forward sweep draining a pending word
// bitmap in ascending id (computing every lane's descendant cone) and a
// backward sweep draining in descending id (computing ancestor cones). In
// topological order all arrivals at a node precede its own expansion, so
// each sweep expands every node EXACTLY once — no frontier queue, no
// re-expansion, a couple of word ORs per edge for all 64 lanes together.
// Whichever sweep drains first decides every remaining lane (lane i is
// true iff mask[vs[i]], resp. bmask[us[i]], carries it), so a wave costs
// about twice the CHEAPER cone side — the lane-parallel analogue of the
// scalar BIBFS advantage — and lanes whose cones meet mid-sweep finish
// immediately. Answers equal len(us) scalar ReachableBiCSR calls. The
// ordering precondition is NOT checked here (it would cost O(|E|));
// callers own it, tests pin it.
//
// A non-nil hub is a reach-set cache: a lane whose source has a cached row
// is answered O(1) at seed time, and when the forward sweep pops a cached
// node x it settles every lane whose target lies in desc(x) as true and
// expands x for NO lane at all — a lane whose target is outside desc(x)
// cannot meet below x (a meet w with w ∈ desc(x) ∩ anc(target) would put
// the target inside desc(x)), so the whole subtree is pruned soundly. On deep quotients this collapses the
// sweep at exactly the high-fanout nodes that make it expensive. It
// returns the lanes answered from rows and the prune events, for the
// scheduler's hit-rate accounting.
func BatchReachableTopoHub(c *graph.CSR, bs *BatchScratch, hub HubDesc, us, vs []graph.Node, out []bool) (hubLanes, hubPrunes int) {
	k := len(us)
	checkBatch(k)
	if len(vs) != k || len(out) < k {
		panic("queries: BatchReachableTopoHub: us/vs/out length mismatch")
	}
	if k == 0 {
		return
	}
	n := c.NumNodes()
	bs.Begin(n)
	epoch := bs.epoch
	bs.growBitmaps(n)
	fw, bw := bs.words, bs.bwords

	// O(1) prefilter, courtesy of the topological order: a nonempty path
	// strictly increases the node id (self-loops aside), so v < u is
	// immediately false and v == u reduces to a self-loop probe (cyclic
	// classes carry one). Only the surviving lanes seed the sweeps.
	// Tiny graphs (collapsed quotients: a giant SCC compresses to a few
	// classes) skip the whole bidirectional apparatus — the forward drain
	// finishes in a handful of pops and per-lane constants dominate.
	tiny := n <= topoTinyCutoff
	var live uint64
	fLo, fHi := n>>6, 0
	bLo, bHi := n>>6, 0
	for i := 0; i < k; i++ {
		u, v := us[i], vs[i]
		if v < u {
			out[i] = false
			continue
		}
		if v == u {
			out[i] = c.HasEdge(u, u)
			continue
		}
		if hub != nil {
			if row := hub.Desc(u); row != nil {
				out[i] = row[int(v)>>6]>>uint(v&63)&1 != 0
				hubLanes++
				continue
			}
		}
		lane := uint64(1) << uint(i)
		live |= lane
		bs.touch(u)
		bs.pend[u] |= lane
		wu := int(u) >> 6
		fw[wu] |= 1 << uint(u&63)
		if wu < fLo {
			fLo = wu
		}
		if wu > fHi {
			fHi = wu
		}
		if tiny {
			continue
		}
		if bs.sstamp[u] != epoch {
			bs.sstamp[u] = epoch
			bs.smask[u] = 0
		}
		bs.smask[u] |= lane
		if bs.tstamp[v] != epoch {
			bs.tstamp[v] = epoch
			bs.tmask[v] = 0
		}
		bs.tmask[v] |= lane
		if bs.bstamp[v] != epoch {
			bs.bstamp[v] = epoch
			bs.bmask[v] = 0
			bs.bpend[v] = 0
		}
		bs.bpend[v] |= lane
		wv := int(v) >> 6
		bw[wv] |= 1 << uint(v&63)
		if wv < bLo {
			bLo = wv
		}
		if wv > bHi {
			bHi = wv
		}
	}
	if live == 0 {
		return
	}
	if tiny {
		bs.drainForward(c, fLo, fHi)
		for i := 0; i < k; i++ {
			if live>>uint(i)&1 != 0 {
				v := vs[i]
				out[i] = bs.stamp[v] == epoch && bs.mask[v]>>uint(i)&1 != 0
			}
		}
		return
	}
	// Sorted target ids (ascending) and source ids (descending): as the
	// forward sweep's pop position passes a target id, that target's mask
	// is final and its lanes settle; mirror for the backward sweep passing
	// source ids. Lanes also settle on a cone meet. The wave stops as soon
	// as every live lane is settled, so its cost tracks the cheaper side
	// of the narrowest windows rather than full cones.
	tids := bs.tids[:0]
	sids := bs.sids[:0]
	for i := 0; i < k; i++ {
		if live>>uint(i)&1 != 0 {
			tids = append(tids, vs[i])
			sids = append(sids, us[i])
		}
	}
	insertionSort(tids)
	insertionSort(sids)
	bs.tids, bs.sids = tids, sids

	var settled, ans uint64
	fwi, bwi := fLo, bHi
	tptr := 0
	sptr := len(sids) - 1
	fDrained, bDrained := false, false
	// Cost-balanced alternation (the lane analogue of scalar BIBFS's
	// smaller-frontier rule): each iteration advances the sweep that has
	// consumed less work so far, measured in edges expanded, so the wave's
	// total cost tracks ~2x the CHEAPER cone side even when the other side
	// fans out through hubs.
	fCost, bCost := 0, 0
	for settled != live {
		if fCost > bCost {
			goto backward
		}
		// One forward step: pop the lowest pending node and expand its
		// successors (all ≥ it, so its lane set is final at pop time).
		for fwi <= fHi && fw[fwi] == 0 {
			fwi++
		}
		if fwi > fHi {
			fDrained = true
			break
		}
		{
			b := bits.TrailingZeros64(fw[fwi])
			fw[fwi] &^= 1 << uint(b)
			x := graph.Node(fwi<<6 + b)
			// Retire every target the sweep has passed: its reached-lane
			// set can no longer change.
			for tptr < len(tids) && tids[tptr] <= x {
				t := tids[tptr]
				tptr++
				lanes := bs.tmask[t] &^ settled
				if lanes != 0 {
					if bs.stamp[t] == epoch {
						ans |= lanes & bs.mask[t]
					}
					settled |= lanes
				}
			}
			if settled == live {
				break
			}
			m := (bs.pend[x] | bs.mask[x]) &^ settled
			bs.pend[x] = 0
			// Hub prune: a cached row decides x's whole subtree for every
			// lane that reached x. Every lane in m got here by a nonempty
			// path (seeded lanes at cached nodes were peeled at prefilter),
			// so target-in-row lanes settle true; the rest cannot meet below
			// x (see BatchReachableTopoHub) and are dropped from x's
			// expansion without settling — other paths may still decide
			// them. Either way x's successors are never walked.
			if m != 0 && hub != nil {
				if row := hub.Desc(x); row != nil {
					hubPrunes++
					var hit uint64
					for mm := m; mm != 0; mm &= mm - 1 {
						i := bits.TrailingZeros64(mm)
						v := vs[i]
						if row[int(v)>>6]>>uint(v&63)&1 != 0 {
							hit |= 1 << uint(i)
						}
					}
					ans |= hit
					settled |= hit
					m = 0
					fCost -= c.OutDegree(x) // pop charged below; row walk is O(lanes)
				}
			}
			fCost += 1 + c.OutDegree(x)
			if m != 0 {
				for _, y := range c.Successors(x) {
					if bs.stamp[y] != epoch {
						bs.stamp[y] = epoch
						bs.mask[y] = 0
						bs.pend[y] = 0
					}
					add := m &^ bs.mask[y]
					if add == 0 {
						continue
					}
					bs.mask[y] |= add
					// A lane meets when it marks a node its backward cone
					// already holds.
					if bs.bstamp[y] == epoch {
						if hit := add & bs.bmask[y]; hit != 0 {
							ans |= hit
							settled |= hit
							m &^= hit
							if m == 0 {
								break
							}
						}
					}
					if y > x { // self-loops resolved in place
						wy := int(y) >> 6
						fw[wy] |= 1 << uint(y&63)
						if wy > fHi {
							fHi = wy
						}
					}
				}
			}
		}
		if settled == live {
			break
		}
		continue

		// One backward step: pop the highest pending node and expand its
		// predecessors (all ≤ it); retire every source passed.
	backward:
		for bwi >= bLo && bw[bwi] == 0 {
			bwi--
		}
		if bwi < bLo {
			bDrained = true
			break
		}
		{
			b := 63 - bits.LeadingZeros64(bw[bwi])
			bw[bwi] &^= 1 << uint(b)
			x := graph.Node(bwi<<6 + b)
			for sptr >= 0 && sids[sptr] >= x {
				s := sids[sptr]
				sptr--
				lanes := bs.smask[s] &^ settled
				if lanes != 0 {
					if bs.bstamp[s] == epoch {
						ans |= lanes & bs.bmask[s]
					}
					settled |= lanes
				}
			}
			if settled == live {
				break
			}
			m := (bs.bpend[x] | bs.bmask[x]) &^ settled
			bs.bpend[x] = 0
			bCost += 1 + c.InDegree(x)
			if m != 0 {
				for _, y := range c.Predecessors(x) {
					if bs.bstamp[y] != epoch {
						bs.bstamp[y] = epoch
						bs.bmask[y] = 0
						bs.bpend[y] = 0
					}
					add := m &^ bs.bmask[y]
					if add == 0 {
						continue
					}
					bs.bmask[y] |= add
					if bs.stamp[y] == epoch {
						if hit := add & bs.mask[y]; hit != 0 {
							ans |= hit
							settled |= hit
							m &^= hit
							if m == 0 {
								break
							}
						}
					}
					if y < x { // self-loops resolved in place
						wy := int(y) >> 6
						bw[wy] |= 1 << uint(y&63)
						if wy < bLo {
							bLo = wy
						}
					}
				}
			}
		}
	}
	// A drained sweep settles every remaining lane: no further
	// propagation can happen, so each leftover target's (resp. source's)
	// current mask is its final answer.
	if fDrained {
		for ; tptr < len(tids); tptr++ {
			t := tids[tptr]
			lanes := bs.tmask[t] &^ settled
			if lanes != 0 {
				if bs.stamp[t] == epoch {
					ans |= lanes & bs.mask[t]
				}
				settled |= lanes
			}
		}
	} else if bDrained {
		for ; sptr >= 0; sptr-- {
			s := sids[sptr]
			lanes := bs.smask[s] &^ settled
			if lanes != 0 {
				if bs.bstamp[s] == epoch {
					ans |= lanes & bs.bmask[s]
				}
				settled |= lanes
			}
		}
	}
	// Leftover pending bits belong to this epoch only; clear the touched
	// windows so the next wave starts from empty bitmaps.
	for wi := fLo; wi <= fHi; wi++ {
		fw[wi] = 0
	}
	for wi := bLo; wi <= bHi; wi++ {
		bw[wi] = 0
	}
	for i := 0; i < k; i++ {
		if live>>uint(i)&1 != 0 {
			out[i] = ans>>uint(i)&1 != 0
		}
	}
	return hubLanes, hubPrunes
}

// topoTinyCutoff is the node count below which BatchReachableTopoHub runs the
// forward drain alone: the sweep finishes within a few bitmap words, so
// the bidirectional bookkeeping would cost more than it saves.
const topoTinyCutoff = 256

// drainForward runs the seeded forward sweep to exhaustion (no targets, no
// early exit): afterwards every node's mask holds exactly the lanes that
// reach it. The drain consumes every bit it set, leaving the bitmap empty.
func (bs *BatchScratch) drainForward(c *graph.CSR, fLo, fHi int) {
	epoch := bs.epoch
	fw := bs.words
	for wi := fLo; wi <= fHi; wi++ {
		for fw[wi] != 0 {
			b := bits.TrailingZeros64(fw[wi])
			fw[wi] &^= 1 << uint(b)
			x := graph.Node(wi<<6 + b)
			m := bs.pend[x] | bs.mask[x]
			bs.pend[x] = 0
			if m == 0 {
				continue
			}
			for _, y := range c.Successors(x) {
				if bs.stamp[y] != epoch {
					bs.stamp[y] = epoch
					bs.mask[y] = 0
					bs.pend[y] = 0
				}
				if m&^bs.mask[y] == 0 {
					continue
				}
				bs.mask[y] |= m
				if y > x { // self-loops resolved in place
					wy := int(y) >> 6
					fw[wy] |= 1 << uint(y&63)
					if wy > fHi {
						fHi = wy
					}
				}
			}
		}
	}
}

// insertionSort sorts a short id list (at most MaxBatch entries) in place;
// for these sizes it beats the generic sort's dispatch overhead.
func insertionSort(a []graph.Node) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && a[j] > x {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

// growBitmaps sizes the two pending bitmaps for n nodes; the sweeps clear
// every bit they set (or the finish pass does), so the bitmaps are
// all-zero between waves and Begin never touches them.
func (bs *BatchScratch) growBitmaps(n int) {
	need := (n + 63) / 64
	if len(bs.words) < need {
		bs.words = make([]uint64, need)
		bs.bwords = make([]uint64, need)
	}
}

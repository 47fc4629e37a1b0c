// Package incbisim implements incPCM, the incremental maintenance of graph
// pattern preserving compression under batch edge updates (Section 5.2 of
// the paper).
//
// The incremental problem is unbounded (Theorem 8): no algorithm's cost can
// be a function of |AFF| alone. Our maintainer follows the paper's design:
// rank-stratified processing (Lemma 9: bisimilar nodes share a rank and a
// node is only affected by updates of strictly lower rank), redundant
// update reduction (minDelta), and split/merge of blocks propagated in
// ascending rank order.
//
// # What a batch costs
//
// The graph and its SCC condensation are maintained by internal/dynscc
// and may be shared with increach (see Over). Ranks are a bottom-up DP
// over that condensation — work on the condensation, not a Tarjan pass
// over G — and only nodes whose rank changed move between the maintained
// stratum lists. A stratum is re-refined when it holds the source of an
// update, gained or lost a node, or has a successor whose block changed;
// refinement runs in bisim.StratumRefiner, dense and exact. Recomputed
// groups are matched against the previous partition: a group keeps the id
// of the old block it holds most of, so only nodes that change sides move,
// propagate dirt to their predecessors, and appear in the change log
// (Changes) a mirror of the partition patches itself by.
//
// What is not incremental: a dirty stratum is refined from its label
// seed, and ranks do not subdivide a cyclic graph (an NWF child does not
// raise its parent's rank, so a giant SCC and all its ancestors form one
// stratum). On such graphs an update inside that stratum re-refines most
// of G; the cost is the refiner's, a few linear rounds. Compressed
// projects the quotient from G once per generation, on demand.
//
// Property tests enforce that the maintained compression is identical (as
// a partition) to batch recompression after every batch.
package incbisim

import (
	"repro/internal/bisim"
	"repro/internal/dynscc"
	"repro/internal/graph"
)

// Stats reports the work done by one Apply call; AFF mirrors the paper's
// affected-area measure |ΔG| + |ΔGr|.
type Stats struct {
	// EffectiveUpdates counts updates surviving minDelta reduction.
	EffectiveUpdates int
	// DirtyNodes counts nodes whose block assignment was re-derived.
	DirtyNodes int
	// RecomputedStrata counts rank strata that were re-refined.
	RecomputedStrata int
	// ChangedBlocks counts blocks of the new partition that differ from
	// every old block (the ΔGr node part of AFF).
	ChangedBlocks int
}

// rankUnset marks a component slot whose rank was never computed; it is
// not a value RankDP produces.
const rankUnset = bisim.RankNegInf + 1

// Maintainer maintains the pattern preserving compression of an evolving
// graph across batches of edge updates.
type Maintainer struct {
	cond *dynscc.Cond

	blockOf []int32 // node -> block id; ids are sparse, recycled when a block empties
	size    []int32 // block id -> member count
	freeIDs []int32
	emptied []int32 // ids that emptied during the current sweep, recycled after it

	rank     []int32 // node -> rank
	compRank []int32 // component slot -> rank as of the last batch
	compWF   []bool
	newRank  []int32 // RankDP output buffers, swapped with the two above
	newWF    []bool
	order    []int32

	// strata[bisim.StratumIndex(r)] lists the nodes of rank r; spos is each
	// node's position in its list, for O(1) moves.
	strata [][]graph.Node
	spos   []int32
	dirty  []bool  // stratum index -> queued for refinement
	queue  []int32 // min-heap of dirty stratum indices

	ref    *bisim.StratumRefiner
	oldID  []int32 // group -> the old block most of its members come from
	occ    []int32 // group -> members that come from oldID
	count  []int32 // group -> size
	assign []int32 // group -> block id given by this refinement

	// The change log since ResetChanges: every block id that gained or lost
	// a member and every node that changed block, each listed once.
	logBlocks   []int32
	logNodes    []graph.Node
	blockLogged []bool // block id -> listed in logBlocks
	nodeLogged  []bool // node -> listed in logNodes

	gen   uint64
	part  *bisim.Partition  // canonical partition, nil when stale
	comp  *bisim.Compressed // nil when stale
	grCSR *graph.CSR        // frozen comp.Gr, nil when stale
}

// New takes ownership of g, computes the initial compression with the
// stratified engine, and returns the maintainer.
func New(g *graph.Graph) *Maintainer { return Over(dynscc.New(g)) }

// Over returns a maintainer of the graph behind cond that shares the
// condensation instead of owning one. Whoever applies a batch to cond
// passes the effective updates and the change log to Absorb; Apply does
// both and is for a maintainer that is cond's only driver.
func Over(cond *dynscc.Cond) *Maintainer {
	n := cond.Graph().NumNodes()
	m := &Maintainer{
		cond:    cond,
		blockOf: make([]int32, n),
		rank:    make([]int32, n),
		spos:    make([]int32, n),
		ref:     bisim.NewStratumRefiner(n),

		nodeLogged: make([]bool, n),
	}
	// The initial compression is the maintenance sweep with every stratum
	// dirty and no old blocks to match.
	m.rerank()
	for c := int32(0); c < int32(cond.NumSlots()); c++ {
		if cond.Live(c) {
			for _, v := range cond.Members(c) {
				m.blockOf[v] = -1
				m.rank[v] = m.compRank[c]
				m.enter(v)
			}
		}
	}
	var st Stats
	m.sweep(&st)
	return m
}

// Graph returns the maintained graph. Callers must not mutate it directly;
// use Apply.
func (m *Maintainer) Graph() *graph.Graph { return m.cond.Graph() }

// Generation counts the batches that held an effective update: two calls
// returning the same value bracket a span in which Compressed did not
// change.
func (m *Maintainer) Generation() uint64 { return m.gen }

// Compressed returns the current compressed form R(G). The quotient is
// projected once per generation, on demand.
func (m *Maintainer) Compressed() *bisim.Compressed {
	c, _ := m.CompressedCSR(nil)
	return c
}

// CompressedCSR returns the current compressed form together with a frozen
// CSR snapshot of its quotient graph, both cached per generation. base, if
// non-nil, must be a CSR snapshot of a graph identical in content to
// Graph()'s current state (the store's full-build publish passes the
// snapshot of G it just built, saving a second O(|G|) freeze; its other
// epochs patch their view from Changes instead of calling this); pass nil
// to have the maintainer freeze its own graph.
func (m *Maintainer) CompressedCSR(base *graph.CSR) (*bisim.Compressed, *graph.CSR) {
	if m.comp == nil {
		if base == nil {
			base = m.Graph().Freeze()
		}
		m.comp = bisim.QuotientCSR(base, m.Partition())
	}
	if m.grCSR == nil {
		m.grCSR = m.comp.Gr.Freeze()
	}
	return m.comp, m.grCSR
}

// Partition returns the maintained bisimulation partition, canonically
// renumbered so that it compares Same to a batch result; cached per
// generation.
func (m *Maintainer) Partition() *bisim.Partition {
	if m.part == nil {
		m.part = bisim.PartitionOf(m.blockOf)
	}
	return m.part
}

// BlockID returns the maintainer's own id of v's block. These ids are what
// makes a small change small downstream: a block no batch touched keeps
// its id, a block that grows, shrinks or splits keeps it on its larger
// side, and only the rest get fresh or recycled ones — sparse, unlike
// Partition's canonical numbering.
func (m *Maintainer) BlockID(v graph.Node) int32 { return m.blockOf[v] }

// BlockSize returns the member count of block id, 0 for an id not in use.
func (m *Maintainer) BlockSize(id int32) int { return int(m.size[id]) }

// NumBlockIDs returns the bound on block ids: every id in use is below it.
func (m *Maintainer) NumBlockIDs() int { return len(m.size) }

// Changes returns the change log since ResetChanges (or construction):
// the ids of the blocks that gained or lost a member — new, shrunk,
// emptied or recycled — and the nodes whose block id changed, each once
// and in no particular order. A consumer that mirrors the partition (the
// store's published pattern view) patches exactly these and resets the
// log; the slices are valid until the next Apply, Absorb or ResetChanges.
func (m *Maintainer) Changes() (blocks []int32, nodes []graph.Node) {
	return m.logBlocks, m.logNodes
}

// ResetChanges empties the change log.
func (m *Maintainer) ResetChanges() {
	for _, b := range m.logBlocks {
		m.blockLogged[b] = false
	}
	for _, v := range m.logNodes {
		m.nodeLogged[v] = false
	}
	m.logBlocks, m.logNodes = m.logBlocks[:0], m.logNodes[:0]
}

// logBlock lists block id in the change log.
func (m *Maintainer) logBlock(id int32) {
	for len(m.blockLogged) <= int(id) {
		m.blockLogged = append(m.blockLogged, false)
	}
	if !m.blockLogged[id] {
		m.blockLogged[id] = true
		m.logBlocks = append(m.logBlocks, id)
	}
}

// Apply applies ΔG and updates the maintained compression so that it
// equals R(G ⊕ ΔG).
func (m *Maintainer) Apply(batch []graph.Update) Stats {
	eff := m.Graph().Reduce(batch)
	return m.Absorb(eff, m.cond.Apply(eff))
}

// ApplySingly processes a batch one update at a time — the IncBsim
// baseline of Fig. 12(g), which invokes a single-update incremental
// bisimulation algorithm [30] repeatedly and therefore cannot exploit
// batch-level redundancy (no cross-update minDelta cancellation).
func (m *Maintainer) ApplySingly(batch []graph.Update) Stats {
	var total Stats
	for _, up := range batch {
		st := m.Apply([]graph.Update{up})
		total.EffectiveUpdates += st.EffectiveUpdates
		total.DirtyNodes += st.DirtyNodes
		total.RecomputedStrata += st.RecomputedStrata
		total.ChangedBlocks += st.ChangedBlocks
	}
	return total
}

// Absorb updates the compression after the condensation applied the
// effective updates eff with change log d.
func (m *Maintainer) Absorb(eff []graph.Update, d *dynscc.Delta) Stats {
	st := Stats{EffectiveUpdates: len(eff)}
	if len(eff) == 0 {
		return st
	}
	m.gen++
	m.part, m.comp, m.grCSR = nil, nil, nil

	// Re-rank over the condensation. A component whose rank changed moves
	// all its members; a node that changed component is checked on its
	// own. Both the stratum left and the one entered are dirty (the old
	// stratum may coarsen after losing a member).
	old := m.compRank
	m.rerank()
	for _, c := range m.order {
		if int(c) >= len(old) || old[c] != m.compRank[c] {
			for _, v := range m.cond.Members(c) {
				m.setRank(v, m.compRank[c])
			}
		}
	}
	for _, v := range d.Moved {
		m.setRank(v, m.compRank[m.cond.CompOf(v)])
	}
	// An update changes its source's signature.
	for _, up := range eff {
		m.markDirty(bisim.StratumIndex(m.rank[up.From]))
	}
	m.sweep(&st)
	return st
}

// rerank recomputes every live component's rank into compRank/compWF,
// leaving the previous values in newRank/newWF.
func (m *Maintainer) rerank() {
	m.order = m.cond.TopoOrder(m.order[:0])
	m.compRank, m.newRank = m.newRank, m.compRank
	m.compWF, m.newWF = m.newWF, m.compWF
	for len(m.compRank) < m.cond.NumSlots() {
		m.compRank = append(m.compRank, rankUnset)
		m.compWF = append(m.compWF, false)
	}
	bisim.RankDP(m.order, m.cond.Out, m.cond.Cyclic, m.compRank, m.compWF)
}

// setRank moves v to the stratum of rank r, dirtying both strata.
func (m *Maintainer) setRank(v graph.Node, r int32) {
	if m.rank[v] == r {
		return
	}
	i := bisim.StratumIndex(m.rank[v])
	list := m.strata[i]
	last := list[len(list)-1]
	list[m.spos[v]] = last
	m.spos[last] = m.spos[v]
	m.strata[i] = list[:len(list)-1]
	m.markDirty(i)
	m.rank[v] = r
	m.enter(v)
}

// enter appends v to the stratum of its rank and dirties it.
func (m *Maintainer) enter(v graph.Node) {
	i := bisim.StratumIndex(m.rank[v])
	for len(m.strata) <= i {
		m.strata = append(m.strata, nil)
		m.dirty = append(m.dirty, false)
	}
	m.spos[v] = int32(len(m.strata[i]))
	m.strata[i] = append(m.strata[i], v)
	m.markDirty(i)
}

// markDirty queues stratum i for refinement.
func (m *Maintainer) markDirty(i int) {
	if m.dirty[i] {
		return
	}
	m.dirty[i] = true
	q := append(m.queue, int32(i))
	for k := len(q) - 1; k > 0; {
		p := (k - 1) / 2
		if q[p] <= q[k] {
			break
		}
		q[p], q[k] = q[k], q[p]
		k = p
	}
	m.queue = q
}

// popDirty removes and returns the lowest queued stratum index.
func (m *Maintainer) popDirty() int {
	q := m.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for k := 0; ; {
		c := 2*k + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1] < q[c] {
			c++
		}
		if q[k] <= q[c] {
			break
		}
		q[k], q[c] = q[c], q[k]
		k = c
	}
	m.queue = q
	m.dirty[top] = false
	return int(top)
}

// sweep re-refines the dirty strata in ascending rank order. Dirt from
// changed blocks propagates only to strictly higher ranks: a predecessor's
// rank is never below its successor's (RankNegInf is math.MinInt32, so
// plain comparison respects the -∞-first order), and equal-rank
// predecessors live in the stratum just recomputed wholesale.
func (m *Maintainer) sweep(st *Stats) {
	g := m.Graph()
	for len(m.queue) > 0 {
		i := m.popDirty()
		stratum := m.strata[i]
		if len(stratum) == 0 {
			continue
		}
		st.RecomputedStrata++
		st.DirtyNodes += len(stratum)
		groupOf, groups := m.ref.Refine(g, stratum, m.blockOf)

		// Match each group against the old partition. A group takes over the
		// id of the old block most of its members come from (a Boyer–Moore
		// vote per group, confirmed by a count) when that block also gives
		// it more than half of its own members — at most one group can claim
		// that — so a block that grows, shrinks or splits keeps its id on
		// the larger side and only the nodes that change sides move. Any
		// other group is a new block. Soundness needs no more than ids
		// naming blocks one to one at any time and every node whose id
		// changes dirtying its predecessors: a stratum none of whose
		// successors changed id sees the same signatures as before.
		if cap(m.oldID) < groups {
			m.oldID = make([]int32, groups+groups/4)
			m.occ = make([]int32, groups+groups/4)
			m.count = make([]int32, groups+groups/4)
			m.assign = make([]int32, groups+groups/4)
		}
		oldID, occ, count, assign := m.oldID[:groups], m.occ[:groups], m.count[:groups], m.assign[:groups]
		clear(count)
		clear(occ)
		for k, v := range stratum {
			gi := groupOf[k]
			switch b := m.blockOf[v]; {
			case occ[gi] == 0:
				oldID[gi], occ[gi] = b, 1
			case oldID[gi] == b:
				occ[gi]++
			default:
				occ[gi]--
			}
			count[gi]++
		}
		clear(occ)
		for k, v := range stratum {
			if gi := groupOf[k]; m.blockOf[v] == oldID[gi] {
				occ[gi]++
			}
		}
		for gi := range assign {
			id, n := oldID[gi], occ[gi]
			switch {
			case id < 0 || 2*n <= m.size[id]:
				id = m.newID()
			case n == count[gi] && n == m.size[id]:
				assign[gi] = -1 // block survived unchanged
				continue
			}
			assign[gi] = id
			m.logBlock(id)
			st.ChangedBlocks++
		}
		r := m.rank[stratum[0]]
		for k, v := range stratum {
			id, was := assign[groupOf[k]], m.blockOf[v]
			if id < 0 || id == was {
				continue
			}
			if was >= 0 {
				m.size[was]--
				if m.size[was] == 0 {
					m.emptied = append(m.emptied, was)
				}
				m.logBlock(was)
			}
			m.blockOf[v] = id
			m.size[id]++
			if !m.nodeLogged[v] {
				m.nodeLogged[v] = true
				m.logNodes = append(m.logNodes, v)
			}
			for _, p := range g.Predecessors(v) {
				if m.rank[p] > r {
					m.markDirty(bisim.StratumIndex(m.rank[p]))
				}
			}
		}
	}
	// Ids are recycled only across sweeps: within one, a node carrying an id
	// must have carried it before the batch or been moved into it.
	m.freeIDs = append(m.freeIDs, m.emptied...)
	m.emptied = m.emptied[:0]
}

// newID returns an unused block id, its size zero.
func (m *Maintainer) newID() int32 {
	if n := len(m.freeIDs); n > 0 {
		id := m.freeIDs[n-1]
		m.freeIDs = m.freeIDs[:n-1]
		return id
	}
	m.size = append(m.size, 0)
	return int32(len(m.size) - 1)
}

// Package incbisim implements incPCM, the incremental maintenance of graph
// pattern preserving compression under batch edge updates (Section 5.2 of
// the paper).
//
// The incremental problem is unbounded (Theorem 8): no algorithm's cost can
// be a function of |AFF| alone. The paper's incPCM stratifies G by
// bisimulation rank and propagates splits and merges through the strata in
// ascending rank order. That bounds the work by the strata an update
// reaches — but ranks do not subdivide a cyclic graph: a giant strongly
// connected component and everything above it are one stratum, and every
// batch that lands there re-refined most of G from the label seed.
//
// # Levels instead of ranks
//
// This maintainer keeps what the refinement computes on its way and batch
// engines throw away: the k-bisimulation partitions ≈₁, ≈₂, …, one per
// round. Level 0 is the labelling; the level-k class of v is named by the
// signature (level k−1 class of v, set of level k−1 classes of v's
// successors); the top level is the first with as many classes as the one
// below, and its partition is the maximum bisimulation. Each level is a
// node → class array and a table from signature to class id (levels.go).
//
// A batch walks the levels once, bottom-up. At level k only three kinds of
// node can have a new signature: the sources of the effective updates
// (minDelta reduction comes first, as in the paper), the nodes whose level
// k−1 class changed id, and the predecessors of those. They are re-signed
// and looked up; all other nodes keep their class, its id and its key. A
// node that comes out with the id it had stops the wave, and ids are
// handed out so that this is the common case: a class that still has
// members which were not re-signed keeps its id for them, and a class
// re-signed as a whole passes its id to the group most of its members form
// anew. What a batch costs is therefore the nodes whose depth-k unfolding
// changed, summed over k — the paper's |AFF| counted per level — and not
// the size of the stratum they sit in (Stats.DirtyNodes; TestWorkBounds and
// TestPatternApplyScalesWithChange hold it to a multiple of the batch).
//
// The result is R(G ⊕ ΔG) by construction rather than by an argument about
// propagation order: level k is a function of level k−1 and the graph, the
// nodes re-signed at level k include every node for which that function's
// arguments changed, so after the walk every level is the k-bisimulation
// of the new graph — merges inside a cycle included, which no rule that
// starts from the old partition and compares current signatures can find
// (two mirror cycles told apart by one edge stay apart under it when the
// edge goes). Ranks are not needed for exactness, bisimilar nodes sharing
// a rank anyway, and the maintainer keeps none. Over(cond) takes one thing
// from the shared condensation, the graph it updates: Apply routes a batch
// through cond so the graph changes once for every maintainer over it, and
// Absorb reads the graph cond already changed — no component, order or
// change log of the condensation is consulted.
//
// # Depth
//
// An update can make the refinement deeper or shallower. When the top two
// levels differ in class count the next level is built — as a batch over
// the nodes that differ between them, or whole when most do — and levels
// above the first stable one are dropped; the public block ids survive
// both. The depth of every dataset in internal/gen is at most 20, but a
// same-label chain is as deep as it is long, so past maxLevels the
// maintainer stops keeping levels: it refines from the seed each batch
// with bisim.RefinePT (Stats.Fallbacks), under the same block ids
// and change log, and tries the levels again every fallbackRetry batches.
//
// # The published view
//
// View publishes the quotient in a dense id space of its own, patched from
// the change log at the cost of what moved rather than rebuilt from G
// (view.go); a store publishes it as is and a follower applies the same
// moves with Patch. Compressed builds R(G) as a mutable graph in
// Partition's numbering, for callers that want that.
//
// Property tests enforce that the maintained compression is identical (as
// a partition) to batch recompression after every batch.
package incbisim

import (
	"slices"

	"repro/internal/bisim"
	"repro/internal/dynscc"
	"repro/internal/graph"
)

// Stats reports the work done by one Apply call; AFF mirrors the paper's
// affected-area measure |ΔG| + |ΔGr|.
type Stats struct {
	// EffectiveUpdates counts updates surviving minDelta reduction.
	EffectiveUpdates int
	// DirtyNodes counts the distinct nodes re-signed at some level.
	DirtyNodes int
	// ChangedBlocks counts blocks of the new partition that differ from
	// every old block (the ΔGr node part of AFF).
	ChangedBlocks int
	// LevelRebuilds counts levels built or re-signed whole: a change of
	// depth costs one or more, the from-seed path one per batch.
	LevelRebuilds int
	// Fallbacks counts batches absorbed by refining from the label seed
	// because the graph's depth exceeds the cap.
	Fallbacks int
	// RepScans counts the scans of a whole level for members that can
	// stand for classes whose representative was re-signed away: the one
	// step of a levelled batch that costs |V| rather than what changed.
	RepScans int
}

const (
	// maxLevels caps the partitions kept above the labels. Every dataset
	// of internal/gen stabilises within 20 levels at scale 1 (EXPERIMENTS.md,
	// "Write path per layer"), but a same-label chain of n nodes needs n, and
	// each level costs 4 bytes a node and a table entry a class. Half as
	// much again as the deepest dataset leaves room for growth; past it the
	// maintainer keeps one partition and refines from the seed each batch.
	maxLevels = 32
	// fallbackRetry is how many batches the from-seed path absorbs between
	// attempts to build the levels again: an attempt costs up to maxLevels
	// passes over G, a from-seed batch a few, so retrying adds a fraction.
	fallbackRetry = 64
	// extendWholeShare decides how a level is built from the one below:
	// signed whole when more than one node in extendWholeShare differs
	// between that level and the one under it, as a batch of those
	// differences otherwise. Re-signing a node as part of a batch costs a few
	// times what it costs in a whole pass (its class is left and looked up
	// again, a representative re-signed to confirm it), and its predecessors
	// come along.
	extendWholeShare = 4
)

// Maintainer maintains the pattern preserving compression of an evolving
// graph across batches of edge updates.
type Maintainer struct {
	g    *graph.Graph
	cond *dynscc.Cond // the condensation g is updated through; nil when the maintainer owns g (New)

	// levels[k] is the (k+1)-bisimulation partition, signed over levels[k-1]
	// (levels[0] over the labels); the last is the first with as many classes
	// as the one below, hence the maximum bisimulation, and its ids, sizes
	// and changes are the public ones. In fallback there is one level, signed
	// over a partition computed from the seed each batch.
	levels       []level
	labelClasses int // labels carried by some node: the class count below levels[0]
	fallback     bool
	sinceRetry   int // batches absorbed in fallback since the levels were last tried

	mark         []uint32 // node -> epoch of the last pass that re-signed it
	epoch, first uint32   // see startEpochs
	seen         []uint32 // class id -> stamp of the last signature or tail that listed it
	seenStamp    uint32
	s            scratch

	repScans int // findReps calls in the current Absorb: passes over a level (Stats.RepScans)
	test     testHooks

	// The change log since the last View: every block id that gained or
	// lost a member, every node that changed block and every source of an
	// effective update, each listed once.
	logBlocks   []int32
	logNodes    []graph.Node
	logSrcs     []graph.Node
	blockLogged []bool // block id -> listed in logBlocks
	nodeLogged  []bool // node -> listed in logNodes
	srcLogged   []bool // node -> listed in logSrcs

	// The published view (view.go): the one View last returned and the
	// generation it is of, and the block id -> published id map (-1 when
	// not published) and its inverse; then View's scratch.
	view     View
	viewGen  uint64
	pub, mid []int32
	vp       Patcher
	ps       struct{ holes, fresh, reloc []int32 }
	diff     Diff

	gen  uint64            // batches that held an effective update
	part *bisim.Partition  // canonical partition, nil when stale
	comp *bisim.Compressed // nil when stale
}

// testHooks vary how a maintainer signs, for tests; the zero value is the
// maintainer itself.
type testHooks struct {
	constHash bool                    // every signature hashes alike
	keyOf     func([]uint32) []uint32 // replaces keyOf: another way to drop a signature's repeats
}

// New takes ownership of g, computes the initial compression and returns
// the maintainer.
func New(g *graph.Graph) *Maintainer { return newMaintainer(g, nil, testHooks{}) }

// Over returns a maintainer of the graph behind cond, which it does not
// own: whoever applies a batch to cond passes the effective updates to
// Absorb. Apply does both and is for a maintainer that is cond's only
// driver.
func Over(cond *dynscc.Cond) *Maintainer { return newMaintainer(cond.Graph(), cond, testHooks{}) }

func newMaintainer(g *graph.Graph, cond *dynscc.Cond, test testHooks) *Maintainer {
	n := g.NumNodes()
	m := &Maintainer{
		g:          g,
		cond:       cond,
		mark:       make([]uint32, n),
		nodeLogged: make([]bool, n),
		srcLogged:  make([]bool, n),
		test:       test,
	}
	// The initial compression is maintenance with every node affected at
	// every level.
	var st Stats
	m.startEpochs()
	if !m.build(&st) {
		m.levels = []level{*m.top()}
		m.fallback = true
		m.fromSeed(&st)
		m.resetChanges()
	}
	m.s = scratch{}
	return m
}

// Graph returns the maintained graph. Callers must not mutate it directly;
// use Apply.
func (m *Maintainer) Graph() *graph.Graph { return m.g }

// top is the level whose classes are the blocks.
func (m *Maintainer) top() *level { return &m.levels[len(m.levels)-1] }

// Partition returns the maintained bisimulation partition, canonically
// renumbered so that it compares Same to a batch result; cached per
// generation.
func (m *Maintainer) Partition() *bisim.Partition {
	if m.part == nil {
		m.part = bisim.PartitionOf(m.top().cls)
	}
	return m.part
}

// resetChanges empties the change log.
func (m *Maintainer) resetChanges() {
	for _, b := range m.logBlocks {
		m.blockLogged[b] = false
	}
	for _, v := range m.logNodes {
		m.nodeLogged[v] = false
	}
	for _, v := range m.logSrcs {
		m.srcLogged[v] = false
	}
	m.logBlocks, m.logNodes, m.logSrcs = m.logBlocks[:0], m.logNodes[:0], m.logSrcs[:0]
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

// logTop records the last pass's changes, made to the top level, in the
// change log and collects the ids involved for Stats.ChangedBlocks.
func (m *Maintainer) logTop() {
	lv := m.top()
	for i, v := range m.s.chg {
		m.logBlock(m.s.was[i])
		m.logBlock(lv.cls[v])
		m.s.ids = append(m.s.ids, m.s.was[i], lv.cls[v])
		if !m.nodeLogged[v] {
			m.nodeLogged[v] = true
			m.logNodes = append(m.logNodes, v)
		}
	}
}

// Apply applies ΔG and updates the maintained compression so that it
// equals R(G ⊕ ΔG).
func (m *Maintainer) Apply(batch []graph.Update) Stats {
	eff := m.g.Reduce(batch)
	if m.cond == nil {
		m.g.Apply(eff)
	} else {
		m.cond.Apply(eff)
	}
	return m.Absorb(eff)
}

// Absorb updates the compression after the effective updates eff were
// applied to the graph.
func (m *Maintainer) Absorb(eff []graph.Update) Stats {
	st := Stats{EffectiveUpdates: len(eff)}
	if len(eff) == 0 {
		return st
	}
	m.gen++
	m.part, m.comp = nil, nil
	for _, up := range eff {
		if !m.srcLogged[up.From] {
			m.srcLogged[up.From] = true
			m.logSrcs = append(m.logSrcs, up.From)
		}
	}
	m.s.ids = m.s.ids[:0]
	m.repScans = 0
	m.startEpochs()

	if m.fallback {
		m.refall(&st)
	} else {
		m.walk(eff, &st)
		m.fit(&st)
	}

	// A block counts as changed when it gained or lost a member and still
	// has some.
	slices.Sort(m.s.ids)
	top := m.top()
	for i, id := range m.s.ids {
		if (i == 0 || id != m.s.ids[i-1]) && top.cnt[id] > 0 {
			st.ChangedBlocks++
		}
	}
	st.RepScans = m.repScans
	if m.s.large {
		m.s = scratch{}
	}
	return st
}

// Levels returns the number of partitions kept, the label partition
// included: the depth at which the refinement of the current graph
// stabilises. It is 0 while that depth exceeds the cap and the maintainer
// refines from the seed.
func (m *Maintainer) Levels() int {
	if m.fallback {
		return 0
	}
	return len(m.levels) + 1
}

// below returns the classes level k is signed over, nil for the labels.
func (m *Maintainer) below(k int) []int32 {
	if k == 0 {
		return nil
	}
	return m.levels[k-1].cls
}

// startEpochs opens a batch's run of epochs. The nodes a pass re-signs are
// the marks equal to its epoch, the nodes the batch has re-signed so far
// the marks above first; a batch starts fewer than 4·maxLevels passes.
func (m *Maintainer) startEpochs() {
	if m.epoch > ^uint32(0)-4*maxLevels {
		clear(m.mark)
		m.epoch = 0
	}
	m.first = m.epoch
}

// walk takes the batch through the levels bottom-up and logs what changed
// at the top.
func (m *Maintainer) walk(eff []graph.Update, st *Stats) {
	s := &m.s
	s.eff = append(s.eff[:0], eff...)
	slices.SortFunc(s.eff, func(a, b graph.Update) int { return int(a.From) - int(b.From) })
	s.srcs = s.srcs[:0]
	for i, up := range s.eff {
		if i == 0 || up.From != s.eff[i-1].From {
			s.srcs = append(s.srcs, up.From)
		}
	}
	s.chg, s.was = s.chg[:0], s.was[:0]
	for k := range m.levels {
		m.step(k, st)
	}
	m.logTop()
}

// step brings level k up to date, given in the scratch the sources of the
// updates and the nodes whose class one level down changed id, with the ids
// they had. The nodes whose signature may differ are those and the
// predecessors of the latter; a node whose class id comes out unchanged
// stops the wave there.
func (m *Maintainer) step(k int, st *Stats) {
	g, s := m.Graph(), &m.s
	m.epoch++
	s.a = s.a[:0]
	add := func(v graph.Node) {
		if m.mark[v] != m.epoch {
			if m.mark[v] <= m.first {
				st.DirtyNodes++
			}
			m.mark[v] = m.epoch
			s.a = append(s.a, v)
		}
	}
	for _, v := range s.srcs {
		add(v)
	}
	for _, v := range s.chg {
		add(v)
		for _, p := range g.Predecessors(v) {
			add(p)
		}
	}
	m.pass(&m.levels[k], m.below(k), s.a, false)
}

// resignAll re-signs every node at level k over below, the level's keys
// being unknown or void.
func (m *Maintainer) resignAll(k int, below []int32, st *Stats) {
	n := len(m.mark)
	a := slices.Grow(m.s.a[:0], n)[:n]
	for v := range a {
		a[v] = graph.Node(v)
	}
	m.s.a = a
	m.pass(&m.levels[k], below, a, true)
	st.LevelRebuilds++
	st.DirtyNodes = n
}

// stable reports whether the top level has as many classes as the one below:
// the refinement has stopped and the top is the maximum bisimulation.
func (m *Maintainer) stable() bool {
	if k := len(m.levels) - 1; k > 0 {
		return m.levels[k].live == m.levels[k-1].live
	}
	return m.levels[0].live == m.labelClasses
}

// extend adds the level above the top. It starts as the top's copy, keys
// included: a node whose class and whose successors' classes carry the same
// ids at the top as one level down signs the same words over either, so the
// step from the one to the other is a batch whose changes are the nodes
// that differ between them — few, when a batch deepens the refinement by a
// level. The lower levels of a first build differ in most nodes, and a
// level is then cheaper signed whole. Either way the ids are inherited: a
// class that does not split keeps its id, and the scratch is left holding
// only the nodes split off.
func (m *Maintainer) extend(st *Stats) {
	g, s := m.Graph(), &m.s
	top, under := m.top(), m.below(len(m.levels)-1)
	s.srcs, s.eff, s.chg, s.was = s.srcs[:0], s.eff[:0], s.chg[:0], s.was[:0]
	for v, c := range top.cls {
		b := g.Label(graph.Node(v))
		if under != nil {
			b = under[v]
		}
		if c != b {
			s.chg = append(s.chg, graph.Node(v))
			s.was = append(s.was, b)
		}
	}
	whole := extendWholeShare*len(s.chg) > len(top.cls)
	m.levels = append(m.levels, top.clone(!whole))
	if k := len(m.levels) - 1; whole {
		m.resignAll(k, m.below(k), st)
	} else {
		m.step(k, st)
		st.LevelRebuilds++
	}
}

// build computes the levels from the label seed, and reports false when
// the depth cap stopped it short of the stable level.
func (m *Maintainer) build(st *Stats) bool {
	g := m.Graph()
	seed := level{cls: make([]int32, g.NumNodes()), cnt: make([]int32, g.Labels().Count())}
	for v := range seed.cls {
		l := g.Label(graph.Node(v))
		seed.cls[v] = l
		seed.cnt[l]++
	}
	m.labelClasses = 0
	for l, c := range seed.cnt {
		if c > 0 {
			m.labelClasses++
		} else {
			seed.free = append(seed.free, int32(l))
		}
	}
	seed.hash, seed.rep = make([]uint32, len(seed.cnt)), make([]int32, len(seed.cnt))
	m.levels = append(m.levels[:0], seed)
	m.resignAll(0, nil, st)
	for !m.stable() {
		if len(m.levels) == maxLevels {
			return false
		}
		m.extend(st)
	}
	return true
}

// fit restores the depth invariant after a walk: levels above the first
// stable one are dropped — that level takes over the top's ids, the two
// being the same partition — and while none is stable one more is built.
// Past the cap the maintainer changes over to the from-seed path.
func (m *Maintainer) fit(st *Stats) {
	below := m.labelClasses
	for k := range m.levels[:len(m.levels)-1] {
		if m.levels[k].live == below {
			m.adoptIDs(k, *m.top(), st)
			return
		}
		below = m.levels[k].live
	}
	for !m.stable() {
		if len(m.levels) == maxLevels {
			m.levels = []level{*m.top()}
			m.fallback, m.sinceRetry = true, 0
			m.fromSeed(st)
			return
		}
		m.extend(st)
		m.logTop()
	}
}

// adoptIDs makes level k the top under the ids of pub, a level over the same
// nodes: every node is re-signed at k, and a class of pub whose members
// still form one class keeps its id.
func (m *Maintainer) adoptIDs(k int, pub level, st *Stats) {
	clear(m.levels[k+1:])
	m.levels = m.levels[:k+1]
	m.levels[k] = pub
	m.resignAll(k, m.below(k), st)
	m.logTop()
}

// fromSeed is a batch on the from-seed path: the maximum bisimulation is
// refined from the labels by the batch engine, and the one level kept is
// signed over it — which groups the nodes exactly as it does — so that
// blocks keep their ids as on the levelled path.
func (m *Maintainer) fromSeed(st *Stats) {
	m.resignAll(0, bisim.RefinePT(m.Graph()).BlockOf, st)
	st.Fallbacks++
	m.logTop()
}

// refall absorbs a batch in fallback, trying the levels again every
// fallbackRetry batches.
func (m *Maintainer) refall(st *Stats) {
	if m.sinceRetry++; m.sinceRetry < fallbackRetry {
		m.fromSeed(st)
		return
	}
	m.sinceRetry = 0
	pub := m.levels[0]
	m.levels = nil
	if m.build(st) {
		m.fallback = false
		m.adoptIDs(len(m.levels)-1, pub, st)
		return
	}
	m.levels = []level{pub}
	m.fromSeed(st)
}

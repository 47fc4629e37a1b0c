// Package increach implements incRCM, the incremental maintenance of
// reachability preserving compression under batch edge updates
// (Section 5.1 of the paper).
//
// The problem is unbounded even for unit updates (Theorem 6), so no
// algorithm can run in time f(|AFF|); the paper's incRCM runs in
// O(|AFF|·|Gr|), working on the compressed graph and the affected area.
// This maintainer follows that structure in two layers:
//
//   - The SCC layer (internal/dynscc) owns the evolving graph and its
//     condensation, reduces redundant updates exactly (an insertion whose
//     endpoints are already connected, a deletion with a surviving
//     alternate path leave the transitive closure — and hence the
//     compression — untouched), and logs where the closure changed. It
//     may be shared with incbisim (see Over).
//   - The class layer, this package, keeps the reachability classes as
//     blocks of condensation components and regroups them on Gr. A block is
//     an intrusive doubly linked list over component ids — a head and a
//     size per block, a next and a prev per component — so singling a
//     component out allocates nothing, a merge relinks, and the tables hold
//     no pointer.
//
// # Regrouping on Gr
//
// Two facts replace per-component signatures.
//
// Lemma (insertions split classes only at update endpoints). Let c1, c2
// be equivalent before a set of edge insertions, neither containing an
// endpoint of an inserted edge. Then they are equivalent afterwards.
// Proof: a new path from c1 starts with an old (possibly empty) segment to
// the tail x of its first inserted edge; c1 holds no endpoint, so x is a
// strict old descendant of c1, hence of c2, and the same path suffix
// serves c2: desc′(c1) = desc′(c2). Symmetrically anc′(c1) = anc′(c2). If
// c1 lands on a new cycle then c1 ∈ desc′(c1) = desc′(c2) and
// c1 ∈ anc′(c1) = anc′(c2), so c2 is on it too. ∎ So the affected area of
// an insertion is its endpoint components and merge hosts, not their
// cones. Deletions can separate classmates where a lost path mattered, but
// far from everywhere one was lost: components that lose the same set of
// ancestors or descendants stay classmates, which confines the affected
// area of a closure-changing deletion or SCC split to its loss area (the
// dynscc package doc states and proves the rule).
//
// Quotient lift. For any partition of the components whose blocks are
// mutually equivalent in the updated graph, reachability between blocks is
// uniform, so two components are equivalent iff their blocks are
// equivalent in the block quotient H, and one representative per block
// carries the block's out-edges (its descendant set is everyone's). H is a
// DAG, with a cyclic flag where a block is a cyclic component: blocks that
// reached each other would share their members' SCC. Apply therefore
// singles the affected components out of their classes, builds H's rows
// over {remaining classes} ∪ {affected components} from representatives,
// and hands them to the quotient kernel (reach.Kernel), which needs no
// graph, no Tarjan and no ancestor or descendant sets: in a DAG, equal
// strict descendant and ancestor sets are equal out- and in-rows of the
// transitive reduction (the reach package doc proves it), so one reduction
// pass over H groups its blocks, and the rows it keeps, over classes, are
// the new Gr. The merged blocks follow. The worst case — everything
// affected — is batch cost on the condensation, never a pass over G. The
// kernel's scratch is kept between batches while it stays sized by H.
//
// # The published view
//
// The kernel numbers classes topologically (reach.Kernel.Quotient proves
// it), so the class a block's node holds is already the id a store
// publishes: every edge of Gr goes from a smaller id to a larger, as the
// one-pass batch sweeps need. Regroup keeps Gr as the compact CSR a store
// serves, built once per closure-changing batch. No member lists are kept:
// a reader that needs them groups the map (graph.GroupNodes).
//
// The view's whole life is in view.go: View makes it, in one gather over V
// after a regroup, and diffs it against the one before in the same gather;
// Patch applies a shipped diff; Assemble makes a decoded view. A store only
// swaps views in.
//
// Property tests verify after every batch that the maintained compression
// equals batch recompression (reach.Compress) of the current graph, both
// as a partition and as a quotient graph, and on small graphs that it is
// reachability equivalence by definition, which shares no code with the
// kernel.
package increach

import (
	"slices"

	"repro/internal/dynscc"
	"repro/internal/graph"
	"repro/internal/reach"
)

// Stats reports the work of one Apply call.
type Stats struct {
	// EffectiveUpdates counts updates that survived minDelta reduction.
	EffectiveUpdates int
	// RedundantUpdates counts effective updates that provably left the
	// transitive closure unchanged (the paper's reduced ΔG).
	RedundantUpdates int
	// AffComponents is |AFF|: components singled out of their classes and
	// regrouped.
	AffComponents int
	// Merges and Splits count SCC structure changes.
	Merges, Splits int
	// H is |H|: the nodes of the block quotient the regroup ran over, 0 when
	// the closure did not change.
	H int
}

// Maintainer maintains the reachability preserving compression of an
// evolving graph across update batches.
type Maintainer struct {
	cond *dynscc.Cond

	// Classes are blocks of components, each an intrusive doubly linked
	// list over component ids. Block ids are stable across batches (only
	// affected components move), so a regroup touches the affected
	// components and the blocks of H, not every component.
	blockOf    []int32 // component -> block, -1 when dead
	next, prev []int32 // component -> its neighbours in its block's list, -1 past the ends
	head, size []int32 // block -> first component (its representative) and count; size 0 when free
	node       []int32 // block -> node of gr
	live       []int32 // blocks in use (may hold emptied ones until the next regroup)
	free       []int32 // recyclable block ids

	gr     *graph.CSR // the quotient Gr over the live blocks, topologically numbered
	cyclic []bool     // per gr node
	gen    uint64     // regroups so far

	view    View   // the last view View returned; Gr nil before the first
	viewGen uint64 // gen when view was made
	diff    Diff   // View's diff, reused

	comp *reach.Compressed // Compressed's result, nil when stale

	sigma *graph.Labels // Gr's one-label table
	hidx  []int32       // block -> H node
	mark  []uint32      // component -> stamp of the batch that singled it out
	stamp uint32
	h     hScratch
}

// hScratch is what a regroup needs besides the kernel's result, kept between
// regroups while it stays sized by H (regroup drops it otherwise).
type hScratch struct {
	kernel reach.Kernel
	hb     []int32 // H node -> block
	seen   []int32 // H node -> row stamp
	cyclic []bool  // H node -> cyclic
	rowBuf []int32
	rowEnd []int32
	rows   [][]int32
	keep   []int32 // class -> block its classmates merge into
}

// New takes ownership of g, compresses it, and returns the maintainer.
func New(g *graph.Graph) *Maintainer { return Over(dynscc.New(g)) }

// Over returns a maintainer of the graph behind cond that shares the
// condensation instead of owning one. Whoever applies a batch to cond
// passes the change log to Absorb; Apply does both and is for a maintainer
// that is cond's only driver.
func Over(cond *dynscc.Cond) *Maintainer {
	m := &Maintainer{cond: cond, sigma: graph.NewLabels()}
	m.sigma.Intern(reach.SigmaLabel)
	// Every component starts as its own block; the first regroup is batch
	// compression of the condensation.
	m.growTo(cond.NumSlots())
	for c := int32(0); c < int32(cond.NumSlots()); c++ {
		if cond.Live(c) {
			m.singleOut(c)
		}
	}
	m.regroup()
	return m
}

// Graph returns the maintained graph; mutate only through Apply.
func (m *Maintainer) Graph() *graph.Graph { return m.cond.Graph() }

// Compressed returns the current compression R(G) with Gr as a mutable
// graph, for callers outside the store; it is View with Gr thawed, made once
// per regroup.
func (m *Maintainer) Compressed() *reach.Compressed {
	if m.comp == nil {
		m.comp = reach.AssembleCompressed(m.gr.Thaw(), m.classMap(nil), m.cyclic)
	}
	return m.comp
}

// Apply applies ΔG and updates the maintained compression so that it
// equals R(G ⊕ ΔG).
func (m *Maintainer) Apply(batch []graph.Update) Stats {
	eff := m.Graph().Reduce(batch)
	return m.Absorb(len(eff), m.cond.Apply(eff))
}

// Absorb updates the compression after the condensation applied a batch of
// eff effective updates with change log d.
func (m *Maintainer) Absorb(eff int, d *dynscc.Delta) Stats {
	st := Stats{
		EffectiveUpdates: eff,
		RedundantUpdates: d.Redundant,
		Merges:           d.Merges,
		Splits:           d.Splits,
	}
	if !d.ClosureChanged() {
		return st
	}
	m.growTo(m.cond.NumSlots())
	for _, c := range d.Dead {
		m.detach(c)
	}

	m.stamp++
	if m.stamp == 0 {
		clear(m.mark)
		m.stamp = 1
	}
	for _, v := range d.Touched {
		if c := m.cond.CompOf(v); m.mark[c] != m.stamp {
			m.mark[c] = m.stamp
			m.detach(c)
			m.singleOut(c)
			st.AffComponents++
		}
	}
	st.H = m.regroup()
	return st
}

// growTo extends the per-component arrays to n component slots.
func (m *Maintainer) growTo(n int) {
	for len(m.blockOf) < n {
		m.blockOf = append(m.blockOf, -1)
		m.next = append(m.next, -1)
		m.prev = append(m.prev, -1)
		m.mark = append(m.mark, 0)
	}
}

// detach removes component c from its block in O(1).
func (m *Maintainer) detach(c int32) {
	b := m.blockOf[c]
	if b < 0 {
		return
	}
	p, n := m.prev[c], m.next[c]
	if p >= 0 {
		m.next[p] = n
	} else {
		m.head[b] = n
	}
	if n >= 0 {
		m.prev[n] = p
	}
	m.size[b]--
	m.blockOf[c] = -1
}

// singleOut puts the detached component c into a block of its own.
func (m *Maintainer) singleOut(c int32) {
	var b int32
	if n := len(m.free); n > 0 {
		b = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		b = int32(len(m.head))
		m.head = append(m.head, 0)
		m.size = append(m.size, 0)
		m.node = append(m.node, 0)
		m.hidx = append(m.hidx, 0)
	}
	m.head[b], m.size[b] = c, 1
	m.next[c], m.prev[c] = -1, -1
	m.blockOf[c] = b
	m.live = append(m.live, b)
}

// merge moves block b's components into block into, right after its head,
// and frees b.
func (m *Maintainer) merge(b, into int32) {
	first, last := m.head[b], int32(-1)
	for c := first; c >= 0; c = m.next[c] {
		m.blockOf[c] = into
		last = c
	}
	h := m.head[into]
	after := m.next[h]
	m.next[h], m.prev[first] = first, h
	m.next[last] = after
	if after >= 0 {
		m.prev[after] = last
	}
	m.size[into] += m.size[b]
	m.size[b] = 0
	m.free = append(m.free, b)
}

// Footprint returns the bytes m's own tables hold, read off their
// capacities: the blocks, the per-component arrays, the classes' flags and
// the regroup's scratch, the quotient kernel's included. The condensation
// and the published Gr are not counted.
func (m *Maintainer) Footprint() int {
	h := &m.h
	n := cap(m.cyclic) + cap(h.cyclic) + 24*cap(h.rows) + h.kernel.Footprint()
	for _, s := range [][]int32{
		m.blockOf, m.next, m.prev, m.head, m.size, m.node, m.live, m.free, m.hidx,
		h.hb, h.seen, h.rowBuf, h.rowEnd, h.keep,
	} {
		n += 4 * cap(s)
	}
	return n + 4*cap(m.mark)
}

// regroup recomputes the classes and Gr from the current blocks, whose
// members must be mutually equivalent: it runs the quotient kernel over the
// block quotient H, one representative per block — its head — and merges
// the blocks it puts in one class. It returns |H|.
func (m *Maintainer) regroup() int {
	h := &m.h
	// H's nodes are the non-empty blocks.
	hb := h.hb[:0]
	for _, b := range m.live {
		if m.size[b] == 0 {
			m.free = append(m.free, b)
			continue
		}
		m.hidx[b] = int32(len(hb))
		hb = append(hb, b)
	}
	hn := len(hb)
	if cap(h.seen) < hn {
		h.seen = make([]int32, hn+hn/4)
		h.cyclic = make([]bool, hn+hn/4)
	}
	seen, cyclic := h.seen[:hn], h.cyclic[:hn]
	clear(seen)

	// One representative's out-edges per block: equivalent components have
	// the same descendants, so the closure of H is that of the full block
	// quotient. H is a DAG — blocks that reached each other would share a
	// component — with a cyclic flag where the block is a cyclic component.
	buf := h.rowBuf[:0]
	ends := h.rowEnd[:0]
	for i, b := range hb {
		rep := m.head[b]
		start := len(buf)
		seen[i] = int32(i) + 1
		for _, t := range m.cond.Out(rep) {
			if x := m.hidx[m.blockOf[t]]; seen[x] != int32(i)+1 {
				seen[x] = int32(i) + 1
				buf = append(buf, x)
			}
		}
		slices.Sort(buf[start:])
		ends = append(ends, int32(len(buf)))
		cyclic[i] = m.cond.Cyclic(rep)
	}
	// Rows are carved only now: buf may have moved while it grew.
	rows := slices.Grow(h.rows[:0], hn)[:hn]
	start := int32(0)
	for i, end := range ends {
		rows[i] = buf[start:end:end]
		start = end
	}

	classOf, grOff, grAdj, grCyclic := h.kernel.Quotient(rows, cyclic)
	classes := len(grCyclic)

	// Merge the blocks of each class into its largest one (the first in H
	// order among equals).
	keep := slices.Grow(h.keep[:0], classes)[:classes]
	for k := range keep {
		keep[k] = -1
	}
	for i, b := range hb {
		if k := classOf[i]; keep[k] < 0 || m.size[b] > m.size[keep[k]] {
			keep[k] = b
		}
	}
	for i, b := range hb {
		if into := keep[classOf[i]]; b != into {
			m.merge(b, into)
		}
	}
	m.live = m.live[:0]
	for k, b := range keep {
		m.node[b] = int32(k)
		m.live = append(m.live, b)
	}

	// Keep the scratch only while it is sized by H: the next H is about
	// this Gr plus a batch's affected components, so scratch that a larger
	// one grew — Over's first regroup runs over the whole condensation —
	// goes.
	if h.kernel.Cap() > 2*classes+256 {
		m.h = hScratch{}
	} else {
		h.hb, h.rowBuf, h.rowEnd, h.rows, h.keep = hb[:0], buf[:0], ends[:0], rows[:0], keep[:0]
	}
	gr, err := graph.CSRFromRows(m.sigma, make([]graph.Label, classes), grOff, grAdj)
	if err != nil {
		panic("increach: " + err.Error()) // the kernel's rows are well-formed by construction
	}
	m.gr, m.cyclic = gr, grCyclic
	m.comp = nil
	m.gen++
	return hn
}

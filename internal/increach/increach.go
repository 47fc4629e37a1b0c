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
//     blocks of condensation components and regroups them on Gr.
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
// serves, built once per closure-changing batch, and View costs one gather
// over V for the flat node → class map and nothing over Gr. No member
// lists are kept: a reader that needs them groups the map (graph.GroupNodes).
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

	// Classes are blocks of components. Block ids are stable across
	// batches (only affected components move), so a regroup touches the
	// affected components and the blocks of H, not every component.
	blockOf []int32   // component -> block, -1 when dead
	pos     []int32   // component -> index in blocks[blockOf]
	blocks  [][]int32 // block -> components; empty when free
	node    []int32   // block -> node of gr
	live    []int32   // blocks in use (may hold emptied ones until the next regroup)
	free    []int32   // recyclable block ids

	gr     *graph.CSR // the quotient Gr over the live blocks, topologically numbered
	cyclic []bool     // per gr node
	gen    uint64

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

// Generation counts the batches that changed the compression: two calls
// returning the same value bracket a span in which Compressed did not
// change.
func (m *Maintainer) Generation() uint64 { return m.gen }

// Compressed returns the current compression R(G) with Gr as a mutable
// graph, for callers outside the store; it is View with Gr thawed, made once
// per generation.
func (m *Maintainer) Compressed() *reach.Compressed {
	if m.comp == nil {
		m.comp = reach.AssembleCompressed(m.gr.Thaw(), m.classMap(), m.cyclic)
	}
	return m.comp
}

// View returns the current compression as a store publishes it: the flat
// node → class map with the classes' cyclic flags, and Gr as the compact
// CSR the last regroup built. Class ids are topological (package doc, "The
// published view"), so the view costs one O(|V|) pass and no work on Gr;
// the Compressed carries no mutable Gr and no member lists. Nothing is
// cached: call it once per Generation.
func (m *Maintainer) View() (*reach.Compressed, *graph.CSR) {
	return reach.AssembleCompressed(nil, m.classMap(), m.cyclic), m.gr
}

// classMap returns a fresh node → class map.
func (m *Maintainer) classMap() []graph.Node {
	classOf := make([]graph.Node, m.Graph().NumNodes())
	for v := range classOf {
		classOf[v] = m.node[m.blockOf[m.cond.CompOf(graph.Node(v))]]
	}
	return classOf
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
		m.pos = append(m.pos, 0)
		m.mark = append(m.mark, 0)
	}
}

// detach removes component c from its block in O(1).
func (m *Maintainer) detach(c int32) {
	b := m.blockOf[c]
	if b < 0 {
		return
	}
	list := m.blocks[b]
	last := list[len(list)-1]
	list[m.pos[c]] = last
	m.pos[last] = m.pos[c]
	m.blocks[b] = list[:len(list)-1]
	m.blockOf[c] = -1
}

// singleOut puts the detached component c into a block of its own.
func (m *Maintainer) singleOut(c int32) {
	var b int32
	if n := len(m.free); n > 0 {
		b = m.free[n-1]
		m.free = m.free[:n-1]
		m.blocks[b] = append(m.blocks[b], c)
	} else {
		b = int32(len(m.blocks))
		m.blocks = append(m.blocks, []int32{c})
		m.node = append(m.node, 0)
		m.hidx = append(m.hidx, 0)
	}
	m.blockOf[c], m.pos[c] = b, 0
	m.live = append(m.live, b)
}

// regroup recomputes the classes and Gr from the current blocks, whose
// members must be mutually equivalent: it runs the quotient kernel over the
// block quotient H and merges the blocks it puts in one class. It returns
// |H|.
func (m *Maintainer) regroup() int {
	h := &m.h
	// H's nodes are the non-empty blocks.
	hb := h.hb[:0]
	for _, b := range m.live {
		if len(m.blocks[b]) == 0 {
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
		rep := m.blocks[b][0]
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
		if k := classOf[i]; keep[k] < 0 || len(m.blocks[b]) > len(m.blocks[keep[k]]) {
			keep[k] = b
		}
	}
	for i, b := range hb {
		into := keep[classOf[i]]
		if b == into {
			continue
		}
		for _, c := range m.blocks[b] {
			m.blockOf[c] = into
			m.pos[c] = int32(len(m.blocks[into]))
			m.blocks[into] = append(m.blocks[into], c)
		}
		m.blocks[b] = m.blocks[b][:0]
		m.free = append(m.free, b)
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

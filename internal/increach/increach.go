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
// carries the block's out-edges (its descendant set is everyone's). Apply
// therefore singles the affected components out of their classes, builds H
// over {remaining classes} ∪ {affected components} from representatives,
// runs the batch compressor on H, and merges what it merges. H's
// compression is the new Gr. The worst case — everything affected — is
// batch cost on the condensation, never a pass over G.
//
// Property tests verify after every batch that the maintained compression
// equals batch recompression (reach.Compress) of the current graph, both
// as a partition and as a quotient graph.
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

	gr     *graph.Graph // the quotient Gr over the live blocks
	cyclic []bool       // per gr node
	gen    uint64

	comp  *reach.Compressed // node-level view of the classes, nil when stale
	grCSR *graph.CSR        // frozen gr, nil when stale

	sigma  *graph.Labels // H's one-label table
	hb     []int32       // H node -> block
	hidx   []int32       // block -> H node
	seen   []int32       // H node -> row stamp
	rowBuf []graph.Node
	rowEnd []int32
	mark   []uint32 // component -> stamp of the batch that singled it out
	stamp  uint32
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

// Compressed returns the current compression R(G). Gr is maintained by
// Apply; the node-level class index is materialized here, once per
// generation.
func (m *Maintainer) Compressed() *reach.Compressed {
	if m.comp != nil {
		return m.comp
	}
	classOf := make([]graph.Node, m.Graph().NumNodes())
	for v := range classOf {
		classOf[v] = m.node[m.blockOf[m.cond.CompOf(graph.Node(v))]]
	}
	members := graph.GroupNodes(classOf, m.gr.NumNodes())
	m.comp = reach.AssembleCompressed(m.gr, classOf, members, m.cyclic)
	return m.comp
}

// CompressedCSR returns the current compression together with a frozen CSR
// snapshot of its quotient graph Gr, cached per generation. The returned
// CSR is immutable and safe to publish to concurrent readers.
func (m *Maintainer) CompressedCSR() (*reach.Compressed, *graph.CSR) {
	c := m.Compressed()
	if m.grCSR == nil {
		m.grCSR = c.Gr.Freeze()
	}
	return c, m.grCSR
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
	m.regroup()
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
// members must be mutually equivalent: it compresses the block quotient H
// and merges the blocks H's compression puts in one class.
func (m *Maintainer) regroup() {
	// H's nodes are the non-empty blocks.
	hb := m.hb[:0]
	for _, b := range m.live {
		if len(m.blocks[b]) == 0 {
			m.free = append(m.free, b)
			continue
		}
		m.hidx[b] = int32(len(hb))
		hb = append(hb, b)
	}
	hn := len(hb)
	if len(m.seen) < hn {
		m.seen = make([]int32, hn+hn/4)
	}
	seen := m.seen[:hn]
	clear(seen)

	// One representative's out-edges per block: equivalent components have
	// the same descendants, so the closure of H is that of the full block
	// quotient.
	buf := m.rowBuf[:0]
	ends := m.rowEnd[:0]
	for i, b := range hb {
		rep := m.blocks[b][0]
		start := len(buf)
		for _, t := range m.cond.Out(rep) {
			if h := m.hidx[m.blockOf[t]]; seen[h] != int32(i)+1 {
				seen[h] = int32(i) + 1
				buf = append(buf, h)
			}
		}
		if m.cond.Cyclic(rep) {
			buf = append(buf, graph.Node(i))
		}
		slices.Sort(buf[start:])
		ends = append(ends, int32(len(buf)))
	}
	// Rows are carved only now: buf may have moved while it grew.
	rows := make([][]graph.Node, hn)
	start := int32(0)
	for i, end := range ends {
		rows[i] = buf[start:end:end]
		start = end
	}
	m.rowEnd = ends[:0]
	m.rowBuf = buf[:0]

	hc := reach.Compress(graph.BuildFromSortedAdj(m.sigma, make([]graph.Label, hn), rows))

	// Merge the blocks of each class into its largest one.
	m.live = m.live[:0]
	for k, hs := range hc.Members {
		keep := hb[hs[0]]
		for _, h := range hs[1:] {
			if b := hb[h]; len(m.blocks[b]) > len(m.blocks[keep]) {
				keep = b
			}
		}
		for _, h := range hs {
			b := hb[h]
			if b == keep {
				continue
			}
			for _, c := range m.blocks[b] {
				m.blockOf[c] = keep
				m.pos[c] = int32(len(m.blocks[keep]))
				m.blocks[keep] = append(m.blocks[keep], c)
			}
			m.blocks[b] = m.blocks[b][:0]
			m.free = append(m.free, b)
		}
		m.node[keep] = int32(k)
		m.live = append(m.live, keep)
	}
	m.hb = hb[:0]
	m.gr, m.cyclic = hc.Gr, hc.CyclicClass
	m.comp, m.grCSR = nil, nil
	m.gen++
}

package graph

import "sync/atomic"

// CSR is a frozen, read-optimized snapshot of a Graph: each side —
// successors and predecessors — is a row table with one (start, end) pair
// per node over a flat adjacency arena, so traversals walk contiguous memory
// instead of chasing one heap object per node. A CSR is immutable and safe
// for concurrent use by any number of goroutines; it shares the label table
// with the graph it was frozen from.
//
// A Graph keeps its rows in this very layout, so Freeze and Thaw hand the
// row tables over in O(1), and successive snapshots of an evolving graph
// share one arena: each costs what changed plus 16 bytes per node, not
// O(|G|). Patch (patch.go) builds a CSR from another by replacing a batch of
// rows the same way. The bulk constructors, and Freeze of a graph not
// written since it was built, packed or cloned, give compact CSRs: the arena
// holds the rows in node order with no gaps. An arena is append-only:
// nothing is ever written below the end of a CSR built over it.
//
// The mutable *Graph remains the write-side type. Every read-only hot path
// (Tarjan, the compression DPs, quotient construction, BFS, Paige–Tarjan,
// pattern matching, 2-hop construction) runs on the CSR.
type CSR struct {
	labels *Labels
	label  []Label
	m      int  // |E|: the live entries of each side
	out    side // successors of v are out.adj[out.rows[v].lo:out.rows[v].hi]
	in     side // predecessors, likewise; each row sorted ascending

	// byLabel[l] lists the nodes labeled l, ascending; built on first use
	// (NodesLabeled) and never carried over to a CSR patched from this one.
	byLabel atomic.Pointer[[][]Node]
}

// span is one row's place in its side's arena.
type span struct{ lo, hi int32 }

// side is one direction of a CSR: a row table over an arena that later
// snapshots of the same graph, and patches of the CSR, share.
type side struct {
	rows    []span
	adj     []Node // the arena up to this side's end
	ar      *arena
	compact bool // rows lie in node order with no gaps: adj is the flat array
}

// arena is the adjacency storage of a chain of CSRs: the snapshots of one
// graph, or a CSR and its patches. Entries below tip belong to CSRs already
// built or to the graph writing them; a graph or patch that ends at tip
// claims the entries after it with one CAS, so two writers never write the
// same entries (the loser packs a fresh arena).
type arena struct {
	buf []Node // len == cap
	tip atomic.Int32
}

// compactSide returns the side over rows and adj, which hold the rows in
// node order with no gaps. adj is retained, and its arena ends at its
// length; only a Graph that owns adj (seal 0) ever writes it.
func compactSide(rows []span, adj []Node) side {
	a := &arena{buf: adj[:len(adj):len(adj)]}
	a.tip.Store(int32(len(adj)))
	return side{rows: rows, adj: a.buf, ar: a, compact: true}
}

func (s *side) row(v Node) []Node {
	r := s.rows[v]
	return s.adj[r.lo:r.hi]
}

// offsets derives the offset table (len |V|+1) of the side's flat form.
func (s *side) offsets() []int32 {
	off := make([]int32, len(s.rows)+1)
	for v, r := range s.rows {
		off[v+1] = off[v] + r.hi - r.lo
	}
	return off
}

// flat returns the side's m entries in node order: the arena itself when the
// side is compact, a compacted copy otherwise.
func (s *side) flat(m int) []Node {
	if s.compact {
		return s.adj
	}
	adj := make([]Node, 0, m)
	for _, r := range s.rows {
		adj = append(adj, s.adj[r.lo:r.hi]...)
	}
	return adj
}

// Freeze returns a CSR snapshot of the graph's current state, in O(1): the
// graph hands over its row tables and its label array and seals its arenas,
// so later writes never show through (see Graph). A graph not written since
// it was built, packed or cloned freezes compact. Freeze of a graph not
// written since the last Freeze or its Thaw returns that CSR again.
func (g *Graph) Freeze() *CSR {
	if g.frozen == nil {
		n := len(g.label)
		g.frozen = &CSR{labels: g.labels, label: g.label[:n:n], m: g.m, out: g.out.freeze(), in: g.in.freeze()}
	}
	return g.frozen
}

// freeze seals the side and returns it as a CSR's: every row now lies below
// the seal.
func (s *wside) freeze() side {
	end := len(s.adj)
	s.seal = int32(end)
	return side{rows: s.rows, adj: s.adj[:end:end], ar: s.ar, compact: s.compact}
}

// Labels returns the snapshot's label table.
func (c *CSR) Labels() *Labels { return c.labels }

// NumNodes returns |V|.
func (c *CSR) NumNodes() int { return len(c.label) }

// NumEdges returns |E|.
func (c *CSR) NumEdges() int { return c.m }

// Size returns |G| = |V| + |E|.
func (c *CSR) Size() int { return len(c.label) + c.m }

// Label returns the label id of v.
func (c *CSR) Label(v Node) Label { return c.label[v] }

// NodesLabeled returns the nodes labeled l in ascending order: empty when no
// node carries l, including an l past every label the snapshot uses. The
// grouping is one counting sort over the label array, made by the first
// call and kept for the CSR's lifetime; concurrent first calls may each
// make it, identically, and one CAS keeps one. The returned slice must not
// be modified.
func (c *CSR) NodesLabeled(l Label) []Node {
	groups := c.byLabel.Load()
	if groups == nil {
		top := Label(-1)
		for _, x := range c.label {
			top = max(top, x)
		}
		g := GroupNodes(c.label, int(top)+1)
		c.byLabel.CompareAndSwap(nil, &g)
		groups = c.byLabel.Load()
	}
	if l < 0 || int(l) >= len(*groups) {
		return nil
	}
	return (*groups)[l]
}

// Successors returns the sorted successor row of v as a view into the
// arena. The returned slice must not be modified.
func (c *CSR) Successors(v Node) []Node { return c.out.row(v) }

// Predecessors returns the sorted predecessor row of v as a view into the
// arena. The returned slice must not be modified.
func (c *CSR) Predecessors(v Node) []Node { return c.in.row(v) }

// OutDegree returns the number of successors of v.
func (c *CSR) OutDegree(v Node) int {
	r := c.out.rows[v]
	return int(r.hi - r.lo)
}

// InDegree returns the number of predecessors of v.
func (c *CSR) InDegree(v Node) int {
	r := c.in.rows[v]
	return int(r.hi - r.lo)
}

// HasEdge reports whether edge (u,v) exists, by binary search over u's row.
func (c *CSR) HasEdge(u, v Node) bool {
	_, ok := searchNode(c.Successors(u), v)
	return ok
}

// Edges calls fn for every edge (u,v) in ascending (u,v) order. If fn
// returns false, iteration stops.
func (c *CSR) Edges(fn func(u, v Node) bool) {
	for v := 0; v < len(c.label); v++ {
		for _, w := range c.Successors(Node(v)) {
			if !fn(Node(v), w) {
				return
			}
		}
	}
}

// InOffsets returns the predecessor offset table (len |V|+1) of the flat
// form, for callers that index the flat predecessor array directly (e.g.
// the Paige–Tarjan engine treats positions of InAdj as edge ids). It is
// derived from the row table, O(|V|). Read-only.
func (c *CSR) InOffsets() []int32 { return c.in.offsets() }

// InAdj returns the flat predecessor array (len |E|) InOffsets indexes: the
// arena itself on a compact CSR, a compacted copy of a patched one.
// Read-only.
func (c *CSR) InAdj() []Node { return c.in.flat(c.m) }

// Thaw returns a mutable Graph equal to the snapshot, in O(1): the graph
// takes over the row tables, the arenas and the label array, sealed at the
// snapshot's end, and copies what it writes (see Graph). The snapshot is
// only read, and stays valid.
func (c *CSR) Thaw() *Graph {
	n := len(c.label)
	return &Graph{
		labels: c.labels, label: c.label[:n:n], m: c.m,
		out:    wside{side: c.out, seal: int32(len(c.out.adj))},
		in:     wside{side: c.in, seal: int32(len(c.in.adj))},
		frozen: c,
	}
}

// BuildFromSortedAdj constructs a compact Graph in bulk from per-node labels
// and sorted, duplicate-free successor rows, in O(|V|+|E|) — no per-edge
// sorted insertion. It takes ownership of label; the rows are copied into
// the graph's arena, and the predecessor side is derived by one
// transposition. Rows are validated to be sorted and strictly increasing;
// violations panic, since a malformed adjacency would silently corrupt
// every downstream algorithm.
func BuildFromSortedAdj(labels *Labels, label []Label, out [][]Node) *Graph {
	if labels == nil {
		labels = NewLabels()
	}
	n := len(label)
	if len(out) != n {
		panic("graph: BuildFromSortedAdj: len(out) != len(label)")
	}
	rows := make([]span, n)
	var adj []Node
	for u, row := range out {
		prev := Node(-1)
		for _, v := range row {
			if v <= prev {
				panic("graph: BuildFromSortedAdj: row not sorted/unique")
			}
			if int(v) < 0 || int(v) >= n {
				panic("graph: BuildFromSortedAdj: edge references invalid node")
			}
			prev = v
		}
		rows[u] = span{int32(len(adj)), int32(len(adj) + len(row))}
		adj = append(adj, row...)
	}
	succ := compactSide(rows, adj)
	return &Graph{labels: labels, label: label, m: len(adj), out: wside{side: succ}, in: wside{side: transpose(&succ, len(adj))}}
}

// transpose returns the compact predecessor side of the successor side out,
// which holds m entries.
func transpose(out *side, m int) side {
	in := make([]span, len(out.rows))
	for v := range out.rows {
		for _, w := range out.row(Node(v)) {
			in[w].hi++
		}
	}
	return fill(out, in, m)
}

// fill completes the predecessor side of out from in, whose row v holds v's
// in-degree in hi. Sources are walked in ascending order, so every
// predecessor row comes out sorted; a row's hi is its fill cursor until the
// walk ends.
func fill(out *side, in []span, m int) side {
	for v, pos := 0, int32(0); v < len(in); v++ {
		deg := in[v].hi
		in[v] = span{pos, pos}
		pos += deg
	}
	adj := make([]Node, m)
	for u := range out.rows {
		for _, w := range out.row(Node(u)) {
			adj[in[w].hi] = Node(u)
			in[w].hi++
		}
	}
	return compactSide(in, adj)
}

package graph

import "sync/atomic"

// CSR is a frozen, read-optimized snapshot of a Graph: each side —
// successors and predecessors — is a row table with one (start, end) pair
// per node over a flat adjacency arena, so traversals walk contiguous memory
// instead of chasing one heap object per node. A CSR is immutable; it shares
// the label table (and the label slice) with the graph it was frozen from,
// and it is safe for concurrent use by any number of goroutines.
//
// Freeze and the other bulk constructors build compact CSRs: the arena holds
// the rows in node order with no gaps. Patch (patch.go) builds an epoch's CSR
// from the previous epoch's by copying the two row tables and appending only
// the rows that changed to the arena they share, so successive snapshots of
// an evolving graph cost what changed plus 16 bytes per node, not O(|G|).
// The arena is append-only: nothing is ever written below the end of a CSR
// built over it.
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
}

// span is one row's place in its side's arena.
type span struct{ lo, hi int32 }

// side is one direction of a CSR: a row table over an arena that patched
// successors of the CSR share.
type side struct {
	rows    []span
	adj     []Node // the arena up to this side's end, capacity clipped
	ar      *arena
	compact bool // rows lie in node order with no gaps: adj is the flat array
}

// arena is the adjacency storage of a chain of patched CSRs. Entries below
// tip belong to CSRs already built; a patch of the CSR ending at tip claims
// the entries after it with one CAS, so two patches of one CSR never write
// the same entries (the loser packs a fresh arena).
type arena struct {
	buf []Node // len == cap
	tip atomic.Int32
}

// compactSide returns the side over rows and adj, which hold the rows in
// node order with no gaps. adj is retained, never written: its arena ends at
// its length.
func compactSide(rows []span, adj []Node) side {
	a := &arena{buf: adj[:len(adj):len(adj)]}
	a.tip.Store(int32(len(adj)))
	return side{rows: rows, adj: a.buf, ar: a, compact: true}
}

// fromOffsets returns the compact side of an offset table (len |V|+1) over
// the flat array adj.
func fromOffsets(off []int32, adj []Node) side {
	rows := make([]span, len(off)-1)
	for v := range rows {
		rows[v] = span{off[v], off[v+1]}
	}
	return compactSide(rows, adj)
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

// Freeze returns a compact CSR snapshot of the graph's current state. Later
// mutations of g are not reflected in the snapshot. The label slice is
// shared, so SetLabel after Freeze does show through; relabel-then-freeze if
// a fully isolated snapshot is needed.
func (g *Graph) Freeze() *CSR {
	n := len(g.label)
	outRows, inRows := make([]span, n), make([]span, n)
	outAdj, inAdj := make([]Node, 0, g.m), make([]Node, 0, g.m)
	for v := 0; v < n; v++ {
		lo := int32(len(outAdj))
		outAdj = append(outAdj, g.out[v]...)
		outRows[v] = span{lo, int32(len(outAdj))}
		lo = int32(len(inAdj))
		inAdj = append(inAdj, g.in[v]...)
		inRows[v] = span{lo, int32(len(inAdj))}
	}
	return &CSR{labels: g.labels, label: g.label, m: g.m, out: compactSide(outRows, outAdj), in: compactSide(inRows, inAdj)}
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

// Thaw materializes a mutable Graph equal to the snapshot.
func (c *CSR) Thaw() *Graph {
	n := len(c.label)
	rows := make([][]Node, n)
	for v := 0; v < n; v++ {
		row := c.Successors(Node(v))
		if len(row) > 0 {
			rows[v] = append([]Node(nil), row...)
		}
	}
	return BuildFromSortedAdj(c.labels, append([]Label(nil), c.label...), rows)
}

// BuildFromSortedAdj constructs a Graph in bulk from per-node labels and
// sorted, duplicate-free successor rows, in O(|V|+|E|) — no per-edge sorted
// insertion. It takes ownership of label and of every row in out (rows may
// be nil). Predecessor lists are derived by counting sort into one flat
// backing array; the per-node views use full slice expressions so a later
// AddEdge reallocates instead of clobbering a neighbor's row. Rows are
// validated to be sorted and strictly increasing; violations panic, since a
// malformed adjacency would silently corrupt every downstream algorithm.
func BuildFromSortedAdj(labels *Labels, label []Label, out [][]Node) *Graph {
	if labels == nil {
		labels = NewLabels()
	}
	n := len(label)
	if len(out) != n {
		panic("graph: BuildFromSortedAdj: len(out) != len(label)")
	}
	m := 0
	indeg := make([]int32, n+1)
	for u := range out {
		prev := Node(-1)
		for _, v := range out[u] {
			if v <= prev {
				panic("graph: BuildFromSortedAdj: row not sorted/unique")
			}
			if int(v) < 0 || int(v) >= n {
				panic("graph: BuildFromSortedAdj: edge references invalid node")
			}
			indeg[v]++
			prev = v
			m++
		}
	}
	// Carve the in-lists out of one flat array; off[v] is the write cursor.
	flat := make([]Node, m)
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + indeg[v]
	}
	in := make([][]Node, n)
	for v := 0; v < n; v++ {
		if indeg[v] > 0 {
			in[v] = flat[off[v]:off[v]:off[v+1]]
		}
	}
	for u := 0; u < n; u++ {
		for _, v := range out[u] {
			in[v] = append(in[v], Node(u))
		}
	}
	return &Graph{labels: labels, label: label, out: out, in: in, m: m}
}

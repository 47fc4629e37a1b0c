package graph

// CSR is a frozen, read-optimized snapshot of a Graph in compressed sparse
// row form: successor and predecessor lists live in two flat arrays indexed
// by per-node offset tables, so traversals walk contiguous memory instead of
// chasing one heap object per node. A CSR is immutable; it shares the label
// table (and the label slice) with the graph it was frozen from, and it is
// safe for concurrent use by any number of goroutines.
//
// The mutable *Graph remains the write-side type. Freeze is O(|V|+|E|) and
// is intended to be called once per snapshot, after which every read-only
// hot path (Tarjan, the compression DPs, quotient construction, BFS,
// Paige–Tarjan, pattern matching, 2-hop construction) runs on the CSR.
type CSR struct {
	labels *Labels
	label  []Label
	outOff []int32 // len |V|+1; successors of v are outAdj[outOff[v]:outOff[v+1]]
	outAdj []Node  // len |E|; each row sorted ascending
	inOff  []int32 // len |V|+1; predecessors of v are inAdj[inOff[v]:inOff[v+1]]
	inAdj  []Node  // len |E|; each row sorted ascending
}

// Freeze returns a CSR snapshot of the graph's current state. Later
// mutations of g are not reflected in the snapshot. The label slice is
// shared, so SetLabel after Freeze does show through; relabel-then-freeze if
// a fully isolated snapshot is needed.
func (g *Graph) Freeze() *CSR {
	n := len(g.label)
	c := &CSR{
		labels: g.labels,
		label:  g.label,
		outOff: make([]int32, n+1),
		inOff:  make([]int32, n+1),
		outAdj: make([]Node, 0, g.m),
		inAdj:  make([]Node, 0, g.m),
	}
	for v := 0; v < n; v++ {
		c.outAdj = append(c.outAdj, g.out[v]...)
		c.outOff[v+1] = int32(len(c.outAdj))
		c.inAdj = append(c.inAdj, g.in[v]...)
		c.inOff[v+1] = int32(len(c.inAdj))
	}
	return c
}

// Labels returns the snapshot's label table.
func (c *CSR) Labels() *Labels { return c.labels }

// NumNodes returns |V|.
func (c *CSR) NumNodes() int { return len(c.label) }

// NumEdges returns |E|.
func (c *CSR) NumEdges() int { return len(c.outAdj) }

// Size returns |G| = |V| + |E|.
func (c *CSR) Size() int { return len(c.label) + len(c.outAdj) }

// Label returns the label id of v.
func (c *CSR) Label(v Node) Label { return c.label[v] }

// Successors returns the sorted successor row of v as a view into the flat
// array. The returned slice must not be modified.
func (c *CSR) Successors(v Node) []Node { return c.outAdj[c.outOff[v]:c.outOff[v+1]] }

// Predecessors returns the sorted predecessor row of v as a view into the
// flat array. The returned slice must not be modified.
func (c *CSR) Predecessors(v Node) []Node { return c.inAdj[c.inOff[v]:c.inOff[v+1]] }

// OutDegree returns the number of successors of v.
func (c *CSR) OutDegree(v Node) int { return int(c.outOff[v+1] - c.outOff[v]) }

// InDegree returns the number of predecessors of v.
func (c *CSR) InDegree(v Node) int { return int(c.inOff[v+1] - c.inOff[v]) }

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

// InOffsets exposes the predecessor offset table (len |V|+1) for callers
// that index the flat predecessor array directly (e.g. the Paige–Tarjan
// engine treats positions of inAdj as edge ids). Read-only.
func (c *CSR) InOffsets() []int32 { return c.inOff }

// InAdj exposes the flat predecessor array. Read-only.
func (c *CSR) InAdj() []Node { return c.inAdj }

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

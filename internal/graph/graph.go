// Package graph implements the labeled directed graph substrate underlying
// the query-preserving compression library: node-labeled directed graphs
// with mutation support, their frozen CSR snapshots, locality reordering,
// strongly connected components and condensation.
//
// A graph follows the paper's model G = (V, E, L): V is a dense range of
// node ids [0, N), E ⊆ V×V is a set (no parallel edges; self-loops allowed),
// and L assigns every node a label drawn from an interned label table.
// Graph size |G| is defined, as in the paper, as |V| + |E|.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Node identifies a node of a Graph. Nodes are dense: a graph with N nodes
// uses ids 0..N-1.
type Node = int32

// Label identifies an interned node label.
type Label = int32

// Labels is an interning table mapping label names to dense Label ids.
// A Labels table may be shared between a graph and graphs derived from it
// (e.g. its compressed graph).
type Labels struct {
	names []string
	ids   map[string]Label
}

// NewLabels returns an empty label table.
func NewLabels() *Labels {
	return &Labels{ids: make(map[string]Label)}
}

// Intern returns the id for name, assigning a fresh id on first use.
func (l *Labels) Intern(name string) Label {
	if id, ok := l.ids[name]; ok {
		return id
	}
	id := Label(len(l.names))
	l.names = append(l.names, name)
	l.ids[name] = id
	return id
}

// Lookup returns the id for name and whether it is known.
func (l *Labels) Lookup(name string) (Label, bool) {
	id, ok := l.ids[name]
	return id, ok
}

// Name returns the name for id. It panics if id was never assigned.
func (l *Labels) Name(id Label) string { return l.names[id] }

// Count returns the number of distinct labels interned so far.
func (l *Labels) Count() int { return len(l.names) }

// Graph is a mutable node-labeled directed graph. Adjacency rows are kept
// sorted so that edge existence tests are O(log deg) and iteration order is
// deterministic.
//
// A Graph keeps its rows as a CSR does (csr.go): per side, a row table of
// spans over an append-only arena. Freeze hands the row tables to the new
// CSR and seals the graph, and Thaw hands a CSR's tables to a new graph,
// both in O(1). A row below a side's seal belongs to frozen CSRs too: its
// first write copies it to the arena's tip. A row above the seal was written
// since and is the graph's own, edited in place. After a Freeze or Thaw the
// graph copies its row tables on its first write, 8 bytes per node a side.
type Graph struct {
	labels *Labels
	label  []Label // label of each node
	m      int     // number of edges
	out    wside   // sorted successor rows
	in     wside   // sorted predecessor rows
	// frozen is the CSR that Freeze last returned or Thaw came from, while
	// the graph is unwritten since: it shares the row tables, and Freeze
	// returns it again. The label array is shared too, and only appended to
	// past a snapshot's end.
	frozen *CSR
}

// wside is one side of a Graph: a CSR side whose rows from seal up lie past
// the end of every CSR built over its arena, so the graph may write them.
type wside struct {
	side
	seal int32
}

// New returns an empty graph using the given label table. If labels is nil a
// fresh table is created.
func New(labels *Labels) *Graph {
	if labels == nil {
		labels = NewLabels()
	}
	return &Graph{labels: labels, out: wside{side: compactSide(nil, nil)}, in: wside{side: compactSide(nil, nil)}}
}

// Labels returns the graph's label table.
func (g *Graph) Labels() *Labels { return g.labels }

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.label) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.m }

// Size returns |G| = |V| + |E|, the size measure used throughout the paper.
func (g *Graph) Size() int { return len(g.label) + g.m }

// own makes the row tables the graph's own before a write.
func (g *Graph) own() {
	if g.frozen != nil {
		g.frozen = nil
		g.out.rows, g.in.rows = slices.Clone(g.out.rows), slices.Clone(g.in.rows)
	}
}

// AddNode appends a node with the given label id and returns its id.
func (g *Graph) AddNode(label Label) Node {
	g.own()
	v := Node(len(g.label))
	g.label = append(g.label, label)
	for _, s := range []*wside{&g.out, &g.in} {
		end := int32(len(s.adj))
		s.rows = append(s.rows, span{end, end})
	}
	return v
}

// AddNodeNamed appends a node labeled with the interned name and returns its
// id.
func (g *Graph) AddNodeNamed(name string) Node {
	return g.AddNode(g.labels.Intern(name))
}

// Label returns the label id of v.
func (g *Graph) Label(v Node) Label { return g.label[v] }

// LabelName returns the label name of v.
func (g *Graph) LabelName(v Node) string { return g.labels.Name(g.label[v]) }

func searchNode(s []Node, v Node) (int, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i, i < len(s) && s[i] == v
}

// HasEdge reports whether edge (u,v) exists.
func (g *Graph) HasEdge(u, v Node) bool {
	_, ok := searchNode(g.out.row(u), v)
	return ok
}

// AddEdge inserts the edge (u,v). It returns false if the edge already
// existed (E is a set).
func (g *Graph) AddEdge(u, v Node) bool {
	i, ok := searchNode(g.out.row(u), v)
	if ok {
		return false
	}
	g.own()
	g.m++
	g.out.edit(u, i, v, true, g.m)
	j, _ := searchNode(g.in.row(v), u)
	g.in.edit(v, j, u, true, g.m)
	return true
}

// RemoveEdge deletes the edge (u,v). It returns false if the edge did not
// exist.
func (g *Graph) RemoveEdge(u, v Node) bool {
	i, ok := searchNode(g.out.row(u), v)
	if !ok {
		return false
	}
	g.own()
	g.m--
	g.out.edit(u, i, v, false, g.m)
	j, _ := searchNode(g.in.row(v), u)
	g.in.edit(v, j, u, false, g.m)
	return true
}

// edit inserts x at position i of row v (ins) or removes the entry there,
// live being the side's entry count after the edit. A row above the seal is
// edited in place: a removal shifts its tail left, and an insertion shifts
// it right when the row ends at the graph's end and the graph claims one
// more entry of the arena. Any other row is written anew at the arena's
// tip, or, when the arena is full, past its dead share or no longer the
// graph's to append to, the side is packed into a fresh arena.
func (s *wside) edit(v Node, i int, x Node, ins bool, live int) {
	s.compact = false
	r := s.rows[v]
	at, buf := int(r.lo)+i, s.ar.buf
	if r.lo >= s.seal {
		if !ins {
			copy(buf[at:r.hi], buf[at+1:r.hi])
			s.rows[v].hi--
			return
		}
		if int(r.hi) == len(s.adj) && s.claim(1) {
			copy(buf[at+1:r.hi+1], buf[at:r.hi])
			buf[at] = x
			s.rows[v].hi++
			return
		}
	}
	old := s.adj[r.lo:r.hi]
	n := len(old) - 1
	if ins {
		n += 2
	}
	end := len(s.adj)
	if arenaSlack*(end+n-live) > live || !s.claim(n) {
		s.side = pack(&s.side, live, len(s.rows), []Node{v}, func(int) []Node { return edited(make([]Node, n), old, i, x, ins) })
		s.seal = 0
		return
	}
	s.rows[v] = span{int32(end), int32(end + n)}
	edited(buf[end:end+n], old, i, x, ins)
}

// claim extends the side by k entries at its arena's tip, if the arena has
// room and the tip is still the side's end.
func (s *wside) claim(k int) bool {
	end := len(s.adj)
	if end+k > len(s.ar.buf) || !s.ar.tip.CompareAndSwap(int32(end), int32(end+k)) {
		return false
	}
	s.adj = s.ar.buf[:end+k]
	return true
}

// edited writes row with x inserted at i (ins), or with its entry at i
// removed, to dst and returns dst.
func edited(dst, row []Node, i int, x Node, ins bool) []Node {
	copy(dst, row[:i])
	if ins {
		dst[i] = x
		copy(dst[i+1:], row[i:])
	} else {
		copy(dst[i:], row[i+1:])
	}
	return dst
}

// Successors returns the sorted successor list of v. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Successors(v Node) []Node { return g.out.row(v) }

// Predecessors returns the sorted predecessor list of v. The returned slice
// is owned by the graph and must not be modified.
func (g *Graph) Predecessors(v Node) []Node { return g.in.row(v) }

// OutDegree returns the number of successors of v.
func (g *Graph) OutDegree(v Node) int {
	r := g.out.rows[v]
	return int(r.hi - r.lo)
}

// InDegree returns the number of predecessors of v.
func (g *Graph) InDegree(v Node) int {
	r := g.in.rows[v]
	return int(r.hi - r.lo)
}

// Edges calls fn for every edge (u,v) in ascending (u,v) order. If fn
// returns false, iteration stops.
func (g *Graph) Edges(fn func(u, v Node) bool) {
	for u := range g.out.rows {
		for _, v := range g.out.row(Node(u)) {
			if !fn(Node(u), v) {
				return
			}
		}
	}
}

// EdgeList returns all edges as a flat slice of [2]Node pairs in ascending
// order.
func (g *Graph) EdgeList() [][2]Node {
	out := make([][2]Node, 0, g.m)
	g.Edges(func(u, v Node) bool {
		out = append(out, [2]Node{u, v})
		return true
	})
	return out
}

// Clone returns a deep, compact copy of the graph sharing the label table.
func (g *Graph) Clone() *Graph {
	n := len(g.label)
	return &Graph{
		labels: g.labels,
		label:  slices.Clone(g.label),
		m:      g.m,
		out:    wside{side: pack(&g.out.side, g.m, n, nil, nil)},
		in:     wside{side: pack(&g.in.side, g.m, n, nil, nil)},
	}
}

// Validate checks internal invariants (sorted unique adjacency, in/out
// symmetry, edge count, and rows above a seal inside the arena and
// disjoint). It is intended for tests and returns a descriptive error on
// the first violation found.
func (g *Graph) Validate() error {
	if err := g.out.check("out", len(g.label), g.m); err != nil {
		return err
	}
	if err := g.in.check("in", len(g.label), g.m); err != nil {
		return err
	}
	count := 0
	for u := range g.out.rows {
		prev := Node(-1)
		for _, v := range g.out.row(Node(u)) {
			if v <= prev {
				return fmt.Errorf("graph: out[%d] not sorted/unique at %d", u, v)
			}
			if int(v) < 0 || int(v) >= len(g.label) {
				return fmt.Errorf("graph: out[%d] references invalid node %d", u, v)
			}
			if _, ok := searchNode(g.in.row(v), Node(u)); !ok {
				return fmt.Errorf("graph: edge (%d,%d) missing from in-list", u, v)
			}
			prev = v
			count++
		}
	}
	if count != g.m {
		return fmt.Errorf("graph: edge count %d != recorded %d", count, g.m)
	}
	inCount := 0
	for v := range g.in.rows {
		prev := Node(-1)
		for _, u := range g.in.row(Node(v)) {
			if u <= prev {
				return fmt.Errorf("graph: in[%d] not sorted/unique at %d", v, u)
			}
			if _, ok := searchNode(g.out.row(u), Node(v)); !ok {
				return fmt.Errorf("graph: edge (%d,%d) missing from out-list", u, v)
			}
			prev = u
			inCount++
		}
	}
	if inCount != g.m {
		return fmt.Errorf("graph: in-edge count %d != recorded %d", inCount, g.m)
	}
	return nil
}

// check validates the side's layout over n nodes with m live entries: every
// row inside the side's end and on one side of the seal, the rows above it
// disjoint, and a compact side's rows back to back in node order.
func (s *wside) check(name string, n, m int) error {
	if len(s.rows) != n {
		return fmt.Errorf("graph: %s has %d rows for %d nodes", name, len(s.rows), n)
	}
	end := int32(len(s.adj))
	if end > s.ar.tip.Load() || int(s.ar.tip.Load()) > len(s.ar.buf) || s.seal > end {
		return fmt.Errorf("graph: %s ends at %d, sealed at %d, its arena's tip at %d of %d", name, end, s.seal, s.ar.tip.Load(), len(s.ar.buf))
	}
	var own []span
	pos := int32(0)
	for v, r := range s.rows {
		switch {
		case r.lo < 0 || r.lo > r.hi || r.hi > end:
			return fmt.Errorf("graph: %s row %d spans [%d,%d) of %d entries", name, v, r.lo, r.hi, end)
		case r.lo < s.seal && r.hi > s.seal:
			return fmt.Errorf("graph: %s row %d spans [%d,%d) across the seal at %d", name, v, r.lo, r.hi, s.seal)
		case s.compact && r.lo != pos:
			return fmt.Errorf("graph: %s is compact but row %d starts at %d, not %d", name, v, r.lo, pos)
		case r.lo >= s.seal && r.hi > r.lo:
			own = append(own, r)
		}
		pos = r.hi
	}
	if s.compact && int(end) != m {
		return fmt.Errorf("graph: %s is compact but holds %d entries for %d edges", name, end, m)
	}
	slices.SortFunc(own, func(a, b span) int { return int(a.lo - b.lo) })
	for k := 1; k < len(own); k++ {
		if own[k].lo < own[k-1].hi {
			return fmt.Errorf("graph: %s rows [%d,%d) and [%d,%d) overlap", name, own[k-1].lo, own[k-1].hi, own[k].lo, own[k].hi)
		}
	}
	return nil
}

// String returns a compact human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{|V|=%d |E|=%d |L|=%d}", g.NumNodes(), g.NumEdges(), g.labels.Count())
}

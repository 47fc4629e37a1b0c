package increach

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/reach"
)

// View is one published reach view: Gr, its classes in topological order,
// and Compressed, the node → class map with the classes' cyclic flags, which
// holds no mutable Gr and no member lists.
type View struct {
	Gr         *graph.CSR
	Compressed *reach.Compressed
}

// Assemble returns the view of gr under the node → class map classOf with
// the classes' cyclic flags, taking ownership of both arrays.
func Assemble(gr *graph.CSR, classOf []graph.Node, cyclic []bool) View {
	return View{Gr: gr, Compressed: reach.AssembleCompressed(nil, classOf, cyclic)}
}

// How says how View made the view it returned.
type How uint8

const (
	// Kept is the previous view: no regroup ran since.
	Kept How = iota
	// Rebuilt is a view made anew after a regroup.
	Rebuilt
	// Built is the maintainer's first view.
	Built
)

// Diff is how View made its view from the previous one. For Rebuilt, when
// View was asked for it, ClassMap maps each previous class to the class of
// its smallest member, ExNode lists, ascending, the nodes that do not follow
// their class, and ExClass their classes; otherwise all three are empty.
type Diff struct {
	How                       How
	ClassMap, ExNode, ExClass []graph.Node
}

// View returns the view of the current compression and how it was made from
// the previous call's: that view when no regroup ran since, otherwise the
// last regroup's Gr with one gather over V for the class map — class ids are
// topological, so nothing is done on Gr — and, with diff set, the diff taken
// in the same gather. The Diff is valid until the next call. A caller that
// publishes the views, diffs included, must be View's only caller.
func (m *Maintainer) View(diff bool) (View, *Diff) {
	d := &m.diff
	d.ClassMap, d.ExNode, d.ExClass = d.ClassMap[:0], d.ExNode[:0], d.ExClass[:0]
	switch {
	case m.view.Gr == nil:
		d.How = Built
		m.view = Assemble(m.gr, m.classMap(nil), m.cyclic)
	case m.viewGen != m.gen:
		d.How = Rebuilt
		if !diff {
			d = nil
		}
		m.view = Assemble(m.gr, m.classMap(d), m.cyclic)
	default:
		d.How = Kept
	}
	m.viewGen = m.gen
	return m.view, &m.diff
}

// classMap returns a fresh node → class map. With d set it fills d's maps
// against the previous view on the way: an old class maps to the class of
// the first node met in it, its smallest member.
func (m *Maintainer) classMap(d *Diff) []graph.Node {
	var oldOf []graph.Node
	if d != nil {
		oldOf = m.view.Compressed.ClassMap()
		d.ClassMap = slices.Grow(d.ClassMap, m.view.Compressed.NumClasses())[:m.view.Compressed.NumClasses()]
		for c := range d.ClassMap {
			d.ClassMap[c] = -1
		}
	}
	classOf := make([]graph.Node, m.Graph().NumNodes())
	for v := range classOf {
		to := m.node[m.blockOf[m.cond.CompOf(graph.Node(v))]]
		classOf[v] = to
		if d == nil {
			continue
		}
		switch c := oldOf[v]; {
		case d.ClassMap[c] < 0:
			d.ClassMap[c] = to
		case to != d.ClassMap[c]:
			d.ExNode = append(d.ExNode, graph.Node(v))
			d.ExClass = append(d.ExClass, to)
		}
	}
	return classOf
}

// Patch returns the view a shipped diff makes of old over the new quotient
// gr with its cyclic flags: each node follows its old class through
// classMap unless it is exNode[i], which goes to exClass[i]. The diff must
// have passed snapfile.DecodeDiff, which checks ids, counts and order;
// Patch checks what needs old: the map must cover old's classes, and no
// class of gr may be left empty.
func Patch(old View, classMap, exNode, exClass []graph.Node, gr *graph.CSR, cyclic []bool) (View, error) {
	if len(classMap) != old.Compressed.NumClasses() {
		return View{}, fmt.Errorf("reach map over %d classes, the view has %d", len(classMap), old.Compressed.NumClasses())
	}
	classOf := make([]graph.Node, len(old.Compressed.ClassMap()))
	for v, c := range old.Compressed.ClassMap() {
		classOf[v] = classMap[c]
	}
	for i, v := range exNode {
		classOf[v] = exClass[i]
	}
	seen, left := make([]bool, gr.NumNodes()), gr.NumNodes()
	for _, c := range classOf {
		if !seen[c] {
			seen[c] = true
			left--
		}
	}
	if left > 0 {
		return View{}, fmt.Errorf("reach class %d is empty", slices.Index(seen, false))
	}
	return Assemble(gr, classOf, cyclic), nil
}

package graph

import (
	"cmp"
	"slices"
)

// This file implements locality-aware CSR reordering: a node permutation
// chosen so that frontier expansion walks near-sequential memory, plus the
// machinery to apply it. A BFS that visits nodes in discovery order touches
// adjacency rows in exactly that order; renumbering nodes by a BFS from
// high-out-degree roots therefore places the rows of nodes discovered
// together next to each other in the flat adjacency arrays, turning the
// random-access row hops of an insertion-ordered CSR into mostly-forward
// streaming. The permuted CSR is a relabeled isomorphic copy: queries
// rewrite their endpoints through the id maps once at entry (O(1)), and
// the traversal hot loop itself never consults the maps.

// Reordered couples a locality-permuted CSR snapshot with its id maps.
// C's node i corresponds to original node OldID[i]; original node v lives
// at C's node NewID[v]. Immutable after construction.
type Reordered struct {
	// C is the permuted CSR.
	C *CSR
	// NewID maps an original node id to its id in C.
	NewID []Node
	// OldID maps a node id of C back to the original id.
	OldID []Node
}

// ToNew translates an original node id into the permuted id space.
func (r *Reordered) ToNew(v Node) Node { return r.NewID[v] }

// Reorder computes the locality permutation of c (ReorderPerm) and returns
// the permuted CSR with both id maps. O(|V| log |V| + |E| log d) for max
// row degree d.
func Reorder(c *CSR) *Reordered {
	return ApplyPerm(c, ReorderPerm(c))
}

// ReorderPerm returns the locality permutation as a newID slice: a forward
// BFS numbering from roots taken in descending out-degree order (ties by
// ascending id), covering every node. High-degree hubs and the nodes they
// fan out to — the regions every traversal spends its time in — end up
// contiguous at the front of the permuted arrays; untouched tails keep
// relative order among themselves per root. The permutation is
// deterministic for a given CSR.
func ReorderPerm(c *CSR) []Node {
	n := c.NumNodes()
	roots := make([]Node, n)
	for v := range roots {
		roots[v] = Node(v)
	}
	slices.SortFunc(roots, func(a, b Node) int {
		if d := cmp.Compare(c.OutDegree(b), c.OutDegree(a)); d != 0 {
			return d
		}
		return cmp.Compare(a, b)
	})
	newID := make([]Node, n)
	for v := range newID {
		newID[v] = -1
	}
	next := Node(0)
	queue := make([]Node, 0, 256)
	for _, r := range roots {
		if newID[r] >= 0 {
			continue
		}
		newID[r] = next
		next++
		queue = append(queue[:0], r)
		for i := 0; i < len(queue); i++ {
			for _, w := range c.Successors(queue[i]) {
				if newID[w] < 0 {
					newID[w] = next
					next++
					queue = append(queue, w)
				}
			}
		}
	}
	return newID
}

// ReorderTopoPerm returns a permutation that is simultaneously a locality
// order and a TOPOLOGICAL order of c ignoring self-loops: Kahn's algorithm
// with a FIFO queue numbers the nodes level by level from the sources, so
// every non-self-loop edge (u,v) satisfies newID[u] < newID[v] and nodes
// of one BFS level sit contiguously. It panics if c has a cycle beyond
// self-loops — callers use it only on reachability quotients, which are
// DAGs with self-loops on cyclic classes by construction. A CSR permuted
// by this order supports the one-pass batch sweep of
// queries.BatchReachableTopoHub.
func ReorderTopoPerm(c *CSR) []Node {
	n := c.NumNodes()
	indeg := make([]int32, n)
	for v := 0; v < n; v++ {
		for _, w := range c.Successors(Node(v)) {
			if w != Node(v) {
				indeg[w]++
			}
		}
	}
	newID := make([]Node, n)
	queue := make([]Node, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, Node(v))
		}
	}
	next := Node(0)
	for i := 0; i < len(queue); i++ {
		x := queue[i]
		newID[x] = next
		next++
		for _, w := range c.Successors(x) {
			if w == x {
				continue
			}
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if int(next) != n {
		panic("graph: ReorderTopoPerm on a graph with a non-self-loop cycle")
	}
	return newID
}

// IsTopoOrdered reports whether every non-self-loop edge of c goes from a
// smaller to a larger node id — the precondition of the one-pass batch
// sweep. O(|E|); used by tests and paranoid callers, not hot paths.
func IsTopoOrdered(c *CSR) bool {
	ok := true
	c.Edges(func(u, v Node) bool {
		if v < u {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// ApplyPerm builds the permuted CSR for a newID permutation, which must be
// a bijection on [0, NumNodes) — ReorderPerm's output, or a permutation
// recovered from a snapshot file (validated there). It panics on a
// malformed permutation. The label table is shared with c; adjacency rows
// are remapped so that every CSR invariant (ascending rows) holds in the
// new id space, in O(|V|+|E|).
func ApplyPerm(c *CSR, newID []Node) *Reordered {
	n := c.NumNodes()
	if len(newID) != n {
		panic("graph: ApplyPerm: permutation length mismatch")
	}
	oldID := make([]Node, n)
	for v := range oldID {
		oldID[v] = -1
	}
	for v, nv := range newID {
		if nv < 0 || int(nv) >= n || oldID[nv] >= 0 {
			panic("graph: ApplyPerm: not a permutation")
		}
		oldID[nv] = Node(v)
	}
	p := &CSR{
		labels: c.labels,
		label:  make([]Label, n),
		outOff: make([]int32, n+1),
		outAdj: make([]Node, len(c.outAdj)),
		inOff:  make([]int32, n+1),
		inAdj:  make([]Node, len(c.inAdj)),
	}
	for x := 0; x < n; x++ {
		old := oldID[x]
		p.label[x] = c.label[old]
		p.outOff[x+1] = p.outOff[x] + int32(c.OutDegree(old))
		p.inOff[x+1] = p.inOff[x] + int32(c.InDegree(old))
	}
	// Each side is the transpose of the other, scattered in ascending new
	// id of the far endpoint, so every row comes out sorted without a sort:
	// walking sources in new order fills the predecessor rows, walking
	// targets in new order the successor rows.
	cursor := make([]int32, n)
	copy(cursor, p.inOff)
	for x := 0; x < n; x++ {
		for _, w := range c.Successors(oldID[x]) {
			nw := newID[w]
			p.inAdj[cursor[nw]] = Node(x)
			cursor[nw]++
		}
	}
	copy(cursor, p.outOff)
	for y := 0; y < n; y++ {
		for _, u := range c.Predecessors(oldID[y]) {
			nu := newID[u]
			p.outAdj[cursor[nu]] = Node(y)
			cursor[nu]++
		}
	}
	return &Reordered{C: p, NewID: newID, OldID: oldID}
}

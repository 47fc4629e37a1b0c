package graph

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
// the permuted CSR with both id maps, in O(|V|+|E|).
func Reorder(c *CSR) *Reordered {
	return ApplyPerm(c, ReorderPerm(c))
}

// ReorderPerm returns the locality permutation as a newID slice: a forward
// BFS numbering from roots taken in descending out-degree order (ties by
// ascending id), covering every node. High-degree hubs and the nodes they
// fan out to — the regions every traversal spends its time in — end up
// contiguous at the front of the permuted arrays; untouched tails keep
// relative order among themselves per root. The permutation is
// deterministic for a given CSR. The roots are ordered by one counting sort
// over the out-degrees, which are at most |V|: nodes placed in ascending id
// order keep it within a degree.
func ReorderPerm(c *CSR) []Node {
	n := c.NumNodes()
	start := make([]int32, n+1) // start[n-d]: where degree d's nodes begin
	for v := range n {
		start[n-c.OutDegree(Node(v))]++
	}
	for i, sum := 0, int32(0); i <= n; i++ {
		start[i], sum = sum, sum+start[i]
	}
	roots := make([]Node, n)
	for v := range n {
		i := n - c.OutDegree(Node(v))
		roots[start[i]] = Node(v)
		start[i]++
	}
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

// ApplyPerm builds the permuted CSR of c for a newID permutation, which
// must be a bijection on [0, NumNodes): ReorderPerm's output, or a
// permutation recovered from a snapshot file (validated there). It panics on
// a malformed permutation. The result is compact and shares only the label
// table with c; adjacency rows are remapped so that every CSR invariant
// (ascending rows) holds in the new id space, in O(|V|+|E|).
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
	// Each side is the transpose of the other, scattered in ascending new
	// id of the far endpoint, so every row comes out sorted without a sort:
	// walking sources in new order fills the predecessor rows, walking
	// targets in new order the successor rows. A row's hi is its fill
	// cursor until its walk ends.
	label := make([]Label, n)
	outRows, inRows := make([]span, n), make([]span, n)
	var outPos, inPos int32
	for x, old := range oldID {
		label[x] = c.label[old]
		outRows[x] = span{outPos, outPos}
		inRows[x] = span{inPos, inPos}
		o, i := c.out.rows[old], c.in.rows[old]
		outPos += o.hi - o.lo
		inPos += i.hi - i.lo
	}
	outAdj, inAdj := make([]Node, outPos), make([]Node, inPos)
	for x, old := range oldID {
		for _, w := range c.out.row(old) {
			r := &inRows[newID[w]]
			inAdj[r.hi] = Node(x)
			r.hi++
		}
	}
	for y, old := range oldID {
		for _, u := range c.in.row(old) {
			r := &outRows[newID[u]]
			outAdj[r.hi] = Node(y)
			r.hi++
		}
	}
	p := &CSR{labels: c.labels, label: label, m: int(outPos), out: compactSide(outRows, outAdj), in: compactSide(inRows, inAdj)}
	return &Reordered{C: p, NewID: newID, OldID: oldID}
}

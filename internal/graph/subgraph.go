package graph

// ExtractGroup builds the induced subgraph of the snapshot c on one group
// of a node grouping: given groupOf (node -> group id), the sorted member
// list of the target group, and localID (node -> position in its group's
// member list), it returns a mutable Graph over local ids 0..len(members)-1
// containing exactly the edges of c with both endpoints in the group.
//
// The label table is shared with c; local node i carries the label of
// members[i]. Edges with exactly one endpoint in the group are dropped —
// callers that need them (e.g. a shard coordinator tracking cross-shard
// edges) extract them separately from c.
//
// Successor rows are carved out of one flat backing array with full slice
// expressions, so a later AddEdge on the returned graph reallocates the row
// instead of clobbering a neighbor's. Extraction is O(|members| + Σ deg).
func ExtractGroup(c *CSR, groupOf []int32, group int32, members []Node, localID []int32) *Graph {
	n := len(members)
	label := make([]Label, n)
	// First pass: count the edges staying inside the group.
	total := 0
	for i, v := range members {
		label[i] = c.Label(v)
		for _, w := range c.Successors(v) {
			if groupOf[w] == group {
				total++
			}
		}
	}
	flat := make([]Node, 0, total)
	rows := make([][]Node, n)
	for i, v := range members {
		start := len(flat)
		for _, w := range c.Successors(v) {
			// members is sorted and localID follows that order, so the
			// filtered row comes out sorted in local id space too.
			if groupOf[w] == group {
				flat = append(flat, localID[w])
			}
		}
		if len(flat) > start {
			rows[i] = flat[start:len(flat):len(flat)]
		}
	}
	return BuildFromSortedAdj(c.Labels(), label, rows)
}

// GroupNodes inverts a class map: it returns, for each of the n classes,
// the nodes v with classOf[v] equal to it, ascending. The rows are carved
// out of one flat array by counting sort over node ids.
func GroupNodes(classOf []Node, n int) [][]Node {
	size := make([]int32, n)
	for _, c := range classOf {
		size[c]++
	}
	flat := make([]Node, len(classOf))
	rows := make([][]Node, n)
	off := int32(0)
	for c := range rows {
		rows[c] = flat[off : off : off+size[c]]
		off += size[c]
	}
	for v, c := range classOf {
		rows[c] = append(rows[c], Node(v))
	}
	return rows
}

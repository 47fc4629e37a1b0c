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
// Extraction is O(|members| + Σ deg).
func ExtractGroup(c *CSR, groupOf []int32, group int32, members []Node, localID []int32) *Graph {
	label, rows := make([]Label, len(members)), make([]span, len(members))
	var adj []Node
	for i, v := range members {
		label[i] = c.Label(v)
		start := int32(len(adj))
		for _, w := range c.Successors(v) {
			// members is sorted and localID follows that order, so the
			// filtered row comes out sorted in local id space too.
			if groupOf[w] == group {
				adj = append(adj, localID[w])
			}
		}
		rows[i] = span{start, int32(len(adj))}
	}
	out := compactSide(rows, adj)
	return &Graph{labels: c.Labels(), label: label, m: len(adj), out: wside{side: out}, in: wside{side: transpose(&out, len(adj))}}
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

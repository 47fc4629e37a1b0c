package graph

// Quotient returns the quotient CSR of a partition of g into len(first)
// blocks, blockOf mapping each node of g to its block: block b is labeled
// label[b], under g's label table, and its row lists, ascending and each
// once, the blocks of the successors of first[b], one member of b. For a
// stable partition (a bisimulation) one member's row stands for the
// block's, since bisimilar nodes have equal successor-block sets. It takes
// ownership of label; every id blockOf holds must lie in [0, len(first)).
//
// No row is sorted: the first members' rows are walked in ascending block
// order into the predecessor side, whose rows therefore come out ascending,
// with a "last source seen" stamp per target dropping duplicates; the
// successor side is then one transposition of it, written over the
// unsorted rows the walk left, so its rows come out ascending too.
func Quotient[G interface {
	Labels() *Labels
	Successors(Node) []Node
}](g G, label []Label, first, blockOf []Node) *CSR {
	n := len(first)
	size := 0
	for _, v := range first {
		size += len(g.Successors(v))
	}
	rows, in := make([]span, n), make([]span, n)
	last := make([]int32, n) // 1 + the last source block that listed a target
	adj := make([]Node, 0, size)
	for a, v := range first {
		lo := int32(len(adj))
		for _, w := range g.Successors(v) {
			if b := blockOf[w]; last[b] != int32(a)+1 {
				last[b] = int32(a) + 1
				adj = append(adj, b)
				in[b].hi++
			}
		}
		rows[a] = span{lo, int32(len(adj))}
	}
	m := len(adj)
	walked := side{rows: rows, adj: adj}
	pred := fill(&walked, in, m)
	// Each row's cursor, reusing last: the row's start, then past what the
	// transposition wrote into it.
	for a, r := range rows {
		last[a] = r.lo
	}
	for b := range pred.rows {
		for _, a := range pred.row(Node(b)) {
			adj[last[a]] = Node(b)
			last[a]++
		}
	}
	return &CSR{labels: g.Labels(), label: label, m: m, out: compactSide(rows, adj), in: pred}
}

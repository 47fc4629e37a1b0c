package reach

import (
	"repro/internal/graph"
)

// SCCCompress collapses every strongly connected component of g into a
// single node, preserving reachability. This is the Gscc optimization of
// Section 3.2 and the |Gscc| denominator of the RCscc column of Table 1.
// Cyclic components receive a self-loop so that QR(v,v) and within-SCC
// queries remain answerable by unmodified BFS.
func SCCCompress(g *graph.Graph) *Compressed {
	scc := graph.Tarjan(g)
	n := scc.NumComponents()
	off := make([]int32, n+1)
	var adj []graph.Node
	for a := range int32(n) {
		adj = append(adj, scc.Out(a)...)
		if scc.Cyclic[a] {
			adj = append(adj, a) // after Out(a), whose ids are all below a
		}
		off[a+1] = int32(len(adj))
	}
	return &Compressed{Gr: sigmaGraph(off, adj), classOf: scc.Comp, CyclicClass: scc.Cyclic}
}

// AHOReduce computes the transitive reduction of g in the sense of Aho,
// Garey and Ullman [1]: the minimum subgraph-shaped graph over the same
// node set V with the same transitive closure. Every nontrivial SCC is
// replaced by a simple cycle through its members, and the condensation is
// transitively reduced. It is the paper's comparison baseline (column
// RCaho of Table 1). Unlike Compress, the node set is unchanged: only
// edges shrink.
func AHOReduce(g *graph.Graph) *graph.Graph {
	scc := graph.Tarjan(g)
	n := scc.NumComponents()

	out := graph.New(g.Labels())
	for v := 0; v < g.NumNodes(); v++ {
		out.AddNode(g.Label(graph.Node(v)))
	}

	// Simple cycle through each nontrivial SCC; keep self-loops of trivial
	// cyclic components (they are part of the closure).
	for comp := range int32(n) {
		ms := scc.Members(comp)
		if len(ms) > 1 {
			for i := range ms {
				out.AddEdge(ms[i], ms[(i+1)%len(ms)])
			}
		} else if scc.Cyclic[comp] {
			out.AddEdge(ms[0], ms[0])
		}
	}

	// Transitive reduction of the condensation, realized by one member
	// edge per kept condensation edge.
	off, adj, _ := scc.OutRows()
	var k Kernel
	k.reduce(off, adj)
	for p, a := range k.order {
		for _, q := range k.outRow(int32(p)) {
			out.AddEdge(scc.Members(a)[0], scc.Members(k.order[q])[0])
		}
	}
	return out
}

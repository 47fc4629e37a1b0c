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
	labels := graph.NewLabels()
	sigma := labels.Intern(SigmaLabel)
	gr := graph.New(labels)
	for i := 0; i < n; i++ {
		gr.AddNode(sigma)
	}
	for a := range scc.Out {
		for _, b := range scc.Out[a] {
			gr.AddEdge(int32(a), b)
		}
	}
	c := &Compressed{
		Gr:          gr,
		classOf:     scc.Comp,
		CyclicClass: make([]bool, n),
	}
	for comp := 0; comp < n; comp++ {
		if scc.Cyclic[comp] {
			c.CyclicClass[comp] = true
			gr.AddEdge(int32(comp), int32(comp))
		}
	}
	return c
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
	for comp := 0; comp < n; comp++ {
		ms := scc.Members[comp]
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
	var k Kernel
	k.reduce(scc.Out)
	for p, a := range k.order {
		for _, q := range k.outRow(int32(p)) {
			out.AddEdge(scc.Members[a][0], scc.Members[k.order[q]][0])
		}
	}
	return out
}

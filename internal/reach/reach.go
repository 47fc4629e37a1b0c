package reach

import (
	"math"

	"repro/internal/graph"
)

// SigmaLabel is the fixed label σ assigned to every node of a
// reachability-compressed graph (node labels are irrelevant to reachability
// queries, Section 3.1 of the paper).
const SigmaLabel = "σ"

// Compressed is the result of reachability preserving compression: the
// compressed graph Gr together with the node mapping R, forming the <R,F>
// pair of Theorem 2 (no post-processing P is needed for reachability, so
// no inverse index is kept: graph.GroupNodes(ClassMap(), NumClasses())
// lists the members of every class).
type Compressed struct {
	// Gr is the compressed graph. Any reachability algorithm runs on it
	// unmodified. Nil in the views of a store snapshot, which publish the
	// quotient as a CSR instead.
	Gr *graph.Graph
	// classOf maps every node of G to its class node in Gr (the mapping R).
	classOf []graph.Node
	// CyclicClass reports whether a class contains a cyclic SCC; such
	// classes carry a self-loop in Gr.
	CyclicClass []bool
}

// ClassOf returns R(v), the class node of Gr representing v.
func (c *Compressed) ClassOf(v graph.Node) graph.Node { return c.classOf[v] }

// ClassMap exposes the full node mapping R as a slice indexed by node of G.
// Read-only; used by the snapshot codec.
func (c *Compressed) ClassMap() []graph.Node { return c.classOf }

// Rewrite implements the query rewriting function F: it maps the
// reachability query QR(u,v) on G to QR(R(u),R(v)) on Gr in O(1).
func (c *Compressed) Rewrite(u, v graph.Node) (graph.Node, graph.Node) {
	return c.classOf[u], c.classOf[v]
}

// NumClasses returns |Vr|.
func (c *Compressed) NumClasses() int { return len(c.CyclicClass) }

// Ratio returns the compression ratio RCr = |Gr| / |G| for the original
// graph g. It is NaN for a compression assembled without Gr — the views of
// a store snapshot, which publish the quotient as a frozen CSR beside the
// mapping; Store.Stats reports their ratios.
func (c *Compressed) Ratio(g *graph.Graph) float64 {
	if c.Gr == nil {
		return math.NaN()
	}
	return float64(c.Gr.Size()) / float64(g.Size())
}

// AssembleCompressed packages an externally maintained or decoded quotient
// with its node mapping into a Compressed value: Gr (nil in a store's views,
// which carry the quotient as a CSR), R as a node → class map, and the
// classes' cyclic flags.
func AssembleCompressed(gr *graph.Graph, classOf []graph.Node, cyclic []bool) *Compressed {
	return &Compressed{Gr: gr, classOf: classOf, CyclicClass: cyclic}
}

// Compress computes the reachability preserving compression R(G) of g
// (algorithm compressR, Fig. 5 of the paper, with the SCC optimization of
// Section 3.2): Tarjan, then the quotient kernel over the condensation. See
// the package documentation for the construction and its correctness
// argument. Gr comes out topologically numbered (Kernel.Quotient).
func Compress(g *graph.Graph) *Compressed {
	scc := graph.Tarjan(g)
	sccOff, sccOut, _ := scc.OutRows()
	var k Kernel
	classOfComp, off, adj, cyclic := k.Quotient(sccOff, sccOut, scc.Cyclic)
	c := &Compressed{
		classOf:     make([]graph.Node, g.NumNodes()),
		CyclicClass: cyclic,
	}
	for v := range c.classOf {
		c.classOf[v] = classOfComp[scc.Comp[v]]
	}
	c.Gr = sigmaGraph(off, adj)
	return c
}

// sigmaGraph builds the graph whose node v, labeled σ, has the successors
// adj[off[v]:off[v+1]], sorted and in range; it keeps adj.
func sigmaGraph(off []int32, adj []graph.Node) *graph.Graph {
	labels := graph.NewLabels()
	labels.Intern(SigmaLabel) // σ is label 0, the zero of every entry below
	gr, err := graph.CSRFromRows(labels, make([]graph.Label, len(off)-1), off, adj)
	if err != nil {
		panic("reach: " + err.Error()) // the callers' rows are well-formed by construction
	}
	return gr.Thaw()
}

package bisim

import (
	"math"
	"slices"

	"repro/internal/graph"
)

// Compressed is the result of graph pattern preserving compression
// (Section 4.1): the quotient Gr of G under the maximum bisimulation Rb,
// together with the node mapping R and the inverse member index used by
// the post-processing function P.
type Compressed struct {
	// Gr is the compressed graph: one node per bisimulation class, labeled
	// with the common label of its members, with an edge ([v],[w]) whenever
	// some member edge (v',w') exists — including self-loops when a class
	// has internal edges (compressB, Fig. 7, lines 7–9). Nil in the views
	// of a store snapshot, which publish the quotient as a CSR instead.
	Gr *graph.Graph
	// blockOf maps each node of G to its class node in Gr (the mapping R).
	blockOf []graph.Node
	// Members lists the original nodes of each class (inverse index).
	Members [][]graph.Node
}

// ClassOf returns R(v), the Gr node representing v.
func (c *Compressed) ClassOf(v graph.Node) graph.Node { return c.blockOf[v] }

// ClassMap exposes the full node mapping R as a slice indexed by node of G.
// Read-only; used by the snapshot codec.
func (c *Compressed) ClassMap() []graph.Node { return c.blockOf }

// AssembleCompressed packages an externally reconstructed quotient with its
// node mapping into a Compressed value, taking ownership of all arguments.
// Used for the views incPCM publishes and a store decodes or patches — with
// a nil gr, since those carry the quotient as a frozen CSR — and for the
// incremental maintainer's Compressed, which thaws one.
func AssembleCompressed(gr *graph.Graph, blockOf []graph.Node, members [][]graph.Node) *Compressed {
	return &Compressed{Gr: gr, blockOf: blockOf, Members: members}
}

// NumClasses returns |Vr|.
func (c *Compressed) NumClasses() int { return len(c.Members) }

// Ratio returns PCr = |Gr| / |G|. It is NaN for a compression assembled
// without Gr — the views of a store snapshot, which publish the quotient as
// a frozen CSR beside the mapping; Store.Stats reports their ratios.
func (c *Compressed) Ratio(g *graph.Graph) float64 {
	if c.Gr == nil {
		return math.NaN()
	}
	return float64(c.Gr.Size()) / float64(g.Size())
}

// Compress computes the pattern preserving compression R(G) of g
// (algorithm compressB, Fig. 7) using Paige–Tarjan refinement (Theorem 4's
// O(|E| log |V|)). It freezes one CSR snapshot and shares it between the
// refinement and the quotient construction. RefineNaive produces the
// identical (maximum bisimulation) partition and stays as the reference
// tests compare against: Quotient(g, RefineNaive(g)) is the same
// compression by the slow road.
func Compress(g *graph.Graph) *Compressed {
	c := g.Freeze()
	return quotient(c, RefinePTCSR(c))
}

// Quotient materializes the compressed graph for an arbitrary bisimulation
// partition p of g. The label table is shared with g: unlike reachability
// compression, pattern compression must preserve labels.
func Quotient(g *graph.Graph, p *Partition) *Compressed {
	return quotient(g.Freeze(), p)
}

// quotient builds the compressed graph in bulk: each class's row (including
// its self-loop from intra-class member edges) is collected from its
// members' edges with a per-class stamp for deduplication, sorted — rows are
// short — and handed to graph.BuildFromSortedAdj. No per-edge sorted
// insertion, no hash-based dedup and no sort over all of E.
func quotient(c *graph.CSR, p *Partition) *Compressed {
	numBlocks := p.NumBlocks()
	seen := make([]int32, numBlocks) // class -> 1 + the last source class that listed it
	flat := make([]graph.Node, 0, numBlocks)
	end := make([]int32, numBlocks)
	labelArr := make([]graph.Label, numBlocks)
	for a, members := range p.Blocks {
		start := len(flat)
		for _, v := range members {
			for _, w := range c.Successors(v) {
				if b := p.BlockOf[w]; seen[b] != int32(a)+1 {
					seen[b] = int32(a) + 1
					flat = append(flat, b)
				}
			}
		}
		slices.Sort(flat[start:])
		end[a] = int32(len(flat))
		labelArr[a] = c.Label(members[0])
	}
	// Rows are carved only now: flat may have moved while it grew.
	rows := make([][]graph.Node, numBlocks)
	start := int32(0)
	for a, e := range end {
		rows[a] = flat[start:e:e]
		start = e
	}
	gr := graph.BuildFromSortedAdj(c.Labels(), labelArr, rows)

	// Copy the member lists into one flat backing array (the Compressed
	// value must not alias the partition's storage).
	memFlat := make([]graph.Node, 0, c.NumNodes())
	members := make([][]graph.Node, numBlocks)
	for b := range p.Blocks {
		start := len(memFlat)
		memFlat = append(memFlat, p.Blocks[b]...)
		members[b] = memFlat[start:len(memFlat):len(memFlat)]
	}
	return &Compressed{
		Gr:      gr,
		blockOf: append([]graph.Node(nil), p.BlockOf...),
		Members: members,
	}
}

package reach

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// SigmaLabel is the fixed label σ assigned to every node of a
// reachability-compressed graph (node labels are irrelevant to reachability
// queries, Section 3.1 of the paper).
const SigmaLabel = "σ"

// Compressed is the result of reachability preserving compression: the
// compressed graph Gr together with the node mapping R and its inverse
// index, forming the <R,F> pair of Theorem 2 (no post-processing P is
// needed for reachability).
type Compressed struct {
	// Gr is the compressed graph. Any reachability algorithm runs on it
	// unmodified. Nil in the views of a store snapshot, which publish the
	// quotient as a CSR instead.
	Gr *graph.Graph
	// classOf maps every node of G to its class node in Gr (the mapping R).
	classOf []graph.Node
	// Members lists, for every class node of Gr, the original nodes it
	// represents (the inverse index used by post-processing).
	Members [][]graph.Node
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
func (c *Compressed) NumClasses() int { return len(c.Members) }

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
// with its node mapping into a Compressed value. Used by the incremental
// maintainer, the store's reorder pass and the snapshot decoder; the store
// passes a nil gr, since its views carry the quotient as a frozen CSR.
func AssembleCompressed(gr *graph.Graph, classOf []graph.Node, members [][]graph.Node, cyclic []bool) *Compressed {
	return &Compressed{Gr: gr, classOf: classOf, Members: members, CyclicClass: cyclic}
}

// Compress computes the reachability preserving compression R(G) of g
// (algorithm compressR, Fig. 5 of the paper, with the SCC optimization of
// Section 3.2). See the package documentation for the precise construction
// and its correctness argument.
func Compress(g *graph.Graph) *Compressed {
	scc := graph.Tarjan(g)
	return compressFromSCC(g, scc)
}

// compressFromSCC performs the quotient construction given the
// condensation.
func compressFromSCC(g *graph.Graph, scc *graph.SCC) *Compressed {
	n := scc.NumComponents()

	// Group trivial SCCs by strict descendant set, then by strict ancestor
	// set; cyclic SCCs are singleton classes (package doc, fact 2). The two
	// DP+grouping passes are independent — one walks the condensation sinks
	// to sources, the other sources to sinks, each owning its grouper — so
	// they run concurrently.
	descGroup := make([]int32, n)
	ancGroup := make([]int32, n)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		dg := newSetGrouper()
		descendantDP(scc, func(comp int32, desc *bitset.Set) {
			if !scc.Cyclic[comp] {
				descGroup[comp] = int32(dg.groupOf(desc))
			}
		})
	}()
	go func() {
		defer wg.Done()
		ag := newSetGrouper()
		ancestorDP(scc, func(comp int32, anc *bitset.Set) {
			if !scc.Cyclic[comp] {
				ancGroup[comp] = int32(ag.groupOf(anc))
			}
		})
	}()
	wg.Wait()

	// Assign class ids: one per cyclic SCC, one per (descGroup, ancGroup)
	// pair of trivial SCCs.
	classOfComp := make([]int32, n)
	pairClass := make(map[[2]int32]int32)
	next := int32(0)
	for comp := 0; comp < n; comp++ {
		if scc.Cyclic[comp] {
			classOfComp[comp] = next
			next++
			continue
		}
		key := [2]int32{descGroup[comp], ancGroup[comp]}
		id, ok := pairClass[key]
		if !ok {
			id = next
			next++
			pairClass[key] = id
		}
		classOfComp[comp] = id
	}
	numClasses := int(next)

	c := &Compressed{
		classOf:     make([]graph.Node, g.NumNodes()),
		CyclicClass: make([]bool, numClasses),
	}
	for v := range c.classOf {
		c.classOf[v] = classOfComp[scc.Comp[v]]
	}
	c.Members = graph.GroupNodes(c.classOf, numClasses)
	for comp := 0; comp < n; comp++ {
		if scc.Cyclic[comp] {
			c.CyclicClass[classOfComp[comp]] = true
		}
	}

	rawAdj := make([][]int32, numClasses)
	for a := range scc.Out {
		ca := classOfComp[a]
		for _, b := range scc.Out[a] {
			rawAdj[ca] = append(rawAdj[ca], classOfComp[b])
		}
	}
	c.Gr = BuildQuotientGraph(rawAdj, c.CyclicClass)
	return c
}

// BuildQuotientGraph constructs a reachability-compressed graph from raw
// (possibly duplicated) class-level adjacency: class nodes labeled σ,
// deduplicated inter-class edges with transitive reduction applied, and
// self-loops on cyclic classes.
//
// Candidate edges are deduplicated by a packed-pair sort rather than a
// hash map, the reduction runs one pooled pass in reverse topological order
// (peak bitset memory proportional to the antichain width of the class DAG,
// not |Vr|²), and the final graph is assembled in bulk with
// graph.BuildFromSortedAdj — no per-edge sorted insertion.
func BuildQuotientGraph(rawAdj [][]int32, cyclic []bool) *graph.Graph {
	numClasses := len(rawAdj)
	labels := graph.NewLabels()
	sigma := labels.Intern(SigmaLabel)

	// Deduplicate candidate class edges by sorting packed pairs.
	nPairs := 0
	for a := range rawAdj {
		nPairs += len(rawAdj[a])
	}
	pairs := make([]uint64, 0, nPairs)
	for a := range rawAdj {
		ca := int32(a)
		for _, cb := range rawAdj[a] {
			if ca == cb {
				// Impossible for distinct comps of one class (package doc);
				// defensive: ignore rather than create a spurious loop.
				continue
			}
			pairs = append(pairs, uint64(uint32(ca))<<32|uint64(uint32(cb)))
		}
	}
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)
	adj, radj := graph.AdjFromSortedPairs(pairs, numClasses)

	// Topological order of the class DAG (Kahn).
	order := topoOrder(adj, radj, numClasses)

	// Transitive reduction in one pooled pass over reverse topological
	// order (children before parents): with u = ⋃_{b ∈ adj(a)} desc(b),
	// edge (a,b) is redundant iff b ∈ u (b ∈ desc(b) is impossible in a
	// DAG, so a child never masks its own edge); desc(a) is then u plus the
	// children themselves. Sets are released to a pool once every parent
	// has consumed them.
	desc := make([]*bitset.Set, numClasses)
	remaining := make([]int, numClasses)
	for b := 0; b < numClasses; b++ {
		remaining[b] = len(radj[b])
	}
	var pool []*bitset.Set
	alloc := func() *bitset.Set {
		if len(pool) > 0 {
			set := pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			set.Reset()
			return set
		}
		return bitset.New(numClasses)
	}
	kept := make([]uint64, 0, len(pairs))
	for i := len(order) - 1; i >= 0; i-- {
		a := order[i]
		d := alloc()
		for _, b := range adj[a] {
			d.Or(desc[b])
		}
		for _, b := range adj[a] {
			if !d.Has(int(b)) {
				kept = append(kept, uint64(uint32(a))<<32|uint64(uint32(b)))
			}
		}
		for _, b := range adj[a] {
			d.Set(int(b))
			remaining[b]--
			if remaining[b] == 0 {
				pool = append(pool, desc[b])
				desc[b] = nil
			}
		}
		desc[a] = d
		if remaining[a] == 0 {
			pool = append(pool, d)
			desc[a] = nil
		}
	}
	slices.Sort(kept) // reduction visited classes in reverse-topo order

	// Assemble the rows (kept edges plus self-loops on cyclic classes) into
	// one flat backing array and bulk-build the graph.
	total := len(kept)
	for cls := 0; cls < numClasses; cls++ {
		if cyclic[cls] {
			total++
		}
	}
	flat := make([]graph.Node, 0, total)
	rows := make([][]graph.Node, numClasses)
	labelArr := make([]graph.Label, numClasses)
	i := 0
	for a := int32(0); a < int32(numClasses); a++ {
		labelArr[a] = sigma
		start := len(flat)
		placedSelf := !cyclic[a]
		for ; i < len(kept) && int32(kept[i]>>32) == a; i++ {
			b := graph.Node(uint32(kept[i]))
			if !placedSelf && a < b {
				flat = append(flat, a)
				placedSelf = true
			}
			flat = append(flat, b)
		}
		if !placedSelf {
			flat = append(flat, a)
		}
		if len(flat) > start {
			rows[a] = flat[start:len(flat):len(flat)]
		}
	}
	return graph.BuildFromSortedAdj(labels, labelArr, rows)
}

// topoOrder returns a topological order (sources first) of the DAG given by
// adj/radj. It panics if a cycle is present, which would violate the class
// DAG invariant.
func topoOrder(adj, radj [][]int32, n int) []int32 {
	indeg := make([]int, n)
	for b := 0; b < n; b++ {
		indeg[b] = len(radj[b])
	}
	order := make([]int32, 0, n)
	var stack []int32
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			stack = append(stack, int32(v))
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, v)
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				stack = append(stack, w)
			}
		}
	}
	if len(order) != n {
		panic(fmt.Sprintf("reach: class graph contains a cycle (%d of %d ordered)", len(order), n))
	}
	return order
}

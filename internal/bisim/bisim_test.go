package bisim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// labeledGraph builds a graph from per-node labels and an edge list.
func labeledGraph(labels []string, edges [][2]graph.Node) *graph.Graph {
	g := graph.New(nil)
	for _, l := range labels {
		g.AddNodeNamed(l)
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func randomLabeled(rng *rand.Rand, n, m, nlabels int) *graph.Graph {
	g := graph.New(nil)
	for i := 0; i < n; i++ {
		g.AddNodeNamed(string(rune('A' + rng.Intn(nlabels))))
	}
	for i := 0; i < m; i++ {
		g.AddEdge(graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n)))
	}
	return g
}

// bruteBisim computes the maximum bisimulation by the textbook greatest
// fixpoint: start from the label relation and delete pairs violating the
// simulation conditions until stable. O(V^2 E) — only for tiny graphs.
func bruteBisim(g *graph.Graph) [][]bool {
	n := g.NumNodes()
	rel := make([][]bool, n)
	for u := 0; u < n; u++ {
		rel[u] = make([]bool, n)
		for v := 0; v < n; v++ {
			rel[u][v] = g.Label(graph.Node(u)) == g.Label(graph.Node(v))
		}
	}
	for changed := true; changed; {
		changed = false
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if !rel[u][v] {
					continue
				}
				ok := true
				for _, uc := range g.Successors(graph.Node(u)) {
					found := false
					for _, vc := range g.Successors(graph.Node(v)) {
						if rel[uc][vc] {
							found = true
							break
						}
					}
					if !found {
						ok = false
						break
					}
				}
				if ok {
					for _, vc := range g.Successors(graph.Node(v)) {
						found := false
						for _, uc := range g.Successors(graph.Node(u)) {
							if rel[uc][vc] {
								found = true
								break
							}
						}
						if !found {
							ok = false
							break
						}
					}
				}
				if !ok {
					rel[u][v] = false
					changed = true
				}
			}
		}
	}
	return rel
}

func partitionMatchesRelation(p *Partition, rel [][]bool) bool {
	n := len(p.BlockOf)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if (p.BlockOf[u] == p.BlockOf[v]) != rel[u][v] {
				return false
			}
		}
	}
	return true
}

// refiners are the two partition-refinement algorithms. Both must produce
// the identical (maximum bisimulation) partition; Compress uses RefinePT
// (over a shared CSR), RefineNaive is the reference.
var refiners = []struct {
	name   string
	refine func(*graph.Graph) *Partition
}{
	{"naive", RefineNaive},
	{"pt", RefinePT},
}

func TestPaperFig6Example(t *testing.T) {
	// From Fig. 6 / Example 4: A1 has one B child with a C child; A2 has B
	// children with C and D children. A1 and A2 must not be bisimilar, but
	// structurally identical copies must be.
	//
	// Nodes: A1=0 B1=1 C1=2 | A2=3 B2=4 C2=5 B3=6 D1=7 | A5=8 B5=9 C5=10
	// A5 copies A1's shape exactly.
	g := labeledGraph(
		[]string{"A", "B", "C", "A", "B", "C", "B", "D", "A", "B", "C"},
		[][2]graph.Node{
			{0, 1}, {1, 2},
			{3, 4}, {4, 5}, {3, 6}, {6, 7},
			{8, 9}, {9, 10},
		})
	for _, r := range refiners {
		engine := r.name
		c := Quotient(g, r.refine(g))
		if c.ClassOf(0) == c.ClassOf(3) {
			t.Fatalf("engine %v: A1 and A2 wrongly bisimilar", engine)
		}
		if c.ClassOf(0) != c.ClassOf(8) {
			t.Fatalf("engine %v: identical A nodes not bisimilar", engine)
		}
		if c.ClassOf(1) != c.ClassOf(9) || c.ClassOf(2) != c.ClassOf(10) {
			t.Fatalf("engine %v: identical subtrees not merged", engine)
		}
		if c.ClassOf(2) == c.ClassOf(7) {
			t.Fatalf("engine %v: C and D merged despite labels", engine)
		}
	}
}

func TestBisimVsReachabilityEquivalenceDiffer(t *testing.T) {
	// Section 3's counterexample shape: C1 -> E1, C2 -> E1, C2 -> E2.
	// C1 and C2 are bisimilar (both have only E children) but NOT
	// reachability equivalent (C2 reaches E2, C1 does not).
	g := labeledGraph([]string{"C", "C", "E", "E"},
		[][2]graph.Node{{0, 2}, {1, 2}, {1, 3}})
	p := RefineNaive(g)
	if p.BlockOf[0] != p.BlockOf[1] {
		t.Fatal("C1 and C2 should be bisimilar")
	}
	if p.BlockOf[2] != p.BlockOf[3] {
		t.Fatal("E1 and E2 should be bisimilar")
	}
}

func TestCycleBisimilarity(t *testing.T) {
	// Two disjoint 2-cycles with matching labels are fully bisimilar —
	// the case that defeats one-step signature merging and requires a
	// proper coarsest computation.
	g := labeledGraph([]string{"A", "B", "A", "B"},
		[][2]graph.Node{{0, 1}, {1, 0}, {2, 3}, {3, 2}})
	for _, r := range refiners {
		engine := r.name
		c := Quotient(g, r.refine(g))
		if c.NumClasses() != 2 {
			t.Fatalf("engine %v: classes = %d, want 2", engine, c.NumClasses())
		}
		if c.ClassOf(0) != c.ClassOf(2) || c.ClassOf(1) != c.ClassOf(3) {
			t.Fatalf("engine %v: cycles not merged", engine)
		}
		// Quotient must be the 2-cycle A <-> B.
		if c.Gr.NumEdges() != 2 {
			t.Fatalf("engine %v: Gr edges = %d, want 2", engine, c.Gr.NumEdges())
		}
	}
}

func TestSelfLoopVsTwoCycle(t *testing.T) {
	// A self-loop A and a 2-cycle of As are bisimilar (classic).
	g := labeledGraph([]string{"A", "A", "A"},
		[][2]graph.Node{{0, 0}, {1, 2}, {2, 1}})
	for _, r := range refiners {
		engine := r.name
		c := Quotient(g, r.refine(g))
		if c.NumClasses() != 1 {
			t.Fatalf("engine %v: classes = %d, want 1", engine, c.NumClasses())
		}
		if !c.Gr.HasEdge(0, 0) {
			t.Fatalf("engine %v: quotient lost self-loop", engine)
		}
	}
}

func TestEnginesAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(12)
		g := randomLabeled(rng, n, rng.Intn(3*n), 1+rng.Intn(3))
		rel := bruteBisim(g)
		for _, r := range refiners {
			engine := r.name
			p := r.refine(g)
			if !partitionMatchesRelation(p, rel) {
				t.Fatalf("trial %d engine %v: partition disagrees with brute force\ngraph %v edges %v\nblocks %v",
					trial, engine, g, g.EdgeList(), p.Blocks)
			}
		}
	}
}

func TestEnginesAgreeOnLargerRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(120)
		g := randomLabeled(rng, n, rng.Intn(4*n), 1+rng.Intn(4))
		a := RefineNaive(g)
		b := RefinePT(g)
		return slices.Equal(a.BlockOf, b.BlockOf) && IsStable(g, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionCanonicalNumbering(t *testing.T) {
	// Blocks must be numbered by smallest member, making Same order-free.
	p := PartitionOf([]int32{7, 7, 3, 3, 9})
	if p.BlockOf[0] != 0 || p.BlockOf[2] != 1 || p.BlockOf[4] != 2 {
		t.Fatalf("canonical numbering wrong: %v", p.BlockOf)
	}
	q := PartitionOf([]int32{0, 0, 1, 1, 2})
	if !slices.Equal(p.BlockOf, q.BlockOf) {
		t.Fatal("identical partitions with different raw ids not Same")
	}
}

func TestQuotientStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(30)
		g := randomLabeled(rng, n, rng.Intn(3*n), 3)
		c := Compress(g)
		if err := c.Gr.Validate(); err != nil {
			t.Fatal(err)
		}
		if c.Gr.Size() > g.Size() {
			t.Fatal("compression grew the graph")
		}
		// Labels preserved.
		for b, ms := range c.Members {
			for _, v := range ms {
				if g.Label(v) != c.Gr.Label(graph.Node(b)) {
					t.Fatal("class label differs from member label")
				}
				if c.ClassOf(v) != graph.Node(b) {
					t.Fatal("Members/blockOf inconsistent")
				}
			}
		}
		// Every member edge has a class edge, and every class edge has a
		// member edge witness.
		g.Edges(func(u, v graph.Node) bool {
			if !c.Gr.HasEdge(c.ClassOf(u), c.ClassOf(v)) {
				t.Fatalf("member edge (%d,%d) missing in quotient", u, v)
			}
			return true
		})
		c.Gr.Edges(func(a, b graph.Node) bool {
			found := false
			for _, u := range c.Members[a] {
				for _, w := range g.Successors(u) {
					if c.ClassOf(w) == b {
						found = true
					}
				}
			}
			if !found {
				t.Fatalf("class edge (%d,%d) has no member witness", a, b)
			}
			return true
		})
	}
}

func TestCompressSharesLabelTable(t *testing.T) {
	g := labeledGraph([]string{"A", "B"}, [][2]graph.Node{{0, 1}})
	c := Compress(g)
	if c.Gr.Labels() != g.Labels() {
		t.Fatal("pattern compression must share the label table")
	}
}

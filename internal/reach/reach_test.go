package reach

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/queries"
)

func buildGraph(n int, edges [][2]graph.Node) *graph.Graph {
	g := graph.New(nil)
	for i := 0; i < n; i++ {
		g.AddNodeNamed("X")
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	g := graph.New(nil)
	for i := 0; i < n; i++ {
		g.AddNodeNamed("X")
	}
	for i := 0; i < m; i++ {
		g.AddEdge(graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n)))
	}
	return g
}

// checkPreservation verifies the defining property of reachability
// preserving compression on every node pair: QR(u,v) on G equals
// QR(R(u),R(v)) on Gr, evaluated by the unmodified BFS and BIBFS.
func checkPreservation(t *testing.T, g *graph.Graph, c *Compressed) {
	t.Helper()
	n := g.NumNodes()
	for u := 0; u < n; u++ {
		desc := queries.Descendants(g, graph.Node(u))
		for v := 0; v < n; v++ {
			cu, cv := c.Rewrite(graph.Node(u), graph.Node(v))
			got := queries.Reachable(c.Gr, cu, cv)
			if got != desc[v] {
				t.Fatalf("QR(%d,%d): G says %v, Gr says %v (classes %d,%d)",
					u, v, desc[v], got, cu, cv)
			}
			if bi := queries.ReachableBi(c.Gr, cu, cv); bi != desc[v] {
				t.Fatalf("QR(%d,%d): G says %v, Gr BIBFS says %v", u, v, desc[v], bi)
			}
		}
	}
}

func TestCompressPaperStyleExample(t *testing.T) {
	// Two "BSA" sources with identical descendants must merge; a chain must
	// not merge endpoints.
	//   0,1 -> 2 -> 3
	g := buildGraph(4, [][2]graph.Node{{0, 2}, {1, 2}, {2, 3}})
	c := Compress(g)
	if c.ClassOf(0) != c.ClassOf(1) {
		t.Fatal("nodes with equal anc/desc sets not merged")
	}
	if c.ClassOf(2) == c.ClassOf(3) || c.ClassOf(0) == c.ClassOf(2) {
		t.Fatal("distinct reachability profiles merged")
	}
	if c.NumClasses() != 3 {
		t.Fatalf("classes = %d, want 3", c.NumClasses())
	}
	checkPreservation(t, g, c)
}

func TestCompressCycleToSelfLoop(t *testing.T) {
	g := buildGraph(3, [][2]graph.Node{{0, 1}, {1, 2}, {2, 0}})
	c := Compress(g)
	if c.NumClasses() != 1 {
		t.Fatalf("classes = %d, want 1", c.NumClasses())
	}
	if !c.Gr.HasEdge(0, 0) {
		t.Fatal("cyclic class missing self-loop")
	}
	checkPreservation(t, g, c)
}

func TestCompressTrivialClassNoSelfLoop(t *testing.T) {
	// Merged trivial nodes (0,1) must NOT get a self-loop: QR(0,1) is false.
	g := buildGraph(3, [][2]graph.Node{{0, 2}, {1, 2}})
	c := Compress(g)
	cls := c.ClassOf(0)
	if cls != c.ClassOf(1) {
		t.Fatal("expected 0 and 1 merged")
	}
	if c.Gr.HasEdge(cls, cls) {
		t.Fatal("trivial class has spurious self-loop")
	}
	checkPreservation(t, g, c)
}

func TestCompressChainTransitiveReduction(t *testing.T) {
	// 0 -> 1 -> 2 plus shortcut 0 -> 2: the class DAG must drop the
	// redundant shortcut.
	g := buildGraph(3, [][2]graph.Node{{0, 1}, {1, 2}, {0, 2}})
	c := Compress(g)
	if c.NumClasses() != 3 {
		t.Fatalf("classes = %d, want 3", c.NumClasses())
	}
	if c.Gr.NumEdges() != 2 {
		t.Fatalf("Gr edges = %d, want 2 after transitive reduction", c.Gr.NumEdges())
	}
	checkPreservation(t, g, c)
}

func TestCompressEmptyAndSingleton(t *testing.T) {
	g := graph.New(nil)
	c := Compress(g)
	if c.Gr.NumNodes() != 0 || c.Gr.NumEdges() != 0 {
		t.Fatal("empty graph should compress to empty graph")
	}
	g.AddNodeNamed("A")
	c = Compress(g)
	if c.Gr.NumNodes() != 1 || c.Gr.NumEdges() != 0 {
		t.Fatalf("singleton compressed to %v", c.Gr)
	}
	checkPreservation(t, g, c)
}

func TestCompressSelfLoopOnly(t *testing.T) {
	g := buildGraph(1, [][2]graph.Node{{0, 0}})
	c := Compress(g)
	if !c.Gr.HasEdge(c.ClassOf(0), c.ClassOf(0)) {
		t.Fatal("self-loop lost")
	}
	checkPreservation(t, g, c)
}

func TestCompressSizeNeverGrows(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(3*n))
		c := Compress(g)
		return c.Gr.Size() <= g.Size() && c.Gr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressPreservationRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(25)
		g := randomGraph(rng, n, rng.Intn(3*n))
		checkPreservation(t, g, Compress(g))
	}
}

func TestCompressPreservationDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		n := 5 + rng.Intn(15)
		g := randomGraph(rng, n, n*n/2)
		checkPreservation(t, g, Compress(g))
	}
}

// bruteClasses computes the reachability equivalence classes by definition:
// strict ancestor and descendant node-sets per node.
func bruteClasses(g *graph.Graph) []int {
	n := g.NumNodes()
	type sig struct{ d, a string }
	sigs := make([]sig, n)
	for v := 0; v < n; v++ {
		d := queries.Descendants(g, graph.Node(v))
		a := queries.Ancestors(g, graph.Node(v))
		db := make([]byte, n)
		ab := make([]byte, n)
		for i := 0; i < n; i++ {
			if d[i] {
				db[i] = 1
			}
			if a[i] {
				ab[i] = 1
			}
		}
		sigs[v] = sig{string(db), string(ab)}
	}
	ids := make(map[sig]int)
	out := make([]int, n)
	for v, s := range sigs {
		id, ok := ids[s]
		if !ok {
			id = len(ids)
			ids[s] = id
		}
		out[v] = id
	}
	return out
}

func samePartition(a []int, b []graph.Node) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := make(map[int]graph.Node)
	rev := make(map[graph.Node]int)
	for i := range a {
		if c, ok := fwd[a[i]]; ok && c != b[i] {
			return false
		}
		if c, ok := rev[b[i]]; ok && c != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		rev[b[i]] = a[i]
	}
	return true
}

func TestCompressMatchesBruteForceEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		g := randomGraph(rng, n, rng.Intn(3*n))
		c := Compress(g)
		classOf := make([]graph.Node, n)
		for v := 0; v < n; v++ {
			classOf[v] = c.ClassOf(graph.Node(v))
		}
		if !graph.IsTopoOrdered(c.Gr.Freeze()) {
			t.Logf("seed %d: Gr is not topologically numbered", seed)
			return false
		}
		return samePartition(bruteClasses(g), classOf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressNoRedundantEdges(t *testing.T) {
	// Every non-self-loop edge of Gr must be necessary: removing it must
	// change reachability.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(20)
		g := randomGraph(rng, n, rng.Intn(3*n))
		c := Compress(g)
		c.Gr.Edges(func(a, b graph.Node) bool {
			if a == b {
				return true
			}
			h := c.Gr.Clone()
			h.RemoveEdge(a, b)
			if queries.Reachable(h, a, b) {
				t.Fatalf("edge (%d,%d) of Gr is redundant", a, b)
			}
			return true
		})
	}
}

func TestMembersInverseIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 30, 60)
	c := Compress(g)
	seen := make([]bool, g.NumNodes())
	for cls, ms := range graph.GroupNodes(c.ClassMap(), c.NumClasses()) {
		for _, v := range ms {
			if seen[v] {
				t.Fatalf("node %d listed twice", v)
			}
			seen[v] = true
			if c.ClassOf(v) != graph.Node(cls) {
				t.Fatalf("Members/classOf disagree for node %d", v)
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("node %d missing from Members", v)
		}
	}
}

func TestSCCCompressPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(20)
		g := randomGraph(rng, n, rng.Intn(3*n))
		c := SCCCompress(g)
		checkPreservation(t, g, c)
		if c.Gr.Size() > g.Size() {
			t.Fatal("SCC compression grew the graph")
		}
	}
}

func TestAHOReducePreservesClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(18)
		g := randomGraph(rng, n, rng.Intn(3*n))
		r := AHOReduce(g)
		if r.NumNodes() != g.NumNodes() {
			t.Fatal("AHO changed node set")
		}
		if r.NumEdges() > g.NumEdges()+1 { // +1: a 2-cycle may replace 2 edges with 2
			// AHO may not add edges beyond cycle completion; closure check below
			// is the real requirement, but a blowup signals a bug.
			t.Fatalf("AHO grew edges: %d -> %d", g.NumEdges(), r.NumEdges())
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if queries.Reachable(g, graph.Node(u), graph.Node(v)) !=
					queries.Reachable(r, graph.Node(u), graph.Node(v)) {
					t.Fatalf("AHO changed closure at (%d,%d)", u, v)
				}
			}
		}
	}
}

func TestCompressBeatsBaselinesOnMergeableGraphs(t *testing.T) {
	// A bipartite-ish DAG with many equivalent sources compresses far
	// better under Re-compression than under SCC or AHO (the Table 1
	// relationship RCr < RCscc, RCaho).
	g := graph.New(nil)
	for i := 0; i < 30; i++ {
		g.AddNodeNamed("X")
	}
	for i := 0; i < 20; i++ { // 20 equivalent sources
		g.AddEdge(graph.Node(i), 20)
		g.AddEdge(graph.Node(i), 21)
	}
	for i := 20; i < 29; i++ {
		g.AddEdge(graph.Node(i), graph.Node(i+1))
	}
	c := Compress(g)
	scc := SCCCompress(g)
	aho := AHOReduce(g)
	if !(c.Gr.Size() < scc.Gr.Size() && c.Gr.Size() < aho.Size()) {
		t.Fatalf("sizes: Re=%d, SCC=%d, AHO=%d", c.Gr.Size(), scc.Gr.Size(), aho.Size())
	}
	checkPreservation(t, g, c)
}

func TestRatio(t *testing.T) {
	g := buildGraph(4, [][2]graph.Node{{0, 2}, {1, 2}, {2, 3}})
	c := Compress(g)
	want := float64(c.Gr.Size()) / float64(g.Size())
	if got := c.Ratio(g); got != want {
		t.Fatalf("Ratio = %v, want %v", got, want)
	}
	if got := c.Ratio(g); got >= 1.0 {
		t.Fatalf("mergeable graph ratio %v not < 1", got)
	}
}

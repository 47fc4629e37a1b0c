package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLabelsIntern(t *testing.T) {
	l := NewLabels()
	a := l.Intern("A")
	b := l.Intern("B")
	if a == b {
		t.Fatal("distinct names interned to same id")
	}
	if l.Intern("A") != a {
		t.Fatal("re-interning changed id")
	}
	if l.Name(a) != "A" || l.Name(b) != "B" {
		t.Fatal("Name round trip failed")
	}
	if l.Count() != 2 {
		t.Fatalf("Count = %d, want 2", l.Count())
	}
	if _, ok := l.Lookup("C"); ok {
		t.Fatal("Lookup found unknown label")
	}
}

func TestAddRemoveEdge(t *testing.T) {
	g := New(nil)
	a := g.AddNodeNamed("A")
	b := g.AddNodeNamed("B")
	c := g.AddNodeNamed("C")
	if !g.AddEdge(a, b) || !g.AddEdge(a, c) || !g.AddEdge(b, c) {
		t.Fatal("AddEdge returned false for fresh edges")
	}
	if g.AddEdge(a, b) {
		t.Fatal("duplicate AddEdge returned true")
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if !g.HasEdge(a, b) || g.HasEdge(b, a) {
		t.Fatal("HasEdge wrong")
	}
	if !g.RemoveEdge(a, b) {
		t.Fatal("RemoveEdge returned false for existing edge")
	}
	if g.RemoveEdge(a, b) {
		t.Fatal("RemoveEdge returned true for missing edge")
	}
	if g.NumEdges() != 2 || g.HasEdge(a, b) {
		t.Fatal("edge not removed")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfLoop(t *testing.T) {
	g := New(nil)
	a := g.AddNodeNamed("A")
	if !g.AddEdge(a, a) {
		t.Fatal("self loop rejected")
	}
	if !g.HasEdge(a, a) {
		t.Fatal("self loop missing")
	}
	if g.OutDegree(a) != 1 || g.InDegree(a) != 1 {
		t.Fatal("self loop degree wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSizeDefinition(t *testing.T) {
	g := New(nil)
	for i := 0; i < 5; i++ {
		g.AddNodeNamed("X")
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if g.Size() != 7 {
		t.Fatalf("Size = %d, want |V|+|E| = 7", g.Size())
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(nil)
	a := g.AddNodeNamed("A")
	b := g.AddNodeNamed("B")
	g.AddEdge(a, b)
	c := g.Clone()
	c.AddEdge(b, a)
	if g.HasEdge(b, a) {
		t.Fatal("clone mutation leaked into original")
	}
	if !c.HasEdge(a, b) {
		t.Fatal("clone lost edge")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEdgesIterationOrderAndEarlyStop(t *testing.T) {
	g := New(nil)
	for i := 0; i < 4; i++ {
		g.AddNodeNamed("X")
	}
	g.AddEdge(2, 0)
	g.AddEdge(0, 3)
	g.AddEdge(0, 1)
	var got [][2]Node
	g.Edges(func(u, v Node) bool {
		got = append(got, [2]Node{u, v})
		return true
	})
	want := [][2]Node{{0, 1}, {0, 3}, {2, 0}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Edges order = %v, want %v", got, want)
		}
	}
	n := 0
	g.Edges(func(u, v Node) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d edges", n)
	}
}

// RandomGraph builds a random graph for property tests.
func randomTestGraph(rng *rand.Rand, n, m, labels int) *Graph {
	g := New(nil)
	for i := 0; i < n; i++ {
		g.AddNodeNamed(string(rune('A' + rng.Intn(labels))))
	}
	for i := 0; i < m; i++ {
		g.AddEdge(Node(rng.Intn(n)), Node(rng.Intn(n)))
	}
	return g
}

func TestValidateRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomTestGraph(rng, 1+rng.Intn(50), rng.Intn(200), 3)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomAddRemoveConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New(nil)
	const n = 30
	for i := 0; i < n; i++ {
		g.AddNodeNamed("X")
	}
	ref := make(map[[2]Node]bool)
	for step := 0; step < 2000; step++ {
		u, v := Node(rng.Intn(n)), Node(rng.Intn(n))
		if rng.Intn(2) == 0 {
			added := g.AddEdge(u, v)
			if added == ref[[2]Node{u, v}] {
				t.Fatalf("step %d: AddEdge(%d,%d) = %v, ref has=%v", step, u, v, added, ref[[2]Node{u, v}])
			}
			ref[[2]Node{u, v}] = true
		} else {
			removed := g.RemoveEdge(u, v)
			if removed != ref[[2]Node{u, v}] {
				t.Fatalf("step %d: RemoveEdge(%d,%d) = %v, ref has=%v", step, u, v, removed, ref[[2]Node{u, v}])
			}
			delete(ref, [2]Node{u, v})
		}
	}
	if g.NumEdges() != len(ref) {
		t.Fatalf("edge count %d, ref %d", g.NumEdges(), len(ref))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomTestGraph(rng, 20, 60, 4)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != g.NumNodes() || h.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip size mismatch: %v vs %v", h, g)
	}
	for v := 0; v < g.NumNodes(); v++ {
		if g.LabelName(Node(v)) != h.LabelName(Node(v)) {
			t.Fatalf("label mismatch at %d", v)
		}
	}
	g.Edges(func(u, v Node) bool {
		if !h.HasEdge(u, v) {
			t.Fatalf("edge (%d,%d) lost in round trip", u, v)
		}
		return true
	})
}

// TestReadAnyEdgeOrder: a file listing its edges shuffled, some twice,
// reads to the graph the sorted file does.
func TestReadAnyEdgeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomTestGraph(rng, 40, 160, 3)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var nodes, edges []string
	for _, l := range lines {
		if strings.HasPrefix(l, "e ") {
			edges = append(edges, l)
		} else {
			nodes = append(nodes, l)
		}
	}
	edges = append(edges, edges[:10]...)
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	h, err := Read(strings.NewReader(strings.Join(append(nodes, edges...), "\n")))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if !h.Freeze().Equal(g.Freeze()) {
		t.Fatal("shuffled edges read to another graph")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"n 1 A\n",        // non-dense id
		"n 0 A\ne 0 5\n", // undeclared node
		"x 0 0\n",        // unknown record
		"n 0\n",          // short node record
		"e 0\n",          // short edge record
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Fatalf("Read(%q) succeeded, want error", c)
		}
	}
}

func TestReduceRules(t *testing.T) {
	g := New(nil)
	a := g.AddNodeNamed("A")
	b := g.AddNodeNamed("B")
	c := g.AddNodeNamed("C")
	g.AddEdge(a, b)

	// Insert existing, delete missing: both no-ops.
	eff := g.Reduce([]Update{Insertion(a, b), Deletion(a, c)})
	if len(eff) != 0 {
		t.Fatalf("no-ops survived: %v", eff)
	}
	// Cancellation: insert then delete a fresh edge.
	eff = g.Reduce([]Update{Insertion(b, c), Deletion(b, c)})
	if len(eff) != 0 {
		t.Fatalf("cancelled pair survived: %v", eff)
	}
	// Delete then re-insert an existing edge: also net zero.
	eff = g.Reduce([]Update{Deletion(a, b), Insertion(a, b)})
	if len(eff) != 0 {
		t.Fatalf("delete+reinsert survived: %v", eff)
	}
	// Duplicates collapse to one effective update.
	eff = g.Reduce([]Update{Insertion(b, c), Insertion(b, c)})
	if len(eff) != 1 {
		t.Fatalf("duplicates = %v", eff)
	}
	// The survivors keep first-appearance order and g is untouched.
	eff = g.Reduce([]Update{Insertion(c, a), Deletion(a, b), Insertion(c, a)})
	if len(eff) != 2 || eff[0] != Insertion(c, a) || eff[1] != Deletion(a, b) {
		t.Fatalf("order = %v", eff)
	}
	if g.NumEdges() != 1 {
		t.Fatal("Reduce mutated the graph")
	}
}

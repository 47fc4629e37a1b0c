package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildGraph is a test helper assembling a graph from an edge list over n
// nodes, all labeled "X".
func buildGraph(n int, edges [][2]Node) *Graph {
	g := New(nil)
	for i := 0; i < n; i++ {
		g.AddNodeNamed("X")
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func TestTarjanSimpleCycle(t *testing.T) {
	g := buildGraph(4, [][2]Node{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	s := Tarjan(g)
	if s.NumComponents() != 2 {
		t.Fatalf("components = %d, want 2", s.NumComponents())
	}
	if s.Comp[0] != s.Comp[1] || s.Comp[1] != s.Comp[2] {
		t.Fatal("cycle nodes not in same component")
	}
	if s.Comp[3] == s.Comp[0] {
		t.Fatal("node 3 merged into cycle")
	}
	if !s.Cyclic[s.Comp[0]] {
		t.Fatal("cycle component not marked cyclic")
	}
	if s.Cyclic[s.Comp[3]] {
		t.Fatal("trivial component marked cyclic")
	}
}

func TestTarjanSelfLoopCyclic(t *testing.T) {
	g := buildGraph(2, [][2]Node{{0, 0}, {0, 1}})
	s := Tarjan(g)
	if s.NumComponents() != 2 {
		t.Fatalf("components = %d, want 2", s.NumComponents())
	}
	if !s.Cyclic[s.Comp[0]] {
		t.Fatal("self-loop component not cyclic")
	}
	if s.Cyclic[s.Comp[1]] {
		t.Fatal("plain node cyclic")
	}
}

func TestTarjanReverseTopoOrder(t *testing.T) {
	// DAG 0 -> 1 -> 2; component ids must satisfy id(src) > id(dst).
	g := buildGraph(3, [][2]Node{{0, 1}, {1, 2}})
	s := Tarjan(g)
	if !(s.Comp[0] > s.Comp[1] && s.Comp[1] > s.Comp[2]) {
		t.Fatalf("component ids not reverse-topological: %v", s.Comp)
	}
	// Property must hold for every condensation edge on random graphs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomTestGraph(rng, 2+rng.Intn(40), rng.Intn(120), 2)
		s := Tarjan(g)
		ok := true
		for a := range s.Out {
			for _, b := range s.Out[a] {
				if int32(a) <= b {
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTarjanEdgeSupport(t *testing.T) {
	// Two parallel member edges between SCCs {0,1} and {2}.
	g := buildGraph(3, [][2]Node{{0, 1}, {1, 0}, {0, 2}, {1, 2}})
	s := Tarjan(g)
	a, b := s.Comp[0], s.Comp[2]
	if len(s.Out[a]) != 1 || s.Out[a][0] != b {
		t.Fatalf("condensation out row %v, want [%d]", s.Out[a], b)
	}
	if got := s.OutSupport[a][0]; got != 2 {
		t.Fatalf("support = %d, want 2", got)
	}
}

// reachNaive computes strict reachability by BFS for reference.
func reachNaive(g *Graph, u, v Node) bool {
	seen := make([]bool, g.NumNodes())
	queue := []Node{}
	for _, w := range g.Successors(u) {
		if !seen[w] {
			seen[w] = true
			queue = append(queue, w)
		}
	}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if x == v {
			return true
		}
		for _, w := range g.Successors(x) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return false
}

func TestTarjanMutualReachability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := randomTestGraph(rng, n, rng.Intn(80), 2)
		s := Tarjan(g)
		for trial := 0; trial < 30; trial++ {
			u, v := Node(rng.Intn(n)), Node(rng.Intn(n))
			same := s.Comp[u] == s.Comp[v]
			mutual := u == v || (reachNaive(g, u, v) && reachNaive(g, v, u))
			if same != mutual {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTarjanDeepChainNoOverflow(t *testing.T) {
	// A 200k-node chain would blow a recursive Tarjan's stack.
	const n = 200000
	g := New(nil)
	l := g.Labels().Intern("X")
	for i := 0; i < n; i++ {
		g.AddNode(l)
	}
	for i := 0; i < n-1; i++ {
		g.AddEdge(Node(i), Node(i+1))
	}
	s := Tarjan(g)
	if s.NumComponents() != n {
		t.Fatalf("components = %d, want %d", s.NumComponents(), n)
	}
}

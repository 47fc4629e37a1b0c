package reach

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/queries"
)

// referencePartition computes the reachability-equivalence partition of g
// from first principles, using only the seed-era query primitives: u and v
// are equivalent iff their descendant sets and ancestor sets (via nonempty
// paths) coincide. Quadratic and allocation-heavy — a reference, not an
// algorithm.
func referencePartition(g *graph.Graph) []int {
	n := g.NumNodes()
	type sig struct {
		desc, anc string
	}
	encode := func(b []bool) string {
		buf := make([]byte, n)
		for i, set := range b {
			if set {
				buf[i] = 1
			}
		}
		return string(buf)
	}
	ids := make(map[sig]int)
	classOf := make([]int, n)
	for v := 0; v < n; v++ {
		s := sig{
			desc: encode(queries.Descendants(g, graph.Node(v))),
			anc:  encode(queries.Ancestors(g, graph.Node(v))),
		}
		id, ok := ids[s]
		if !ok {
			id = len(ids)
			ids[s] = id
		}
		classOf[v] = id
	}
	return classOf
}

// TestCompressMatchesReferencePartition: differential test that the
// compression pipeline (TarjanCSR + the quotient kernel) produces exactly
// the reachability-equivalence partition defined by the seed query
// primitives, on randomized graphs with cycles, self-loops and isolated
// nodes.
func TestCompressMatchesReferencePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(40)
		m := rng.Intn(3 * n)
		g := randomGraph(rng, n, m)
		// Sprinkle self-loops: they make single-node SCCs cyclic.
		for i := 0; i < n/10; i++ {
			v := graph.Node(rng.Intn(n))
			g.AddEdge(v, v)
		}
		c := Compress(g)
		ref := referencePartition(g)
		classOf := make([]graph.Node, n)
		for v := 0; v < n; v++ {
			classOf[v] = c.ClassOf(graph.Node(v))
		}
		if !samePartition(ref, classOf) {
			t.Fatalf("trial %d (n=%d m=%d): partition differs from reference", trial, n, m)
		}
		if !graph.IsTopoOrdered(c.Gr.Freeze()) {
			t.Fatalf("trial %d: Gr is not topologically numbered", trial)
		}
		// And the quotient must answer reachability identically.
		for i := 0; i < 50; i++ {
			u, v := graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n))
			ru, rv := c.Rewrite(u, v)
			if got, want := queries.Reachable(c.Gr, ru, rv), queries.Reachable(g, u, v); got != want {
				t.Fatalf("trial %d: QR(%d,%d) = %v on Gr, %v on G", trial, u, v, got, want)
			}
		}
	}
}

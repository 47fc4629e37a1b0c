package increach

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/queries"
	"repro/internal/reach"
)

// sameAsDefinition fails unless the maintained partition is reachability
// equivalence by its definition — equal strict ancestor and descendant node
// sets, pairwise — which shares no code with reach.Compress or the quotient
// kernel both sides of the batch differential run on.
func sameAsDefinition(t *testing.T, what string, m *Maintainer) {
	t.Helper()
	g, c := m.Graph(), m.Compressed()
	n := g.NumNodes()
	desc := make([][]bool, n)
	anc := make([][]bool, n)
	for v := range n {
		desc[v] = queries.Descendants(g, graph.Node(v))
		anc[v] = queries.Ancestors(g, graph.Node(v))
	}
	same := func(a, b []bool) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for u := range n {
		for v := u + 1; v < n; v++ {
			want := same(desc[u], desc[v]) && same(anc[u], anc[v])
			if got := c.ClassOf(graph.Node(u)) == c.ClassOf(graph.Node(v)); got != want {
				t.Fatalf("%s: nodes %d and %d classmates %v, by definition %v\nedges %v", what, u, v, got, want, g.EdgeList())
			}
		}
	}
}

func TestStressIncrementalVsBatch(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := graph.New(nil)
		for i := 0; i < n; i++ {
			g.AddNodeNamed("X")
		}
		m0 := rng.Intn(4 * n)
		for i := 0; i < m0; i++ {
			g.AddEdge(graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n)))
		}
		m := New(g)
		for round := 0; round < 6; round++ {
			var batch []graph.Update
			mode := rng.Intn(3)
			size := 1 + rng.Intn(7)
			switch mode {
			case 0:
				batch = gen.RandomBatch(rng, m.Graph(), size, 1.0)
			case 1:
				batch = gen.RandomBatch(rng, m.Graph(), size, 0.0)
			default:
				batch = gen.RandomBatch(rng, m.Graph(), size, 0.5)
			}
			m.Apply(batch)
			sameAsDefinition(t, fmt.Sprintf("seed %d round %d", seed, round), m)
			want := reach.Compress(m.Graph())
			got := m.Compressed()
			if got.Gr.NumNodes() != want.Gr.NumNodes() || got.Gr.NumEdges() != want.Gr.NumEdges() {
				t.Fatalf("seed %d round %d mode %d: quotient %v vs batch %v\nedges %v",
					seed, round, mode, got.Gr, want.Gr, m.Graph().EdgeList())
			}
			fwd := make(map[graph.Node]graph.Node)
			rev := make(map[graph.Node]graph.Node)
			for v := 0; v < n; v++ {
				gc, wc := got.ClassOf(graph.Node(v)), want.ClassOf(graph.Node(v))
				if c, ok := fwd[gc]; ok && c != wc {
					t.Fatalf("seed %d round %d: partition mismatch", seed, round)
				}
				if c, ok := rev[wc]; ok && c != gc {
					t.Fatalf("seed %d round %d: partition mismatch", seed, round)
				}
				fwd[gc] = wc
				rev[wc] = gc
			}
		}
	}
}

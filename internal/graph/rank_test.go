package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestApplyBatch exercises the Update helpers.
func TestApplyBatch(t *testing.T) {
	g := New(nil)
	a := g.AddNodeNamed("A")
	b := g.AddNodeNamed("B")
	c := g.AddNodeNamed("C")
	n := g.Apply([]Update{
		Insertion(a, b),
		Insertion(a, b), // duplicate: no-op
		Insertion(b, c),
		Deletion(a, c), // absent: no-op
		Deletion(a, b),
	})
	if n != 3 {
		t.Fatalf("effective updates = %d, want 3", n)
	}
	if g.HasEdge(a, b) || !g.HasEdge(b, c) {
		t.Fatal("final state wrong")
	}
}

// TestEdgeSupportConsistency: support counts always sum to the number of
// inter-component member edges.
func TestEdgeSupportConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		g := randomTestGraph(rng, n, rng.Intn(4*n), 2)
		s := Tarjan(g)
		sum := 0
		for a := range int32(s.NumComponents()) {
			for _, k := range s.Support(a) {
				sum += int(k)
			}
		}
		inter := 0
		g.Edges(func(u, v Node) bool {
			if s.Comp[u] != s.Comp[v] {
				inter++
			}
			return true
		})
		return sum == inter
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

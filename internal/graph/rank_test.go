package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestTopoRankEdgeProperty: for every condensation edge (a,b), the rank of
// a strictly exceeds the rank of b; members of one component share a rank.
// This is the property Lemma 7 of the paper builds on.
func TestTopoRankEdgeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		g := randomTestGraph(rng, n, rng.Intn(4*n), 2)
		s := Tarjan(g)
		ranks := s.TopoRanks()
		for a := range s.Out {
			for _, b := range s.Out[a] {
				if ranks[a] <= ranks[b] {
					return false
				}
			}
		}
		nodeRanks := s.NodeTopoRanks()
		for v := 0; v < n; v++ {
			if nodeRanks[v] != ranks[s.Comp[v]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestTopoRankZeroIffSink: rank 0 exactly for components without
// condensation children.
func TestTopoRankZeroIffSink(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		g := randomTestGraph(rng, n, rng.Intn(3*n), 2)
		s := Tarjan(g)
		ranks := s.TopoRanks()
		for c := range s.Out {
			if (ranks[c] == 0) != (len(s.Out[c]) == 0) {
				t.Fatalf("rank-0/sink mismatch at component %d", c)
			}
		}
	}
}

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
		for a := range s.Out {
			for _, b := range s.Out[a] {
				sum += s.Support(int32(a), b)
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

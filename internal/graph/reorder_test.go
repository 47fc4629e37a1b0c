package graph

import (
	"math/rand"
	"testing"
)

// randomCSR builds a random graph's CSR for reorder testing.
func randomCSR(seed int64, n, m int) *CSR {
	rng := rand.New(rand.NewSource(seed))
	labels := NewLabels()
	g := New(labels)
	for v := 0; v < n; v++ {
		g.AddNodeNamed([]string{"A", "B", "C"}[v%3])
	}
	for i := 0; i < m; i++ {
		g.AddEdge(Node(rng.Intn(n)), Node(rng.Intn(n)))
	}
	return g.Freeze()
}

// TestReorderIsPermutation checks that ReorderPerm emits a bijection
// covering every node, including isolated ones.
func TestReorderIsPermutation(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		c := randomCSR(seed, 120, 300)
		perm := ReorderPerm(c)
		seen := make([]bool, c.NumNodes())
		for v, nv := range perm {
			if nv < 0 || int(nv) >= c.NumNodes() || seen[nv] {
				t.Fatalf("seed %d: node %d mapped to invalid/duplicate %d", seed, v, nv)
			}
			seen[nv] = true
		}
	}
}

// TestReorderIsIsomorphic checks the permuted CSR is an exact relabeled
// copy: labels follow their nodes, and (u,v) is an edge iff
// (NewID[u],NewID[v]) is.
func TestReorderIsIsomorphic(t *testing.T) {
	for _, seed := range []int64{4, 5} {
		c := randomCSR(seed, 100, 400)
		r := Reorder(c)
		if r.C.NumNodes() != c.NumNodes() || r.C.NumEdges() != c.NumEdges() {
			t.Fatalf("size changed: %d/%d vs %d/%d", r.C.NumNodes(), r.C.NumEdges(), c.NumNodes(), c.NumEdges())
		}
		for v := 0; v < c.NumNodes(); v++ {
			nv := r.ToNew(Node(v))
			if r.OldID[nv] != Node(v) {
				t.Fatalf("id maps not inverse at %d", v)
			}
			if c.Label(Node(v)) != r.C.Label(nv) {
				t.Fatalf("label of %d not carried to %d", v, nv)
			}
			if c.OutDegree(Node(v)) != r.C.OutDegree(nv) || c.InDegree(Node(v)) != r.C.InDegree(nv) {
				t.Fatalf("degree of %d changed", v)
			}
		}
		edges := 0
		c.Edges(func(u, v Node) bool {
			if !r.C.HasEdge(r.ToNew(u), r.ToNew(v)) {
				t.Fatalf("edge (%d,%d) lost", u, v)
			}
			edges++
			return true
		})
		if edges != c.NumEdges() {
			t.Fatalf("visited %d of %d edges", edges, c.NumEdges())
		}
		// Rows must be sorted ascending (the CSR invariant HasEdge's binary
		// search and the dedup passes rely on).
		for x := 0; x < r.C.NumNodes(); x++ {
			prev := Node(-1)
			for _, w := range r.C.Successors(Node(x)) {
				if w <= prev {
					t.Fatalf("permuted row %d not sorted/unique", x)
				}
				prev = w
			}
			prev = -1
			for _, w := range r.C.Predecessors(Node(x)) {
				if w <= prev {
					t.Fatalf("permuted in-row %d not sorted/unique", x)
				}
				prev = w
			}
		}
	}
}

// TestApplyPermRejectsMalformed pins the panic contract for non-bijections.
func TestApplyPermRejectsMalformed(t *testing.T) {
	c := randomCSR(7, 10, 20)
	for _, perm := range [][]Node{
		{0, 1, 2},                        // wrong length
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 8},   // duplicate
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 100}, // out of range
		{-1, 1, 2, 3, 4, 5, 6, 7, 8, 9},  // negative
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ApplyPerm accepted malformed permutation %v", perm)
				}
			}()
			ApplyPerm(c, perm)
		}()
	}
}

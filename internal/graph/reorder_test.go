package graph

import (
	"cmp"
	"math/rand"
	"slices"
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

// TestReorderPermRootOrder holds ReorderPerm to its definition, a BFS
// numbering from roots sorted by descending out-degree, ties by ascending
// id, with the roots ordered by a comparison sort: on random graphs, on one
// with a hub of out-degree |V| (every node, itself included) and on one
// with no edges.
func TestReorderPermRootOrder(t *testing.T) {
	want := func(c *CSR) []Node {
		roots := make([]Node, c.NumNodes())
		for v := range roots {
			roots[v] = Node(v)
		}
		slices.SortFunc(roots, func(a, b Node) int {
			return cmp.Or(cmp.Compare(c.OutDegree(b), c.OutDegree(a)), cmp.Compare(a, b))
		})
		newID := slices.Repeat([]Node{-1}, c.NumNodes())
		next := Node(0)
		for _, r := range roots {
			if newID[r] >= 0 {
				continue
			}
			newID[r], next = next, next+1
			for queue := []Node{r}; len(queue) > 0; queue = queue[1:] {
				for _, w := range c.Successors(queue[0]) {
					if newID[w] < 0 {
						newID[w], next = next, next+1
						queue = append(queue, w)
					}
				}
			}
		}
		return newID
	}
	hub := New(nil)
	for range 40 {
		hub.AddNodeNamed("A")
	}
	for v := range 40 {
		hub.AddEdge(7, Node(v))
		hub.AddEdge(Node(v), Node((v*3)%40))
	}
	cases := []*CSR{hub.Freeze(), randomCSR(9, 50, 0)}
	for seed := int64(10); seed < 30; seed++ {
		cases = append(cases, randomCSR(seed, 1+int(seed)*7, int(seed)*int(seed)))
	}
	for i, c := range cases {
		if got := ReorderPerm(c); !slices.Equal(got, want(c)) {
			t.Fatalf("case %d: ReorderPerm %v, the comparison sort gives %v", i, got, want(c))
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

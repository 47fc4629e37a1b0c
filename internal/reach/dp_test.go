package reach

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// bruteDesc computes strict descendant component sets of the condensation
// by per-node BFS, for reference.
func bruteDesc(s *graph.SCC) []map[int32]bool {
	n := s.NumComponents()
	out := make([]map[int32]bool, n)
	for c := 0; c < n; c++ {
		seen := make(map[int32]bool)
		stack := []int32{int32(c)}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, t := range s.Out[x] {
				if !seen[t] {
					seen[t] = true
					stack = append(stack, t)
				}
			}
		}
		out[c] = seen
	}
	return out
}

func TestDescendantDPMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Intn(3*n))
		s := graph.Tarjan(g)
		want := bruteDesc(s)
		ok := true
		visited := 0
		descendantDP(s, func(comp int32, desc *bitset.Set) {
			visited++
			if desc.Count() != len(want[comp]) {
				ok = false
				return
			}
			for c := range want[comp] {
				if !desc.Has(int(c)) {
					ok = false
				}
			}
		})
		return ok && visited == s.NumComponents()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAncestorDPIsDualOfDescendantDP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Intn(3*n))
		s := graph.Tarjan(g)
		nc := s.NumComponents()
		// Collect both relations and check duality: a ∈ anc(b) ⇔ b ∈ desc(a).
		desc := make([]*bitset.Set, nc)
		anc := make([]*bitset.Set, nc)
		descendantDP(s, func(c int32, d *bitset.Set) { desc[c] = d.Clone() })
		ancestorDP(s, func(c int32, a *bitset.Set) { anc[c] = a.Clone() })
		for a := 0; a < nc; a++ {
			for b := 0; b < nc; b++ {
				if desc[a].Has(b) != anc[b].Has(a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSetGrouperExactness(t *testing.T) {
	sg := newSetGrouper()
	a := bitset.New(100)
	a.Set(3)
	a.Set(64)
	b := bitset.New(100)
	b.Set(3)
	b.Set(64)
	c := bitset.New(100)
	c.Set(3)
	c.Set(65)
	ga := sg.groupOf(a)
	gb := sg.groupOf(b)
	gc := sg.groupOf(c)
	if ga != gb {
		t.Fatal("equal sets got different groups")
	}
	if ga == gc {
		t.Fatal("distinct sets got the same group")
	}
	if sg.numGroups() != 2 {
		t.Fatalf("numGroups = %d, want 2", sg.numGroups())
	}
	// Mutating the original after grouping must not corrupt the
	// representative (groupOf clones).
	a.Set(99)
	d := bitset.New(100)
	d.Set(3)
	d.Set(64)
	if sg.groupOf(d) != ga {
		t.Fatal("representative was not cloned")
	}
}

func TestBuildQuotientGraphSelfLoopAndTR(t *testing.T) {
	// Class DAG 0 -> 1 -> 2 plus redundant 0 -> 2; class 1 cyclic.
	rawAdj := [][]int32{{1, 2}, {2}, {}}
	cyclic := []bool{false, true, false}
	gr := BuildQuotientGraph(rawAdj, cyclic)
	if !gr.HasEdge(1, 1) {
		t.Fatal("cyclic class missing self-loop")
	}
	if gr.HasEdge(0, 2) {
		t.Fatal("transitive reduction kept redundant edge")
	}
	if !gr.HasEdge(0, 1) || !gr.HasEdge(1, 2) {
		t.Fatal("chain edges missing")
	}
	if err := gr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildQuotientGraphDuplicateEdges(t *testing.T) {
	// Raw adjacency may contain duplicates; the quotient must dedupe.
	rawAdj := [][]int32{{1, 1, 1}, {}}
	gr := BuildQuotientGraph(rawAdj, []bool{false, false})
	if gr.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", gr.NumEdges())
	}
}

package bisim

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// TestCompressCSRPathMatchesNaiveEngine: differential test that the
// CSR-backed default pipeline (RefinePTCSR + sort-dedup bulk quotient)
// yields exactly the partition and quotient of the naive reference engine,
// which still walks the mutable graph.
func TestCompressCSRPathMatchesNaiveEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(50)
		g := randomLabeled(rng, n, rng.Intn(3*n), 1+rng.Intn(4))
		fast := Compress(g) // Paige–Tarjan over CSR
		ref := RefineNaive(g)

		// Identical partitions: both numberings are canonical.
		refC := Quotient(g, ref)
		for v := 0; v < n; v++ {
			if fast.ClassOf(graph.Node(v)) != refC.ClassOf(graph.Node(v)) {
				t.Fatalf("trial %d: ClassOf(%d) differs: PT %d vs naive %d",
					trial, v, fast.ClassOf(graph.Node(v)), refC.ClassOf(graph.Node(v)))
			}
		}

		// Identical quotient graphs: the definition fixes Gr's edges as
		// {([u],[v]) : (u,v) ∈ E}, so equal partitions force equal graphs.
		if fast.Gr.NumNodes() != refC.Gr.NumNodes() || fast.Gr.NumEdges() != refC.Gr.NumEdges() {
			t.Fatalf("trial %d: quotient sizes differ: (%d,%d) vs (%d,%d)", trial,
				fast.Gr.NumNodes(), fast.Gr.NumEdges(), refC.Gr.NumNodes(), refC.Gr.NumEdges())
		}
		same := true
		fast.Gr.Edges(func(u, v graph.Node) bool {
			if !refC.Gr.HasEdge(u, v) {
				same = false
			}
			return same
		})
		if !same {
			t.Fatalf("trial %d: quotient edge sets differ", trial)
		}

		// Quotient edges match the definition directly.
		gr := fast.Gr
		seen := make(map[[2]graph.Node]bool)
		g.Edges(func(u, v graph.Node) bool {
			seen[[2]graph.Node{fast.ClassOf(u), fast.ClassOf(v)}] = true
			return true
		})
		if gr.NumEdges() != len(seen) {
			t.Fatalf("trial %d: Gr has %d edges, definition gives %d", trial, gr.NumEdges(), len(seen))
		}
		for e := range seen {
			if !gr.HasEdge(e[0], e[1]) {
				t.Fatalf("trial %d: Gr missing class edge (%d,%d)", trial, e[0], e[1])
			}
		}
	}
}

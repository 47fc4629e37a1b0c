package qpgc_test

import (
	"fmt"

	qpgc "repro"
)

// ExampleCompressReachability compresses a small org chart for
// reachability queries: the same BFS answers QR on G and on the much
// smaller Gr after an O(1) rewriting of the endpoints.
func ExampleCompressReachability() {
	g := qpgc.NewGraph()
	mgr1 := g.AddNodeNamed("Manager")
	mgr2 := g.AddNodeNamed("Manager")
	eng1 := g.AddNodeNamed("Engineer")
	eng2 := g.AddNodeNamed("Engineer")
	ctr := g.AddNodeNamed("Contractor")
	g.AddEdge(mgr1, eng1)
	g.AddEdge(mgr2, eng1)
	g.AddEdge(mgr1, eng2)
	g.AddEdge(mgr2, eng2)
	g.AddEdge(eng1, ctr)
	g.AddEdge(eng2, ctr)

	rc := qpgc.CompressReachability(g)
	fmt.Printf("G: %d nodes, %d edges -> Gr: %d nodes, %d edges\n",
		g.NumNodes(), g.NumEdges(), rc.Gr.NumNodes(), rc.Gr.NumEdges())

	// The rewriting function F maps the query onto Gr in O(1); the BFS is
	// unmodified.
	u, v := rc.Rewrite(mgr1, ctr)
	fmt.Println("QR(mgr1, ctr) on G: ", qpgc.Reachable(g, mgr1, ctr))
	fmt.Println("QR(mgr1, ctr) on Gr:", qpgc.Reachable(rc.Gr, u, v))
	// Output:
	// G: 5 nodes, 6 edges -> Gr: 3 nodes, 2 edges
	// QR(mgr1, ctr) on G:  true
	// QR(mgr1, ctr) on Gr: true
}

// ExampleCompressPattern compresses the same graph for pattern queries
// (maximum bisimulation) and answers a bounded-simulation pattern on the
// quotient, expanding the match back to G with the post-processing P.
func ExampleCompressPattern() {
	g := qpgc.NewGraph()
	mgr1 := g.AddNodeNamed("Manager")
	mgr2 := g.AddNodeNamed("Manager")
	eng1 := g.AddNodeNamed("Engineer")
	eng2 := g.AddNodeNamed("Engineer")
	ctr := g.AddNodeNamed("Contractor")
	g.AddEdge(mgr1, eng1)
	g.AddEdge(mgr2, eng1)
	g.AddEdge(mgr1, eng2)
	g.AddEdge(mgr2, eng2)
	g.AddEdge(eng1, ctr)
	g.AddEdge(eng2, ctr)

	pc := qpgc.CompressPattern(g)
	fmt.Printf("G: %d nodes -> Gr: %d classes\n", g.NumNodes(), pc.NumClasses())

	// Pattern: a Manager reaching a Contractor within 2 hops.
	p := qpgc.NewPattern()
	pm := p.AddNode("Manager")
	pc2 := p.AddNode("Contractor")
	p.AddEdge(pm, pc2, 2)

	onG := qpgc.Match(g, p)
	viaGr := qpgc.Expand(qpgc.Match(pc.Gr, p), pc) // post-processing P
	fmt.Printf("match on G: %d pairs, via Gr: %d pairs\n", onG.Size(), viaGr.Size())
	fmt.Println("managers match:", viaGr.Sets[pm])
	// Output:
	// G: 5 nodes -> Gr: 3 classes
	// match on G: 3 pairs, via Gr: 3 pairs
	// managers match: [0 1]
}

// ExampleOpen serves queries from a concurrent Store while batched edge
// updates land: ApplyBatch returns once its batch is visible, readers never
// block, and a pinned snapshot keeps answering with its own epoch's state.
func ExampleOpen() {
	g := qpgc.NewGraph()
	a := g.AddNodeNamed("A")
	b := g.AddNodeNamed("B")
	c := g.AddNodeNamed("C")
	g.AddEdge(a, b)

	s, _ := qpgc.Open(g, nil) // takes ownership of g; in-memory open cannot fail
	defer s.Close()

	before := s.Snapshot() // pin epoch 0
	fmt.Println("epoch 0, a->c:", s.Reachable(a, c))

	res, _ := s.ApplyBatch([]qpgc.Update{qpgc.Insertion(b, c)})
	fmt.Printf("batch visible at epoch %d\n", res.Epoch)
	fmt.Println("epoch 1, a->c:", s.Reachable(a, c))

	// The pinned snapshot still answers with epoch-0 state.
	scratch := qpgc.NewQueryScratch(3)
	fmt.Println("pinned epoch 0, a->c:", before.Reachable(scratch, a, c))

	st := s.Stats()
	fmt.Printf("stats: %d batches, %d updates\n", st.Batches, st.Updates)
	// Output:
	// epoch 0, a->c: false
	// batch visible at epoch 1
	// epoch 1, a->c: true
	// pinned epoch 0, a->c: false
	// stats: 1 batches, 1 updates
}

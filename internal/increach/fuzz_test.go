package increach

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/reach"
)

// sameAsBatch fails unless m's compression is reach.Compress of its graph
// up to class numbering: the same partition of the nodes and, through the
// class bijection, the same Gr edges and cyclic flags.
func sameAsBatch(t *testing.T, what string, m *Maintainer) {
	t.Helper()
	g := m.Graph()
	want, got := reach.Compress(g), m.Compressed()
	if got.NumClasses() != want.NumClasses() {
		t.Fatalf("%s: %d classes, batch has %d\nedges %v", what, got.NumClasses(), want.NumClasses(), g.EdgeList())
	}
	toWant := make([]graph.Node, got.NumClasses())
	seen := make([]bool, got.NumClasses())
	taken := make([]bool, want.NumClasses())
	for v := range g.NumNodes() {
		gc, wc := got.ClassOf(graph.Node(v)), want.ClassOf(graph.Node(v))
		switch {
		case !seen[gc] && taken[wc]:
			t.Fatalf("%s: batch class %d is split (node %d)\nedges %v", what, wc, v, g.EdgeList())
		case !seen[gc]:
			seen[gc], taken[wc], toWant[gc] = true, true, wc
		case toWant[gc] != wc:
			t.Fatalf("%s: class %d merges batch classes %d and %d\nedges %v", what, gc, toWant[gc], wc, g.EdgeList())
		}
	}
	if err := got.Gr.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for c := range got.NumClasses() {
		w := toWant[c]
		if got.CyclicClass[c] != want.CyclicClass[w] {
			t.Fatalf("%s: class %d cyclic %v, batch %v", what, c, got.CyclicClass[c], want.CyclicClass[w])
		}
		var row []graph.Node
		for _, d := range got.Gr.Successors(graph.Node(c)) {
			row = append(row, toWant[d])
		}
		slices.Sort(row)
		if ws := want.Gr.Successors(w); !slices.Equal(row, ws) {
			t.Fatalf("%s: class %d's Gr row %v maps to %v, batch has %v\nedges %v", what, c, got.Gr.Successors(graph.Node(c)), row, ws, g.EdgeList())
		}
	}
}

// stressInput encodes the history TestStressIncrementalVsBatch draws for
// seed in FuzzIncRCM's form, so that the stress test's shapes seed the
// corpus.
func stressInput(seed int64) (n uint8, edges, ups []byte) {
	rng := rand.New(rand.NewSource(seed))
	nodes := 2 + rng.Intn(30)
	g := graph.New(nil)
	for range nodes {
		g.AddNodeNamed("X")
	}
	for range rng.Intn(4 * nodes) {
		u, v := rng.Intn(nodes), rng.Intn(nodes)
		g.AddEdge(graph.Node(u), graph.Node(v))
		edges = append(edges, byte(u), byte(v))
	}
	for range 6 {
		share := []float64{1, 0, 0.5}[rng.Intn(3)]
		batch := gen.RandomBatch(rng, g, 1+rng.Intn(7), share)
		for i, up := range batch {
			ins, more := byte(0), byte(7)
			if up.Insert {
				ins = 1
			}
			if i == len(batch)-1 {
				more = 0
			}
			ups = append(ups, byte(up.From), byte(up.To), ins, more)
		}
		g.Apply(batch)
	}
	return uint8(nodes), edges, ups
}

// FuzzIncRCM decodes a small graph — n nodes, then edges as byte pairs —
// and a history of updates, four bytes each: the two ends, an insertion when
// the third is odd, and whether the update closes its batch, which it does
// once the batch holds more than the fourth byte mod 8 updates. Self-loops,
// deletions of absent edges and repeated edges all decode. After every batch
// the maintained partition and Gr must be reach.Compress's.
func FuzzIncRCM(f *testing.F) {
	for seed := range int64(8) {
		n, edges, ups := stressInput(seed)
		f.Add(n, edges, ups)
	}
	f.Add(uint8(4), []byte{0, 1, 1, 2, 2, 0, 3, 3}, []byte{0, 1, 0, 7, 3, 3, 0, 7, 3, 0, 1, 7, 2, 1, 0, 0}) // a cycle broken, a self-loop dropped, an absent edge
	f.Add(uint8(3), []byte{0, 1, 0, 1}, []byte{0, 1, 1, 7, 0, 1, 0, 7, 0, 1, 1, 0})                         // one edge inserted and deleted within a batch
	f.Fuzz(func(t *testing.T, n uint8, edges, ups []byte) {
		n = 1 + n%48
		g := graph.New(nil)
		for range n {
			g.AddNodeNamed("X")
		}
		node := func(b byte) graph.Node { return graph.Node(b % n) }
		for i := 0; i+1 < len(edges); i += 2 {
			g.AddEdge(node(edges[i]), node(edges[i+1]))
		}
		m := New(g)
		sameAsBatch(t, "initial", m)
		var batch []graph.Update
		for round := 0; len(ups) >= 4; ups = ups[4:] {
			batch = append(batch, graph.Update{From: node(ups[0]), To: node(ups[1]), Insert: ups[2]&1 == 1})
			if len(batch) <= int(ups[3]%8) && len(ups) >= 8 {
				continue
			}
			m.Apply(batch)
			batch = batch[:0]
			sameAsBatch(t, fmt.Sprintf("round %d", round), m)
			round++
		}
	})
}

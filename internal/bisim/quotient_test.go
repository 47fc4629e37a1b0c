package bisim

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// FuzzQuotient holds graph.Quotient, the sort-free builder every pattern
// view is made by, to Quotient, which reads every member's row and sorts.
// An input is a node count, a label count, a refinement width and an edge
// list, two bytes an edge, so self-loops and many edges into one block come
// up often. The partition is a stable one of the graph: Paige–Tarjan over
// the graph's labels each split into width sublabels drawn from the
// edges' bytes, which at width 1 is the maximum bisimulation and at larger
// widths a finer stable partition with more one-member blocks. The builder
// reads each block's first member only, over the graph and over its CSR,
// and both must equal the reference, both sides of every row and every
// label.
func FuzzQuotient(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), []byte{0, 0})                   // one node, a self-loop
	f.Add(uint8(6), uint8(1), uint8(1), []byte{0, 1, 0, 2, 0, 3, 0, 4}) // a star: four edges into one block
	f.Add(uint8(8), uint8(2), uint8(1), []byte{0, 1, 1, 2, 2, 0, 3, 3, 4, 5, 5, 4, 6, 7, 7, 7})
	f.Add(uint8(12), uint8(3), uint8(12), []byte{0, 1, 1, 2, 2, 3, 3, 0, 4, 4, 5, 6, 6, 5, 7, 8, 9, 10, 11, 11})
	f.Add(uint8(30), uint8(2), uint8(2), []byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"))
	f.Add(uint8('|'), uint8(0x16), uint8(2), []byte("8081")) // a first member whose successors' blocks descend
	f.Fuzz(func(t *testing.T, nodes, labels, width uint8, edges []byte) {
		n, nl, k := 1+int(nodes%48), 1+int(labels%4), 1+int(width%8)
		g, refined := graph.New(nil), graph.New(nil)
		for v := range n {
			l := (v * 7) % nl
			if len(edges) > 0 {
				l = int(edges[v%len(edges)]) % nl
			}
			g.AddNodeNamed(fmt.Sprint(l))
			refined.AddNodeNamed(fmt.Sprint(l, "/", (v*13+int(width))%k))
		}
		for i := 0; i+1 < len(edges); i += 2 {
			u, v := graph.Node(int(edges[i])%n), graph.Node(int(edges[i+1])%n)
			g.AddEdge(u, v)
			refined.AddEdge(u, v)
		}
		p := RefinePTCSR(refined.Freeze())
		if !IsStable(g, p) {
			t.Fatal("the refined partition is not stable on the graph")
		}
		want := Quotient(g, p).Gr.Freeze()
		label, first := make([]graph.Label, p.NumBlocks()), make([]graph.Node, p.NumBlocks())
		for b, mem := range p.Blocks {
			first[b], label[b] = mem[0], g.Label(mem[0])
		}
		for what, got := range map[string]*graph.CSR{
			"graph": graph.Quotient(g, label, first, p.BlockOf),
			"CSR":   graph.Quotient(g.Freeze(), append([]graph.Label(nil), label...), first, p.BlockOf),
		} {
			if !got.Equal(want) {
				t.Fatalf("over the %s: the quotient differs from Quotient's", what)
			}
			out := 0
			for v := range got.NumNodes() {
				out += got.OutDegree(graph.Node(v))
			}
			if got.NumEdges() != out || got.NumEdges() != len(got.InAdj()) {
				t.Fatalf("over the %s: %d edges, %d successor and %d predecessor entries", what, got.NumEdges(), out, len(got.InAdj()))
			}
		}
	})
}

package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead feeds arbitrary text to the graph parser: it must return an
// error for malformed input, never panic, and any accepted graph must
// satisfy the structural invariants and survive a Write/Read round trip.
func FuzzRead(f *testing.F) {
	f.Add("# qpgc graph\nn 0 A\nn 1 B\ne 0 1\n")
	f.Add("n 0 A\ne 0 0\n")
	f.Add("n 0 A\nn 1 A\ne 1 0\ne 0 1\n")
	f.Add("n 0 A\nn 1 A\nn 2 B\ne 0 2\ne 0 1\ne 0 2\n") // unsorted, duplicate
	f.Add("")
	f.Add("n 1 A\n")         // non-dense id
	f.Add("e 0 1\n")         // edge before nodes
	f.Add("n 0\n")           // missing label
	f.Add("x 0 1\n")         // unknown record
	f.Add("n 0 A\ne 0 99\n") // out-of-range edge
	f.Add("n -1 A\n")
	f.Add("n 99999999999999999999 A\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		if g == nil {
			t.Fatal("nil graph without error")
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("Write of accepted graph failed: %v", err)
		}
		g2, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed size: %v vs %v", g2, g)
		}
	})
}

package qpgc

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/queries"
)

// TestFacadeEndToEnd exercises the public API surface the way the README
// quickstart does.
func TestFacadeEndToEnd(t *testing.T) {
	g := NewGraph()
	a1 := g.AddNodeNamed("A")
	a2 := g.AddNodeNamed("A")
	b := g.AddNodeNamed("B")
	c := g.AddNodeNamed("C")
	g.AddEdge(a1, b)
	g.AddEdge(a2, b)
	g.AddEdge(b, c)

	// Reachability compression.
	rc := CompressReachability(g)
	if rc.ClassOf(a1) != rc.ClassOf(a2) {
		t.Fatal("equivalent sources not merged")
	}
	u, v := rc.Rewrite(a1, c)
	if !Reachable(rc.Gr, u, v) || !queries.ReachableBi(rc.Gr, u, v) {
		t.Fatal("reachability lost under compression")
	}

	// Pattern compression + match.
	p := NewPattern()
	pa := p.AddNode("A")
	pb := p.AddNode("B")
	p.AddEdge(pa, pb, 1)
	pc := CompressPattern(g)
	onG := Match(g, p)
	onGr := Expand(Match(pc.Gr, p), pc)
	if !onG.OK || !onGr.OK || onG.Size() != onGr.Size() {
		t.Fatalf("pattern preservation broken: %d vs %d", onG.Size(), onGr.Size())
	}

	// 2-hop index over the compressed graph.
	idx := BuildTwoHop(rc.Gr)
	if got := idx.Reachable(u, v); !got {
		t.Fatal("2-hop on Gr disagrees")
	}

	// Incremental maintenance.
	rm := NewReachMaintainer(g.Clone())
	rm.Apply([]Update{Insertion(c, a1)})
	cu, cv := rm.Compressed().Rewrite(c, b)
	if !Reachable(rm.Compressed().Gr, cu, cv) {
		t.Fatal("maintained compression wrong after insertion")
	}
	pm := NewPatternMaintainer(g.Clone())
	pm.Apply([]Update{Deletion(a1, b)})
	if pm.Compressed().ClassOf(a1) == pm.Compressed().ClassOf(a2) {
		t.Fatal("pattern maintainer missed a split")
	}

	// Incremental matching.
	im := pattern.NewIncMatcher(g.Clone(), p)
	im.Apply([]Update{Deletion(a1, b)})
	if r := im.Result(); r.OK && slices.Contains(r.Sets[pa], a1) {
		t.Fatal("stale match after deletion")
	}

	// Serialization round trip.
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := graph.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != g.NumNodes() || h.NumEdges() != g.NumEdges() {
		t.Fatal("round trip mismatch")
	}
}

func TestDatasetRegistriesExposed(t *testing.T) {
	if len(ReachabilityDatasets()) != 10 || len(gen.PatternDatasets()) != 5 {
		t.Fatal("dataset registries incomplete")
	}
	g := ReachabilityDatasets()[7].Scale(0.3).Build(1) // P2P
	if g.NumNodes() == 0 {
		t.Fatal("dataset build failed")
	}
}

package qpgc

// Integration tests: cross-module flows on the structured dataset
// generators (not just uniform random graphs), exercising the complete
// <R,F,P> pipelines the way the experiments do, at reduced scale.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bisim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/incbisim"
	"repro/internal/increach"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/reach"
)

// spotCheckReachPreservation samples node pairs instead of checking all
// |V|² pairs, keeping structured-graph tests fast.
func spotCheckReachPreservation(t *testing.T, g *graph.Graph, c *reach.Compressed, rng *rand.Rand, samples int) {
	t.Helper()
	n := g.NumNodes()
	for i := 0; i < samples; i++ {
		u := graph.Node(rng.Intn(n))
		v := graph.Node(rng.Intn(n))
		cu, cv := c.Rewrite(u, v)
		want := queries.Reachable(g, u, v)
		if got := queries.Reachable(c.Gr, cu, cv); got != want {
			t.Fatalf("QR(%d,%d): G=%v Gr=%v", u, v, want, got)
		}
		if got := queries.ReachableBi(c.Gr, cu, cv); got != want {
			t.Fatalf("QR(%d,%d) BIBFS: G=%v Gr=%v", u, v, want, got)
		}
	}
}

func TestReachPreservationOnAllTopologyClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	builders := map[string]*graph.Graph{
		"social":   gen.Social(rng, 400, 2400, 4),
		"web":      gen.Web(rng, 400, 1200, 6),
		"webcore":  gen.WebCore(rng, 400, 1600, 6),
		"citation": gen.Citation(rng, 400, 1600, 5),
		"p2p":      gen.P2P(rng, 400, 1400, 1),
		"internet": gen.Internet(rng, 400, 900, 8),
		"er":       gen.ErdosRenyi(rng, 400, 1600, 4),
	}
	for name, g := range builders {
		g := g
		t.Run(name, func(t *testing.T) {
			c := reach.Compress(g)
			if c.Gr.Size() > g.Size() {
				t.Fatal("compression grew the graph")
			}
			if err := c.Gr.Validate(); err != nil {
				t.Fatal(err)
			}
			spotCheckReachPreservation(t, g, c, rng, 300)
		})
	}
}

func TestPatternPreservationOnAllTopologyClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	builders := map[string]*graph.Graph{
		"social":   gen.Social(rng, 300, 1800, 4),
		"web":      gen.Web(rng, 300, 900, 6),
		"citation": gen.Citation(rng, 300, 1200, 5),
		"internet": gen.Internet(rng, 300, 700, 8),
	}
	for name, g := range builders {
		g := g
		t.Run(name, func(t *testing.T) {
			c := bisim.Compress(g)
			for trial := 0; trial < 6; trial++ {
				p := gen.Pattern(rng, g, gen.PatternSpec{
					Nodes: 2 + rng.Intn(4), Edges: 2 + rng.Intn(4),
					Lp: 0, K: 3,
				})
				onG := pattern.Match(g, p)
				viaGr := pattern.Expand(pattern.Match(c.Gr, p), c)
				if onG.OK != viaGr.OK || onG.Size() != viaGr.Size() {
					t.Fatalf("preservation broken: %d vs %d pairs", onG.Size(), viaGr.Size())
				}
				if onG.OK {
					for u := range onG.Sets {
						for i, v := range onG.Sets[u] {
							if viaGr.Sets[u][i] != v {
								t.Fatalf("pattern node %d: sets differ", u)
							}
						}
					}
				}
			}
		})
	}
}

// TestMaintainersUnderExperimentWorkloads drives both maintainers with
// the actual evolution models of Exp-4 (densification and power-law
// growth) and cross-checks against batch recompression.
func TestMaintainersUnderExperimentWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := gen.ErdosRenyi(rng, 120, 180, 5)

	rm := increach.New(g.Clone())
	pm := incbisim.New(g.Clone())
	evolved := g.Clone()

	apply := func(ups []graph.Update) {
		rm.Apply(ups)
		pm.Apply(ups)
	}
	for round := 0; round < 3; round++ {
		// Densification adds nodes, which the maintainers don't support —
		// grow edges only, via the power-law model.
		ups := gen.GrowPowerLaw(rng, evolved, 0.05, 0.8)
		apply(ups)

		// Reachability side: quotient must equal batch.
		want := reach.Compress(evolved)
		got := rm.Compressed()
		if got.Gr.NumNodes() != want.Gr.NumNodes() || got.Gr.NumEdges() != want.Gr.NumEdges() {
			t.Fatalf("round %d: reach quotient %v, batch %v", round, got.Gr, want.Gr)
		}
		// Pattern side: partition must equal batch.
		if !slices.Equal(pm.Partition().BlockOf, bisim.RefineNaive(evolved).BlockOf) {
			t.Fatalf("round %d: bisim partition diverged", round)
		}
	}

	// Now a deletion-heavy phase.
	for round := 0; round < 3; round++ {
		ups := gen.RandomBatch(rng, evolved, 12, 0.2)
		evolved.Apply(ups)
		apply(ups)
		want := reach.Compress(evolved)
		got := rm.Compressed()
		if got.Gr.NumNodes() != want.Gr.NumNodes() || got.Gr.NumEdges() != want.Gr.NumEdges() {
			t.Fatalf("deletion round %d: reach quotient diverged", round)
		}
		if !slices.Equal(pm.Partition().BlockOf, bisim.RefineNaive(evolved).BlockOf) {
			t.Fatalf("deletion round %d: bisim partition diverged", round)
		}
	}
}

// TestQueryAfterEveryBatch interleaves updates and queries, the
// steady-state usage pattern the paper advocates (compress once, maintain
// forever).
func TestQueryAfterEveryBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := gen.Social(rng, 150, 800, 3)
	rm := increach.New(g.Clone())
	pm := incbisim.New(g.Clone())
	p := gen.Pattern(rng, g, gen.PatternSpec{Nodes: 3, Edges: 3, Lp: 0, K: 2})

	for round := 0; round < 6; round++ {
		ups := gen.RandomBatch(rng, rm.Graph(), 10, 0.5)
		rm.Apply(ups)
		pm.Apply(ups)

		// Reachability spot checks.
		c := rm.Compressed()
		for i := 0; i < 40; i++ {
			u := graph.Node(rng.Intn(g.NumNodes()))
			v := graph.Node(rng.Intn(g.NumNodes()))
			cu, cv := c.Rewrite(u, v)
			if queries.Reachable(c.Gr, cu, cv) != queries.Reachable(rm.Graph(), u, v) {
				t.Fatalf("round %d: maintained Gr wrong for QR(%d,%d)", round, u, v)
			}
		}
		// Pattern query through the maintained compression.
		pc := pm.Compressed()
		onG := pattern.Match(pm.Graph(), p)
		viaGr := pattern.Expand(pattern.Match(pc.Gr, p), pc)
		if onG.Size() != viaGr.Size() {
			t.Fatalf("round %d: pattern answers diverged (%d vs %d)",
				round, onG.Size(), viaGr.Size())
		}
	}
}

// TestCompressionIsIdempotent: compressing a compressed graph must be a
// no-op (fixed point), for both schemes.
func TestCompressionIsIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := gen.Social(rng, 300, 1500, 4)

	rc := reach.Compress(g)
	rc2 := reach.Compress(rc.Gr)
	if rc2.Gr.NumNodes() != rc.Gr.NumNodes() || rc2.Gr.NumEdges() != rc.Gr.NumEdges() {
		t.Fatalf("reach compression not idempotent: %v -> %v", rc.Gr, rc2.Gr)
	}

	bc := bisim.Compress(g)
	bc2 := bisim.Compress(bc.Gr)
	if bc2.Gr.NumNodes() != bc.Gr.NumNodes() || bc2.Gr.NumEdges() != bc.Gr.NumEdges() {
		t.Fatalf("pattern compression not idempotent: %v -> %v", bc.Gr, bc2.Gr)
	}
}

// TestCompressOnceQueryManyEquivalence: the answers to a battery of mixed
// queries via compression must match direct evaluation exactly — the
// "complete package" claim of the paper's introduction.
func TestCompressOnceQueryManyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := gen.Web(rng, 360, 1100, 6)
	rc := reach.Compress(g)
	bc := bisim.Compress(g)

	reachAgree, patternAgree := 0, 0
	for q := 0; q < 100; q++ {
		u := graph.Node(rng.Intn(g.NumNodes()))
		v := graph.Node(rng.Intn(g.NumNodes()))
		cu, cv := rc.Rewrite(u, v)
		if queries.Reachable(rc.Gr, cu, cv) == queries.Reachable(g, u, v) {
			reachAgree++
		}
	}
	for q := 0; q < 15; q++ {
		p := gen.Pattern(rng, g, gen.PatternSpec{Nodes: 3, Edges: 3, Lp: 0, K: 2})
		onG := pattern.Match(g, p)
		viaGr := pattern.Expand(pattern.Match(bc.Gr, p), bc)
		if onG.Size() == viaGr.Size() && onG.OK == viaGr.OK {
			patternAgree++
		}
	}
	if reachAgree != 100 || patternAgree != 15 {
		t.Fatalf("agreement: reach %d/100, pattern %d/15", reachAgree, patternAgree)
	}
}

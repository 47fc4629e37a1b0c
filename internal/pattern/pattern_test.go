package pattern

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bisim"
	"repro/internal/graph"
	"repro/internal/queries"
)

func labeledGraph(labels []string, edges [][2]graph.Node) *graph.Graph {
	g := graph.New(nil)
	for _, l := range labels {
		g.AddNodeNamed(l)
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func randomLabeled(rng *rand.Rand, n, m, nlabels int) *graph.Graph {
	g := graph.New(nil)
	for i := 0; i < n; i++ {
		g.AddNodeNamed(string(rune('A' + rng.Intn(nlabels))))
	}
	for i := 0; i < m; i++ {
		g.AddEdge(graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n)))
	}
	return g
}

// randomPattern builds a small connected-ish random pattern.
func randomPattern(rng *rand.Rand, nodes, edges, nlabels, maxBound int) *Pattern {
	p := New()
	for i := 0; i < nodes; i++ {
		p.AddNode(string(rune('A' + rng.Intn(nlabels))))
	}
	for i := 0; i < edges; i++ {
		u := int32(rng.Intn(nodes))
		v := int32(rng.Intn(nodes))
		bound := Unbounded
		if rng.Intn(3) > 0 {
			bound = 1 + rng.Intn(maxBound)
		}
		p.AddEdge(u, v, bound)
	}
	return p
}

// bruteMatch computes the maximum bounded-simulation match by definition:
// greatest fixpoint over pairs with explicit shortest-path checks.
func bruteMatch(g *graph.Graph, p *Pattern) *Result {
	np := p.NumNodes()
	n := g.NumNodes()
	rel := make([][]bool, np)
	for u := 0; u < np; u++ {
		rel[u] = make([]bool, n)
		for v := 0; v < n; v++ {
			rel[u][v] = g.LabelName(graph.Node(v)) == p.Label(int32(u))
		}
	}
	for changed := true; changed; {
		changed = false
		for u := 0; u < np; u++ {
			for v := 0; v < n; v++ {
				if !rel[u][v] {
					continue
				}
				for _, e := range p.EdgesFrom(int32(u)) {
					ok := false
					for w := 0; w < n; w++ {
						if !rel[e.To][w] {
							continue
						}
						d := queries.Distance(g, graph.Node(v), graph.Node(w))
						if d != -1 && (e.Bound == Unbounded || d <= e.Bound) {
							ok = true
							break
						}
					}
					if !ok {
						rel[u][v] = false
						changed = true
						break
					}
				}
			}
		}
	}
	res := &Result{OK: true, Sets: make([][]graph.Node, np)}
	for u := 0; u < np; u++ {
		for v := 0; v < n; v++ {
			if rel[u][v] {
				res.Sets[u] = append(res.Sets[u], graph.Node(v))
			}
		}
		if len(res.Sets[u]) == 0 {
			return &Result{OK: false}
		}
	}
	return res
}

func sameResult(a, b *Result) bool {
	if a.OK != b.OK {
		return false
	}
	if !a.OK {
		return true
	}
	if len(a.Sets) != len(b.Sets) {
		return false
	}
	for u := range a.Sets {
		if len(a.Sets[u]) != len(b.Sets[u]) {
			return false
		}
		for i := range a.Sets[u] {
			if a.Sets[u][i] != b.Sets[u][i] {
				return false
			}
		}
	}
	return true
}

func TestMatchSimpleEdgePattern(t *testing.T) {
	// Pattern A -1-> B over A0->B1, A2->C3: only A0/B1 match.
	g := labeledGraph([]string{"A", "B", "A", "C"}, [][2]graph.Node{{0, 1}, {2, 3}})
	p := New()
	a := p.AddNode("A")
	b := p.AddNode("B")
	p.AddEdge(a, b, 1)
	r := Match(g, p)
	if !r.OK {
		t.Fatal("expected match")
	}
	if len(r.Sets[a]) != 1 || r.Sets[a][0] != 0 {
		t.Fatalf("A matches = %v", r.Sets[a])
	}
	if len(r.Sets[b]) != 1 || r.Sets[b][0] != 1 {
		t.Fatalf("B matches = %v", r.Sets[b])
	}
	if r.Size() != 2 {
		t.Fatalf("Size = %d", r.Size())
	}
}

func TestMatchBoundSemantics(t *testing.T) {
	// Chain A0 -> X1 -> B2. Edge A->B with bound 1 fails, bound 2 and *
	// succeed.
	g := labeledGraph([]string{"A", "X", "B"}, [][2]graph.Node{{0, 1}, {1, 2}})
	for _, tc := range []struct {
		bound int
		want  bool
	}{{1, false}, {2, true}, {3, true}, {Unbounded, true}} {
		p := New()
		a := p.AddNode("A")
		b := p.AddNode("B")
		p.AddEdge(a, b, tc.bound)
		if got := Match(g, p).OK; got != tc.want {
			t.Errorf("bound %d: match = %v, want %v", tc.bound, got, tc.want)
		}
	}
}

func TestMatchNonemptyPathRequired(t *testing.T) {
	// Pattern edge A -> A needs a nonempty path between (possibly equal)
	// A nodes: a single A without edges must not match.
	g := labeledGraph([]string{"A"}, nil)
	p := New()
	a := p.AddNode("A")
	p.AddEdge(a, a, Unbounded)
	if Match(g, p).OK {
		t.Fatal("matched without a path")
	}
	g2 := labeledGraph([]string{"A"}, [][2]graph.Node{{0, 0}})
	if !Match(g2, p).OK {
		t.Fatal("self-loop should satisfy A->A")
	}
}

func TestMatchMissingLabel(t *testing.T) {
	g := labeledGraph([]string{"A"}, nil)
	p := New()
	p.AddNode("Z")
	if Match(g, p).OK {
		t.Fatal("matched a label absent from the graph")
	}
	// A label interned after the snapshot was frozen lies past its label
	// index's range: no candidates either.
	c := g.Freeze()
	g.Labels().Intern("Z")
	if MatchCSR(c, p).OK {
		t.Fatal("matched a label no node of the snapshot carries")
	}
}

func TestMatchCascadingRefinement(t *testing.T) {
	// B3 loses its match because its only C successor has no D successor;
	// then A0 loses B3... pattern A-1->B-1->C-1->D.
	g := labeledGraph(
		[]string{"A", "B", "C", "D", "A", "B", "C"},
		[][2]graph.Node{
			{0, 1}, {1, 2}, {2, 3}, // good chain
			{4, 5}, {5, 6}, // bad chain: C6 has no D child
		})
	p := New()
	a := p.AddNode("A")
	b := p.AddNode("B")
	c := p.AddNode("C")
	d := p.AddNode("D")
	p.AddEdge(a, b, 1)
	p.AddEdge(b, c, 1)
	p.AddEdge(c, d, 1)
	r := Match(g, p)
	if !r.OK {
		t.Fatal("expected match")
	}
	if slices.Contains(r.Sets[a], 4) || slices.Contains(r.Sets[b], 5) || slices.Contains(r.Sets[c], 6) {
		t.Fatalf("bad chain leaked into match: %v", r.Sets)
	}
	if !slices.Contains(r.Sets[a], 0) || !slices.Contains(r.Sets[b], 1) || !slices.Contains(r.Sets[c], 2) || !slices.Contains(r.Sets[d], 3) {
		t.Fatalf("good chain missing: %v", r.Sets)
	}
}

func TestMatchAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(12)
		g := randomLabeled(rng, n, rng.Intn(3*n), 2)
		p := randomPattern(rng, 1+rng.Intn(4), rng.Intn(5), 2, 3)
		got := Match(g, p)
		want := bruteMatch(g, p)
		if !sameResult(got, want) {
			t.Fatalf("trial %d: Match disagrees with brute force\nedges %v\ngot %+v\nwant %+v",
				trial, g.EdgeList(), got, want)
		}
	}
}

// TestPreservationTheorem is the core correctness test of Section 4: for
// any pattern Qp, Qp(G) = P(Qp(Gr)) where Gr is the bisimulation quotient
// and P = Expand. The same Match code runs on both graphs, of up to 400
// nodes.
func TestPreservationTheorem(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		g := randomLabeled(rng, n, rng.Intn(4*n), 3)
		c := bisim.Compress(g)
		for trial := 0; trial < 5; trial++ {
			p := randomPattern(rng, 1+rng.Intn(5), rng.Intn(7), 3, 3)
			onG := Match(g, p)
			onGr := Match(c.Gr, p)
			if onG.OK != onGr.OK {
				return false
			}
			if !sameResult(onG, Expand(onGr, c)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMatchSelfLoopTwoBounds pins the first drop-rule trap (package doc):
// pattern node a with edges of bounds 2 and 3 to itself, over the chain
// 0→1→2→3→4 with a self-loop at 0. When a node's level-1 count reaches 0
// it leaves sim(a) through the bound-2 edge, and that removal records its
// level-2 drop; deciding the drop after the removal records it twice, and
// the double decrement empties sim(a).
func TestMatchSelfLoopTwoBounds(t *testing.T) {
	g := labeledGraph([]string{"A", "A", "A", "A", "A"},
		[][2]graph.Node{{0, 0}, {0, 1}, {1, 2}, {2, 3}, {3, 4}})
	p := New()
	a := p.AddNode("A")
	p.AddEdge(a, a, 2)
	p.AddEdge(a, a, 3)
	want := &Result{OK: true, Sets: [][]graph.Node{{0}}}
	if got := Match(g, p); !sameResult(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// TestMatchChecksEveryLevel pins the second trap: removing a node from a
// target checks each of its levels on its own. Pattern x -3-> y -3-> x,
// y -1-> y; the chain 0→1→2 runs into the cycle 2⇄3 whose 3 is a B, and
// 4⇄5 is the one A cycle. The chain leaves sim(y) node by node, each while
// its level-0 count towards y still holds a queued decrement but its
// level-1 count has reached 0; stopping at the first positive level loses
// that level-2 drop and keeps 0 in sim(x).
func TestMatchChecksEveryLevel(t *testing.T) {
	g := labeledGraph([]string{"A", "A", "A", "B", "A", "A"},
		[][2]graph.Node{{0, 1}, {1, 2}, {2, 3}, {3, 2}, {4, 5}, {5, 4}})
	p := New()
	x := p.AddNode("A")
	y := p.AddNode("A")
	p.AddNode("B")
	p.AddEdge(x, y, 3)
	p.AddEdge(y, x, 3)
	p.AddEdge(y, y, 1)
	want := &Result{OK: true, Sets: [][]graph.Node{{4, 5}, {4, 5}, {3}}}
	if got := Match(g, p); !sameResult(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// FuzzMatch decodes a labeled graph and a pattern from bytes and holds
// MatchCSR to bruteMatch. Graph bytes: a node count, one label byte per
// node, then edge pairs. Pattern bytes: a node count, one label byte per
// node, then (from, to, bound) triples where bound byte b%12 = 0 means *.
func FuzzMatch(f *testing.F) {
	// The two regression cases above, then a bound above maxLevel and a *.
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4}, []byte{0, 0, 0, 0, 2, 0, 0, 3})
	f.Add([]byte{5, 0, 0, 0, 1, 0, 0, 0, 1, 1, 2, 2, 3, 3, 2, 4, 5, 5, 4}, []byte{2, 0, 0, 1, 0, 1, 3, 1, 0, 3, 1, 1, 1})
	f.Add([]byte{2, 0, 1, 0, 0, 1, 1, 2}, []byte{1, 0, 0, 0, 1, 11, 1, 0, 0})
	f.Fuzz(func(t *testing.T, gb, pb []byte) {
		if len(gb) == 0 || len(pb) == 0 {
			return
		}
		n := 1 + int(gb[0])%16
		if len(gb) < 1+n {
			return
		}
		labels := make([]string, n)
		for v := range labels {
			labels[v] = string(rune('A' + gb[1+v]%3))
		}
		var edges [][2]graph.Node
		for i := 1 + n; i+1 < len(gb); i += 2 {
			edges = append(edges, [2]graph.Node{graph.Node(int(gb[i]) % n), graph.Node(int(gb[i+1]) % n)})
		}
		g := labeledGraph(labels, edges)
		np := 1 + int(pb[0])%4
		if len(pb) < 1+np {
			return
		}
		p := New()
		for u := 0; u < np; u++ {
			p.AddNode(string(rune('A' + pb[1+u]%3)))
		}
		for i := 1 + np; i+2 < len(pb) && p.NumEdges() < 8; i += 3 {
			bound := int(pb[i+2]) % 12
			if bound == 0 {
				bound = Unbounded
			}
			p.AddEdge(int32(int(pb[i])%np), int32(int(pb[i+1])%np), bound)
		}
		if got, want := MatchCSR(g.Freeze(), p), bruteMatch(g, p); !sameResult(got, want) {
			t.Fatalf("edges %v pattern %+v\ngot %+v\nwant %+v", g.EdgeList(), p.adj, got, want)
		}
	})
}

// TestIncMatcherDeletionHistories runs deletion-only histories over 1 000
// seeds, bounds up to 4 and * mixed in, and holds the maintained match to
// the round-based fixpoint after every batch.
func TestIncMatcherDeletionHistories(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := randomLabeled(rng, n, 3*n, 1+rng.Intn(3))
		p := randomPattern(rng, 1+rng.Intn(4), 1+rng.Intn(6), 2, 4)
		m := NewIncMatcher(g.Clone(), p)
		for batch := 0; batch < 6; batch++ {
			edges := g.EdgeList()
			if len(edges) == 0 {
				break
			}
			var ups []graph.Update
			for i := 0; i < 1+rng.Intn(4); i++ {
				e := edges[rng.Intn(len(edges))]
				ups = append(ups, graph.Deletion(e[0], e[1]))
			}
			g.Apply(ups)
			m.Apply(ups)
			if got, want := m.Result(), roundsMatch(g.Freeze(), p); !sameResult(got, want) {
				t.Fatalf("seed %d batch %d: maintained %+v, recomputed %+v", seed, batch, got, want)
			}
		}
	}
}

func TestPlainSimulationSpecialCase(t *testing.T) {
	// With all bounds 1 this is graph simulation [12]; check a known
	// asymmetry: pattern A->B matches A1 with direct B child, not A2 whose
	// B is two hops away.
	g := labeledGraph([]string{"A", "B", "A", "X", "B"},
		[][2]graph.Node{{0, 1}, {2, 3}, {3, 4}})
	p := New()
	a := p.AddNode("A")
	b := p.AddNode("B")
	p.AddEdge(a, b, 1)
	r := Match(g, p)
	if !r.OK || !slices.Contains(r.Sets[a], 0) || slices.Contains(r.Sets[a], 2) {
		t.Fatalf("simulation semantics wrong: %v", r.Sets)
	}
}

func TestAddEdgePanicsOnBadBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bound 0")
		}
	}()
	p := New()
	a := p.AddNode("A")
	p.AddEdge(a, a, 0)
}

func TestIncMatcherDeletionsMatchRecompute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := randomLabeled(rng, n, 2*n, 2)
		p := randomPattern(rng, 1+rng.Intn(4), 1+rng.Intn(4), 2, 3)
		m := NewIncMatcher(g.Clone(), p)
		// Three batches of random deletions.
		for batch := 0; batch < 3; batch++ {
			edges := g.EdgeList()
			if len(edges) == 0 {
				break
			}
			var ups []graph.Update
			for i := 0; i < 1+rng.Intn(3) && len(edges) > 0; i++ {
				e := edges[rng.Intn(len(edges))]
				ups = append(ups, graph.Deletion(e[0], e[1]))
			}
			g.Apply(ups)
			m.Apply(ups)
			if !sameResult(m.Result(), Match(g, p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestIncMatcherMixedBatches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		g := randomLabeled(rng, n, n, 2)
		p := randomPattern(rng, 1+rng.Intn(3), 1+rng.Intn(3), 2, 2)
		m := NewIncMatcher(g.Clone(), p)
		for batch := 0; batch < 4; batch++ {
			var ups []graph.Update
			for i := 0; i < 1+rng.Intn(4); i++ {
				u, v := graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n))
				if rng.Intn(2) == 0 {
					ups = append(ups, graph.Insertion(u, v))
				} else {
					ups = append(ups, graph.Deletion(u, v))
				}
			}
			g.Apply(ups)
			m.Apply(ups)
			if !sameResult(m.Result(), Match(g, p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExpandNoMatch(t *testing.T) {
	g := labeledGraph([]string{"A"}, nil)
	c := bisim.Compress(g)
	r := Expand(&Result{OK: false}, c)
	if r.OK || r.Size() != 0 {
		t.Fatal("Expand of no-match should be no-match")
	}
}

// expandSorted is Expand by concatenation and sort: the reference the
// bitmap sweep must equal.
func expandSorted(r *Result, c *bisim.Compressed) *Result {
	if !r.OK {
		return &Result{OK: false}
	}
	out := &Result{OK: true, Sets: make([][]graph.Node, len(r.Sets))}
	for u, classes := range r.Sets {
		set := []graph.Node{}
		for _, cls := range classes {
			set = append(set, c.Members[cls]...)
		}
		slices.Sort(set)
		out.Sets[u] = set
	}
	return out
}

// TestExpandMatchesSort holds Expand to expandSorted over random results on
// random quotients: each set a random subset of the classes in random
// order, empty sets included, and some results OK=false.
func TestExpandMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := range 300 {
		n := 1 + rng.Intn(300)
		c := bisim.Compress(randomLabeled(rng, n, rng.Intn(3*n), 1+rng.Intn(3)))
		r := &Result{OK: rng.Intn(8) > 0, Sets: make([][]graph.Node, rng.Intn(5))}
		for u := range r.Sets {
			for _, cls := range rng.Perm(c.NumClasses()) {
				if rng.Intn(3) == 0 {
					r.Sets[u] = append(r.Sets[u], graph.Node(cls))
				}
			}
		}
		got, want := Expand(r, c), expandSorted(r, c)
		if !sameResult(got, want) {
			t.Fatalf("trial %d: Expand %+v, sorted concatenation %+v", trial, got, want)
		}
		if got.OK && len(got.Sets) != len(r.Sets) {
			t.Fatalf("trial %d: %d sets expanded from %d", trial, len(got.Sets), len(r.Sets))
		}
	}
}

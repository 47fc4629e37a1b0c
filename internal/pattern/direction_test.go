package pattern

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// skewedGraph draws n nodes whose labels favour A (half of them, then B, C
// and D in turn), m random edges and a few self-loops, so a pattern's
// sources on a rare label have fewer candidates than the rows a push from
// a target on A scans: the shape on which build pulls.
func skewedGraph(rng *rand.Rand, n, m int) *graph.Graph {
	g := graph.New(nil)
	for range n {
		l := 'A'
		if rng.Intn(2) == 0 {
			l += rune(1 + rng.Intn(3))
		}
		g.AddNodeNamed(string(l))
	}
	for range m {
		g.AddEdge(graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n)))
	}
	for i := rng.Intn(3); i > 0; i-- {
		v := graph.Node(rng.Intn(n))
		g.AddEdge(v, v)
	}
	return g
}

// label draws a pattern label, A half the time.
func label(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return "A"
	}
	return string(rune('A' + rng.Intn(4)))
}

// directionShapes are the pattern shapes TestTopLevelBothWays draws, each
// with its labels random: the cases a top level's two directions could
// disagree on.
var directionShapes = []struct {
	name string
	draw func(rng *rand.Rand) *Pattern
}{
	// TestMatchSelfLoopTwoBounds' shape: a node with bounds 2 and 3 to
	// itself, so its own removals drive its top level.
	{"self-loop two bounds", func(rng *rand.Rand) *Pattern {
		p := New()
		a := p.AddNode(label(rng))
		p.AddEdge(a, a, 2)
		p.AddEdge(a, a, 3)
		return p
	}},
	// Two sources on one label, so their candidate sets are the same, both
	// reading the target's top level.
	{"two sources overlapping", func(rng *rand.Rand) *Pattern {
		p := New()
		l := label(rng)
		u, w := p.AddNode(l), p.AddNode(l)
		t := p.AddNode(label(rng))
		k := 1 + rng.Intn(3)
		p.AddEdge(u, t, k)
		p.AddEdge(w, t, k)
		if rng.Intn(2) == 0 {
			p.AddEdge(t, u, 1+rng.Intn(2))
		}
		return p
	}},
	// A bound-1 and a bound-2 edge into one target: level 0 is read by the
	// first, the top by the second.
	{"bounds 1 and 2", func(rng *rand.Rand) *Pattern {
		p := New()
		u, w, t := p.AddNode(label(rng)), p.AddNode(label(rng)), p.AddNode(label(rng))
		p.AddEdge(u, t, 1)
		p.AddEdge(w, t, 2)
		if rng.Intn(2) == 0 {
			p.AddEdge(t, w, 1)
		}
		return p
	}},
	// K_t = 8, the most levels one target holds, with a lower bound beside.
	{"bound 8", func(rng *rand.Rand) *Pattern {
		p := New()
		u, t := p.AddNode(label(rng)), p.AddNode(label(rng))
		p.AddEdge(u, t, maxLevel)
		p.AddEdge(t, u, 1+rng.Intn(maxLevel))
		if rng.Intn(2) == 0 {
			p.AddEdge(t, t, 1+rng.Intn(3))
		}
		return p
	}},
}

// TestTopLevelBothWays builds every bounded target's top counter level
// both ways, pushed from its input and pulled at its candidates, on random
// graphs: the two must agree at every candidate, before refinement and
// after it. The answer of a refinement that pushes every top level, of one
// that pulls every one and of one that picks by set size must each equal
// the round-based fixpoint. Over the cases the set-size rule must both
// push and pull.
func TestTopLevelBothWays(t *testing.T) {
	const cases = 2_000
	built, pulled := 0, 0
	for _, shape := range directionShapes {
		rng := rand.New(rand.NewSource(53))
		for i := range cases {
			n := 2 + rng.Intn(40)
			c := skewedGraph(rng, n, rng.Intn(3*n+1)).Freeze()
			p := shape.draw(rng)
			name := fmt.Sprintf("%s, case %d", shape.name, i)
			checkBuilds(t, name, c, p)
			w := checkRefinements(t, name, c, p)
			built, pulled = built+w.built, pulled+w.pulled
		}
	}
	rng := rand.New(rand.NewSource(59))
	for i := range cases {
		g, p := oracleCase(rng)
		c := g.Freeze()
		name := fmt.Sprintf("oracle case %d", i)
		checkBuilds(t, name, c, p)
		w := checkRefinements(t, name, c, p)
		built, pulled = built+w.built, pulled+w.pulled
	}
	t.Logf("set-size rule pulled %d of %d top levels", pulled, built)
	if pulled == 0 || pulled == built {
		t.Errorf("set-size rule pulled %d of %d top levels, want some of each", pulled, built)
	}
}

// checkBuilds builds every bounded target of p on its label candidates
// twice, pushing and pulling the top level, and holds the two to the same
// lower levels and the same top level at every candidate that reads it.
func checkBuilds(t *testing.T, name string, c *graph.CSR, p *Pattern) {
	t.Helper()
	s, ok := candidates(c, p, make([]bool, p.NumNodes()*c.NumNodes()))
	if !ok {
		return
	}
	pushed := newRefiner(c, p, s, new(scratch), push)
	pulled := newRefiner(c, p, s, new(scratch), pull)
	for tg := range int32(p.NumNodes()) {
		if pushed.lv[tg] == 0 {
			continue
		}
		pushed.build(tg)
		pulled.build(tg)
		compareLevels(t, name, pushed, pulled, tg)
	}
}

// compareLevels holds a's and b's counters of target tg to each other:
// every level below the top at every node, the top at the candidates of
// the edges (u, tg, K_tg).
func compareLevels(t *testing.T, name string, a, b *refiner, tg int32) {
	t.Helper()
	top := a.lv[tg] - 1
	for j := range top {
		x, y := a.level(tg, j), b.level(tg, j)
		for v := range x {
			if x[v] != y[v] {
				t.Fatalf("%s: target %d level %d at %d: %d and %d", name, tg, j, v, x[v], y[v])
			}
		}
	}
	x, y := a.level(tg, top), b.level(tg, top)
	for _, u := range a.up[tg][top] {
		for v, in := range a.s.in[u] {
			if in && x[v] != y[v] {
				t.Fatalf("%s: target %d top level %d at candidate %d of %d: %d and %d", name, tg, top, v, u, x[v], y[v])
			}
		}
	}
}

// checkRefinements refines p's label candidates pushing every top level,
// pulling every one and picking by set size. Each answer must equal the
// round-based fixpoint, and where the pattern matches, the pushed and the
// pulled counters must agree at the final candidates. It returns the work
// of the refinement that picked.
func checkRefinements(t *testing.T, name string, c *graph.CSR, p *Pattern) work {
	t.Helper()
	want := roundsMatch(c, p)
	var done [3]*refiner
	var w work
	for i, dir := range []direction{push, pull, fewerRows} {
		s, ok := candidates(c, p, make([]bool, p.NumNodes()*c.NumNodes()))
		res := &Result{OK: false}
		if ok {
			r := newRefiner(c, p, s, new(scratch), dir)
			if r.run() {
				res, done[i] = s.result(), r
			}
			w = r.work
		}
		if !sameResult(res, want) {
			t.Fatalf("%s: direction %d gives %+v, rounds %+v", name, dir, res, want)
		}
	}
	if done[0] != nil {
		for tg := range int32(p.NumNodes()) {
			if done[0].cnt[tg] != nil {
				compareLevels(t, name, done[0], done[1], tg)
			}
		}
	}
	return w
}

package pattern

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/queries"
)

// roundsMatch is the round-based greatest fixpoint Match ran before the
// counters, kept as a second oracle: each round recomputes a bounded
// reverse BFS per pattern edge and rescans V, until a round changes
// nothing. It shares no refinement code with MatchCSR.
func roundsMatch(c *graph.CSR, p *Pattern) *Result {
	np, n := p.NumNodes(), c.NumNodes()
	sim := make([][]bool, np)
	size := make([]int, np)
	for u := 0; u < np; u++ {
		sim[u] = make([]bool, n)
		if id, ok := c.Labels().Lookup(p.labels[u]); ok {
			for v := 0; v < n; v++ {
				if c.Label(graph.Node(v)) == id {
					sim[u][v] = true
					size[u]++
				}
			}
		}
		if size[u] == 0 {
			return &Result{OK: false}
		}
	}
	for changed := true; changed; {
		changed = false
		for u := int32(0); u < int32(np); u++ {
			for _, e := range p.adj[u] {
				allowed := queries.ReverseWithinCSR(c, sim[e.To], e.Bound)
				for v := 0; v < n; v++ {
					if sim[u][v] && !allowed[v] {
						sim[u][v] = false
						size[u]--
						changed = true
					}
				}
				if size[u] == 0 {
					return &Result{OK: false}
				}
			}
		}
	}
	res := &Result{OK: true, Sets: make([][]graph.Node, np)}
	for u := range sim {
		res.Sets[u] = make([]graph.Node, 0, size[u])
		for v, in := range sim[u] {
			if in {
				res.Sets[u] = append(res.Sets[u], graph.Node(v))
			}
		}
	}
	return res
}

// oracleBound draws a pattern edge bound: mostly counter-served levels,
// sometimes above maxLevel, sometimes *.
func oracleBound(rng *rand.Rand) int {
	switch r := rng.Intn(10); {
	case r < 2:
		return Unbounded
	case r < 3:
		return maxLevel + 1 + rng.Intn(3)
	default:
		return 1 + rng.Intn(4)
	}
}

// oracleCase draws one graph/pattern case: up to 30 nodes, 1–4 labels,
// self-loops, several bounds into one target (edges favour a few targets),
// * mixed in; one case in 50 is a wide pattern of bound-8 edges that runs
// past the counter-level budget.
func oracleCase(rng *rand.Rand) (*graph.Graph, *Pattern) {
	n := 1 + rng.Intn(30)
	labels := 1 + rng.Intn(4)
	g := randomLabeled(rng, n, rng.Intn(3*n+1), labels)
	for i := rng.Intn(3); i > 0; i-- {
		v := graph.Node(rng.Intn(n))
		g.AddEdge(v, v)
	}
	p := New()
	if rng.Intn(50) == 0 {
		np := maxLevels/maxLevel + 1 + rng.Intn(4)
		for i := 0; i < np; i++ {
			p.AddNode(string(rune('A' + rng.Intn(labels))))
		}
		for t := 0; t < np; t++ {
			p.AddEdge(int32(rng.Intn(np)), int32(t), maxLevel)
			p.AddEdge(int32(rng.Intn(np)), int32(t), 1+rng.Intn(maxLevel))
		}
		return g, p
	}
	np := 1 + rng.Intn(5)
	for i := 0; i < np; i++ {
		p.AddNode(string(rune('A' + rng.Intn(labels))))
	}
	hot := 1 + rng.Intn(np)
	for i := rng.Intn(8); i > 0; i-- {
		p.AddEdge(int32(rng.Intn(np)), int32(rng.Intn(hot)), oracleBound(rng))
	}
	return g, p
}

// TestMatchAgainstRounds holds the counters to the round-based fixpoint
// over 100 000 seeded cases.
func TestMatchAgainstRounds(t *testing.T) {
	cases := 100_000
	if testing.Short() {
		cases = 10_000
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < cases; i++ {
		g, p := oracleCase(rng)
		c := g.Freeze()
		if got, want := MatchCSR(c, p), roundsMatch(c, p); !sameResult(got, want) {
			t.Fatalf("case %d: counters disagree with rounds\nlabels %v edges %v\npattern %+v %+v\ngot %+v\nwant %+v",
				i, nodeLabels(g), g.EdgeList(), p.labels, p.adj, got, want)
		}
	}
}

// TestMatchConcurrent runs matches from several goroutines at once: they
// share the pooled counter scratch, and each answer must still equal the
// round-based fixpoint. Run it under -race.
func TestMatchConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomLabeled(rng, 300, 1200, 3)
	c := g.Freeze()
	pats := make([]*Pattern, 8)
	for i := range pats {
		pats[i] = randomPattern(rng, 3, 4, 3, 4)
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				p := pats[(w+i)%len(pats)]
				if !sameResult(MatchCSR(c, p), roundsMatch(c, p)) {
					t.Errorf("worker %d: pattern %d disagrees with rounds", w, (w+i)%len(pats))
					return
				}
			}
		}()
	}
	wg.Wait()
}

func nodeLabels(g *graph.Graph) []string {
	out := make([]string, g.NumNodes())
	for v := range out {
		out[v] = g.LabelName(graph.Node(v))
	}
	return out
}

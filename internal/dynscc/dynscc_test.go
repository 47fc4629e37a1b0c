package dynscc

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/reach"
)

func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	g := graph.New(nil)
	for i := 0; i < n; i++ {
		g.AddNodeNamed("X")
	}
	for i := 0; i < m; i++ {
		g.AddEdge(graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n)))
	}
	return g
}

// checkAgainstTarjan fails unless c is exactly the condensation of its
// graph: the same components as a fresh Tarjan pass, with the same
// members, cyclic flags, condensation edges and supports, mirrored in
// lists, and a valid children-first order.
func checkAgainstTarjan(t *testing.T, what string, c *Cond) {
	t.Helper()
	g := c.Graph()
	s := graph.Tarjan(g)
	toRef := make(map[int32]int32)
	live := 0
	for id := int32(0); id < int32(c.NumSlots()); id++ {
		if !c.Live(id) {
			continue
		}
		live++
		ms := c.Members(id)
		if len(ms) == 0 {
			t.Fatalf("%s: live component %d has no members", what, id)
		}
		ref := s.Comp[ms[0]]
		toRef[id] = ref
		if len(ms) != len(s.Members[ref]) {
			t.Fatalf("%s: component %d has %d members, Tarjan's has %d", what, id, len(ms), len(s.Members[ref]))
		}
		for _, v := range ms {
			if c.CompOf(v) != id || s.Comp[v] != ref {
				t.Fatalf("%s: node %d misplaced in component %d", what, v, id)
			}
		}
		if c.Cyclic(id) != s.Cyclic[ref] {
			t.Fatalf("%s: component %d cyclic = %v, Tarjan says %v", what, id, c.Cyclic(id), s.Cyclic[ref])
		}
	}
	if live != s.NumComponents() {
		t.Fatalf("%s: %d live components, Tarjan finds %d", what, live, s.NumComponents())
	}
	for id, ref := range toRef {
		out := c.Out(id)
		if !slices.IsSorted(out) || len(out) != len(s.Out[ref]) {
			t.Fatalf("%s: component %d out list %v, Tarjan has %d edges", what, id, out, len(s.Out[ref]))
		}
		for i, b := range out {
			if !c.Live(b) {
				t.Fatalf("%s: edge (%d,%d) points at a dead component", what, id, b)
			}
			if got, want := int(c.comps[id].sup[i]), s.Support(ref, toRef[b]); got != want || want == 0 {
				t.Fatalf("%s: edge (%d,%d) support %d, Tarjan counts %d", what, id, b, got, want)
			}
			if _, ok := slices.BinarySearch(c.comps[b].in, id); !ok {
				t.Fatalf("%s: edge (%d,%d) missing from the in list", what, id, b)
			}
		}
		if in := c.comps[id].in; !slices.IsSorted(in) || len(in) != len(s.In[ref]) {
			t.Fatalf("%s: component %d in list %v, Tarjan has %d edges", what, id, in, len(s.In[ref]))
		}
	}
}

// classes returns each node's reachability class in g.
func classes(g *graph.Graph) []graph.Node {
	return slices.Clone(reach.Compress(g).ClassMap())
}

// checkTouched verifies the change log's contract against ground truth:
// two nodes that were reachability-equivalent before the batch and whose
// components are not named by Touched are still equivalent after it, and
// every node whose component id changed is in Moved.
func checkTouched(t *testing.T, what string, c *Cond, d *Delta, before, compBefore []int32) {
	t.Helper()
	after := classes(c.Graph())
	touched := make(map[int32]bool)
	for _, v := range d.Touched {
		touched[c.CompOf(v)] = true
	}
	rep := make(map[graph.Node]graph.Node) // old class -> an untouched member
	for v := range before {
		if touched[c.CompOf(graph.Node(v))] {
			continue
		}
		if r, ok := rep[before[v]]; !ok {
			rep[before[v]] = graph.Node(v)
		} else if after[r] != after[v] {
			t.Fatalf("%s: nodes %d and %d were equivalent, are untouched, and separated\nedges %v",
				what, r, v, c.Graph().EdgeList())
		}
	}
	moved := make(map[graph.Node]bool)
	for _, v := range d.Moved {
		moved[v] = true
	}
	for v, was := range compBefore {
		if c.CompOf(graph.Node(v)) != was && !moved[graph.Node(v)] {
			t.Fatalf("%s: node %d changed component %d -> %d without being logged", what, v, was, c.CompOf(graph.Node(v)))
		}
	}
}

// samePartition reports whether two class maps group the nodes alike.
func samePartition(a, b []graph.Node) bool {
	ab, ba := make(map[graph.Node]graph.Node), make(map[graph.Node]graph.Node)
	for v := range a {
		if x, ok := ab[a[v]]; ok && x != b[v] {
			return false
		}
		if x, ok := ba[b[v]]; ok && x != a[v] {
			return false
		}
		ab[a[v]], ba[b[v]] = b[v], a[v]
	}
	return true
}

func compSnapshot(c *Cond) []int32 {
	out := make([]int32, c.Graph().NumNodes())
	for v := range out {
		out[v] = c.CompOf(graph.Node(v))
	}
	return out
}

func TestCondensationMatchesTarjan(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		c := New(randomGraph(rng, n, rng.Intn(3*n)))
		checkAgainstTarjan(t, "initial", c)
		for round := 0; round < 10; round++ {
			share := []float64{0, 0.5, 1}[rng.Intn(3)]
			batch := gen.RandomBatch(rng, c.Graph(), 1+rng.Intn(8), share)
			before, compBefore := classes(c.Graph()), compSnapshot(c)
			eff := c.Graph().Reduce(batch)
			d := c.Apply(eff)
			checkAgainstTarjan(t, "after batch", c)
			checkTouched(t, "after batch", c, d, before, compBefore)
			if !d.ClosureChanged() && !samePartition(before, classes(c.Graph())) {
				t.Fatalf("seed %d: closure reported unchanged but classes moved", seed)
			}
		}
	}
}

// TestInsertionsSplitClassesOnlyAtEndpoints is the lemma behind incRCM's
// insertion handling, checked directly on random graphs: under an
// insert-only batch, two equivalent nodes whose components contain no
// endpoint of an inserted edge stay equivalent.
func TestInsertionsSplitClassesOnlyAtEndpoints(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(50)
		g := randomGraph(rng, n, rng.Intn(2*n))
		before := classes(g)
		comp := graph.Tarjan(g).Comp
		batch := gen.RandomBatch(rng, g, 1+rng.Intn(6), 1)
		endpoint := make(map[int32]bool)
		for _, up := range batch {
			endpoint[comp[up.From]] = true
			endpoint[comp[up.To]] = true
		}
		g.Apply(batch)
		after := classes(g)
		rep := make(map[graph.Node]graph.Node)
		for v := range before {
			if endpoint[comp[v]] {
				continue
			}
			if r, ok := rep[before[v]]; !ok {
				rep[before[v]] = graph.Node(v)
			} else if after[r] != after[v] {
				t.Fatalf("seed %d: non-endpoint classmates %d and %d separated by insertions %v\nedges %v",
					seed, r, v, batch, g.EdgeList())
			}
		}
	}
}

// TestSplitPaths drives both paths of split: a node peeling off a large
// SCC whose rest stays connected (the probe-verified fast path), and a
// ring that one deletion shatters into singletons (the Tarjan path).
func TestSplitPaths(t *testing.T) {
	const n = 60
	g := randomGraph(rand.New(rand.NewSource(1)), n+1, 0)
	for i := 0; i < n; i++ { // a ring with chords: strongly connected without node n
		g.AddEdge(graph.Node(i), graph.Node((i+1)%n))
		g.AddEdge(graph.Node(i), graph.Node((i+7)%n))
	}
	g.AddEdge(3, n)
	g.AddEdge(n, 9)
	c := New(g)
	if c.CompOf(n) != c.CompOf(0) {
		t.Fatal("setup: node n should start inside the ring's SCC")
	}
	d := c.Apply([]graph.Update{graph.Deletion(3, n)})
	if d.Splits != 1 || len(d.Moved) != 1 || d.Moved[0] != n {
		t.Fatalf("peel: %+v", d)
	}
	checkAgainstTarjan(t, "peel", c)

	ring := randomGraph(rand.New(rand.NewSource(1)), n, 0)
	for i := 0; i < n; i++ {
		ring.AddEdge(graph.Node(i), graph.Node((i+1)%n))
	}
	c = New(ring)
	d = c.Apply([]graph.Update{graph.Deletion(10, 11)})
	if d.Splits != 1 || len(d.Moved) != n-1 {
		t.Fatalf("shatter: splits %d, moved %d", d.Splits, len(d.Moved))
	}
	checkAgainstTarjan(t, "shatter", c)
}

// TestLossAreaStaysLocal pins the work bound the loss-area rule buys: a
// fan losing its only edge into a giant SCC changes the ancestor set of
// everything downstream of the giant, uniformly — only the fan's side is
// logged, not the giant's cones.
func TestLossAreaStaysLocal(t *testing.T) {
	const core, fans = 50, 400
	g := randomGraph(rand.New(rand.NewSource(2)), core+2*fans, 0)
	for i := 0; i < core; i++ {
		g.AddEdge(graph.Node(i), graph.Node((i+1)%core))
	}
	for f := 0; f < fans; f++ {
		g.AddEdge(graph.Node(core+f), graph.Node(f%core))      // fan-in
		g.AddEdge(graph.Node(f%core), graph.Node(core+fans+f)) // fan-out
	}
	c := New(g)
	d := c.Apply([]graph.Update{graph.Deletion(core+5, 5%core)})
	if d.Redundant != 0 || !d.ClosureChanged() {
		t.Fatalf("deletion should change the closure: %+v", d)
	}
	if len(d.Touched) > 4 {
		t.Fatalf("a fan's edge into the core touched %d components", len(d.Touched))
	}
	checkAgainstTarjan(t, "fan deletion", c)
}

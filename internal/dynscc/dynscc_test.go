package dynscc

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"
	"unsafe"

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
		ms := c.members(nil, id)
		if len(ms) == 0 {
			t.Fatalf("%s: live component %d has no members", what, id)
		}
		ref := s.Comp[ms[0]]
		toRef[id] = ref
		if len(ms) != len(s.Members(ref)) {
			t.Fatalf("%s: component %d has %d members, Tarjan's has %d", what, id, len(ms), len(s.Members(ref)))
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
		if !slices.IsSorted(out) || len(out) != len(s.Out(ref)) {
			t.Fatalf("%s: component %d out list %v, Tarjan has %d edges", what, id, out, len(s.Out(ref)))
		}
		for i, b := range out {
			if !c.Live(b) {
				t.Fatalf("%s: edge (%d,%d) points at a dead component", what, id, b)
			}
			want := 0
			if j, ok := slices.BinarySearch(s.Out(ref), toRef[b]); ok {
				want = int(s.Support(ref)[j])
			}
			if got := int(c.sup(id)[i]); got != want || want == 0 {
				t.Fatalf("%s: edge (%d,%d) support %d, Tarjan counts %d", what, id, b, got, want)
			}
			if _, ok := slices.BinarySearch(c.row(b, ins), id); !ok {
				t.Fatalf("%s: edge (%d,%d) missing from the in list", what, id, b)
			}
		}
		if in := c.row(id, ins); !slices.IsSorted(in) || len(in) != len(s.In(ref)) {
			t.Fatalf("%s: component %d in list %v, Tarjan has %d edges", what, id, in, len(s.In(ref)))
		}
	}
	checkStorage(t, what, c)
}

// checkStorage fails unless c's tables are consistent with themselves
// (package doc, "Storage"): every live component's member list closes on
// itself after exactly its count, the members of all of them cover each
// node once, the regions of each arena's rows hold them and lie below its
// tip without overlapping, and its dead count is what they leave uncovered.
func checkStorage(t *testing.T, what string, c *Cond) {
	t.Helper()
	seen := make([]bool, c.Graph().NumNodes())
	for id := int32(0); id < int32(c.NumSlots()); id++ {
		if !c.Live(id) {
			if r := c.comps[id]; r.size != 0 || r.sp != [2]span{} || r.lg != [2]uint8{} {
				t.Fatalf("%s: dead slot %d keeps %d members and rows %v", what, id, r.size, r.sp)
			}
			continue
		}
		for _, v := range c.members(nil, id) {
			if seen[v] {
				t.Fatalf("%s: node %d listed twice", what, v)
			}
			seen[v] = true
		}
		if last := c.comps[id].last; c.next[last] != c.first(id) || c.members(nil, id)[c.comps[id].size-1] != last {
			t.Fatalf("%s: component %d's member list does not close at its last member", what, id)
		}
		for _, v := range c.members(nil, id) {
			if c.prev[c.next[v]] != v {
				t.Fatalf("%s: component %d's member list links %d forward to %d, back to %d", what, id, v, c.next[v], c.prev[c.next[v]])
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("%s: node %d is in no member list", what, v)
		}
	}
	for side := range c.ar {
		a := c.ar[side]
		if side == outs && (len(a.sup) != len(a.ent) || cap(a.sup) < cap(a.ent)) {
			t.Fatalf("%s: supports %d/%d beside %d/%d out entries", what, len(a.sup), cap(a.sup), len(a.ent), cap(a.ent))
		}
		owner := make([]int32, len(a.ent))
		live := 0
		for id := range c.comps {
			r, region := c.comps[id].sp[side], c.comps[id].region(side)
			if r.n < 0 || int(r.n) > region || region > 0 && (r.at < 0 || int(r.at)+region > len(a.ent)) {
				t.Fatalf("%s: side %d row %v of %d in a region of %d passes the tip %d", what, side, r, id, region, len(a.ent))
			}
			for i := int(r.at); i < int(r.at)+region; i++ {
				if owner[i] != 0 {
					t.Fatalf("%s: side %d entry %d in the regions of %d and %d", what, side, i, owner[i]-1, id)
				}
				owner[i] = int32(id) + 1
			}
			live += region
		}
		if a.dead != len(a.ent)-live {
			t.Fatalf("%s: side %d counts %d dead entries, its regions leave %d", what, side, a.dead, len(a.ent)-live)
		}
	}
}

// TestRecordFitsHalfALine holds a component slot's record to half a cache
// line: the loss-area sweeps read one per component they mark.
func TestRecordFitsHalfALine(t *testing.T) {
	if size := unsafe.Sizeof(comp{}); size > 32 {
		t.Fatalf("a component record takes %d bytes, want at most 32", size)
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

// coreWithTails returns a graph of n ≥ 8 nodes shaped like the benchmark's
// web graphs in miniature: a strongly connected core (a ring with chords)
// holding about half the nodes, and the rest on tails that leave the core
// and return to it. Tail nodes link back to their predecessor now and then,
// so a part that breaks off can have several nodes, and a few tails cross.
// Deleting a tail edge peels parts on u's side, v's side or both.
func coreWithTails(rng *rand.Rand, n int) *graph.Graph {
	g := randomGraph(rng, n, 0)
	core := n/2 + rng.Intn(n/4)
	for i := 0; i < core; i++ {
		g.AddEdge(graph.Node(i), graph.Node((i+1)%core))
		if rng.Intn(3) == 0 {
			g.AddEdge(graph.Node(i), graph.Node(rng.Intn(core)))
		}
	}
	for x := core; x < n; {
		prev := graph.Node(rng.Intn(core))
		end := min(n, x+1+rng.Intn(6))
		for ; x < end; x++ {
			g.AddEdge(prev, graph.Node(x))
			if rng.Intn(3) == 0 {
				g.AddEdge(graph.Node(x), prev)
			}
			if x > core && rng.Intn(8) == 0 {
				g.AddEdge(graph.Node(x), graph.Node(core+rng.Intn(x-core)))
			}
			prev = graph.Node(x)
		}
		g.AddEdge(prev, graph.Node(rng.Intn(core)))
	}
	return g
}

// history runs one of TestCondensationMatchesTarjan's 800 random histories:
// a graph from seed — random below 400, a core with tails from there — its
// condensation, and ten random batches, each handed to apply in turn. It
// returns the condensation.
func history(seed int64, apply func(c *Cond, batch []graph.Update, round int)) *Cond {
	rng := rand.New(rand.NewSource(seed % 400))
	var g *graph.Graph
	if seed < 400 {
		n := 2 + rng.Intn(40)
		g = randomGraph(rng, n, rng.Intn(3*n))
	} else {
		g = coreWithTails(rng, 8+rng.Intn(50))
	}
	c := New(g)
	for round := 0; round < 10; round++ {
		share := []float64{0, 0.5, 1}[rng.Intn(3)]
		apply(c, gen.RandomBatch(rng, c.Graph(), 1+rng.Intn(8), share), round)
	}
	return c
}

// TestCondensationMatchesTarjan checks the maintained condensation and its
// change log after every batch of random histories, on random graphs and
// on cores with tails, and that every way split can go was taken.
func TestCondensationMatchesTarjan(t *testing.T) {
	var work workCounts
	resplits := 0
	for seed := int64(0); seed < 800; seed++ {
		c := history(seed, func(c *Cond, batch []graph.Update, round int) {
			if round == 0 {
				checkAgainstTarjan(t, "initial", c)
			}
			before, compBefore := classes(c.Graph()), compSnapshot(c)
			eff := c.Graph().Reduce(batch)
			d := c.Apply(eff)
			what := fmt.Sprintf("seed %d, batch %d", seed, round)
			checkAgainstTarjan(t, what, c)
			checkTouched(t, what, c, d, before, compBefore)
			if !d.ClosureChanged() && !samePartition(before, classes(c.Graph())) {
				t.Fatalf("seed %d: closure reported unchanged but classes moved", seed)
			}
			resplits += d.Resplits
		})
		work.sOnly += c.work.sOnly
		work.tOnly += c.work.tOnly
		work.restarts += c.work.restarts
	}
	t.Logf("peels: %d from S only, %d from T only, %d anchor restarts; %d whole-component passes",
		work.sOnly, work.tOnly, work.restarts, resplits)
	if work.sOnly == 0 || work.tOnly == 0 || work.restarts == 0 || resplits == 0 {
		t.Fatal("some way of splitting a component was never taken")
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
// ring that one deletion shatters into singletons (the whole-component
// Tarjan pass, once the peeled nodes pass half the ring).
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
	if d.Splits != 1 || d.Resplits != 0 || len(d.Moved) != 1 || d.Moved[0] != n {
		t.Fatalf("peel: %+v", d)
	}
	checkAgainstTarjan(t, "peel", c)

	ring := randomGraph(rand.New(rand.NewSource(1)), n, 0)
	for i := 0; i < n; i++ {
		ring.AddEdge(graph.Node(i), graph.Node((i+1)%n))
	}
	c = New(ring)
	d = c.Apply([]graph.Update{graph.Deletion(10, 11)})
	if d.Splits != 1 || d.Resplits != 1 || len(d.Moved) != n-1 {
		t.Fatalf("shatter: splits %d, resplits %d, moved %d", d.Splits, d.Resplits, len(d.Moved))
	}
	checkAgainstTarjan(t, "shatter", c)
}

// TestPeelForgetsOldAnchor is a split whose peel changes anchor twice. A
// node verified as reached from the first new anchor is not reached from
// the second: a peel that kept its verification would call the rest
// strongly connected, where in fact more than half of the component leaves
// and the whole-component pass decides. (Found by the history test's
// generator with the verification carried across restarts, then shrunk.)
func TestPeelForgetsOldAnchor(t *testing.T) {
	edges := [][2]graph.Node{
		{0, 1}, {1, 2}, {1, 3}, {2, 4}, {5, 6}, {6, 7}, {7, 8}, {9, 4}, {9, 10}, {4, 11}, {11, 12},
		{12, 13}, {13, 14}, {14, 15}, {16, 17}, {17, 18}, {18, 19}, {19, 20}, {20, 21}, {21, 22},
		{22, 23}, {23, 14}, {24, 16}, {8, 25}, {25, 26}, {26, 24}, {15, 0}, {15, 27}, {27, 5},
		{10, 28}, {28, 3}, {3, 9},
	}
	g := randomGraph(rand.New(rand.NewSource(1)), 29, 0)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	c := New(g)
	c.Apply([]graph.Update{graph.Deletion(11, 12)})
	checkAgainstTarjan(t, "after the deletion", c)
	if c.work.restarts < 2 {
		t.Fatalf("%d anchor restarts, want the case to reach a second anchor", c.work.restarts)
	}
}

// TestSplitStaysLocal pins the work bound of peeling: one deletion inside a
// 5 000-node SCC breaks off four parts on u's side and four on v's — two
// chains of 2-cycles between the core and the deleted edge — and split
// settles it with no whole-component pass, its searches and Tarjan passes
// visiting at most 5 % of the component.
func TestSplitStaysLocal(t *testing.T) {
	const core, chain = 5000, 4
	g := randomGraph(rand.New(rand.NewSource(3)), core+4*chain, 0)
	for i := 0; i < core; i++ {
		g.AddEdge(graph.Node(i), graph.Node((i+1)%core))
		g.AddEdge(graph.Node(i), graph.Node((i+7)%core))
	}
	// core node 0 → a 2-cycle → … → a 2-cycle → u → v → a 2-cycle → … →
	// core node 1, every 2-cycle entered and left at the same node.
	link := func(prev graph.Node, at int) graph.Node {
		x, y := graph.Node(at), graph.Node(at+1)
		g.AddEdge(prev, x)
		g.AddEdge(x, y)
		g.AddEdge(y, x)
		return x
	}
	prev := graph.Node(0)
	for k := 0; k < chain; k++ {
		prev = link(prev, core+2*k)
	}
	u := prev
	prev = link(u, core+2*chain)
	v := prev
	for k := 1; k < chain; k++ {
		prev = link(prev, core+2*chain+2*k)
	}
	g.AddEdge(prev, 1)
	c := New(g)
	if n := int(c.comps[c.CompOf(0)].size); n != g.NumNodes() {
		t.Fatalf("setup: the SCC has %d of %d nodes", n, g.NumNodes())
	}

	c.work = workCounts{}
	d := c.Apply([]graph.Update{graph.Deletion(u, v)})
	checkAgainstTarjan(t, "chains", c)
	if d.Splits != 1 || d.Resplits != 0 {
		t.Fatalf("splits %d, resplits %d; want one split and no whole-component pass", d.Splits, d.Resplits)
	}
	if len(d.Moved) != 4*chain {
		t.Fatalf("%d nodes moved, want the %d chain nodes", len(d.Moved), 4*chain)
	}
	for _, end := range []graph.Node{u, v} {
		if int(c.comps[c.CompOf(end)].size) != 2 {
			t.Fatalf("node %d ended in a part of %d nodes, want its 2-cycle", end, int(c.comps[c.CompOf(end)].size))
		}
	}
	if limit := core / 20; c.work.visits > limit {
		t.Fatalf("split visited %d nodes, want at most %d (5%% of the component)", c.work.visits, limit)
	}
	t.Logf("split visited %d nodes (%+v)", c.work.visits, c.work)
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

// fuzzSeeds is FuzzCondensation's seed corpus.
var fuzzSeeds = []struct {
	seed  int64
	shape uint8
	ups   []byte
}{
	{1, 0, []byte{3, 0, 0, 9, 1, 2, 11, 0, 0, 12, 2, 3}},
	{403, 0, []byte{3, 0, 2, 9, 0, 2, 5, 0, 2, 6, 0, 2, 1, 1, 2, 11, 0, 6}},
	{7, 1, []byte{0, 1, 1, 1, 2, 1, 2, 0, 5, 4, 4, 0}},
	{0, 0, []byte{}},
}

// fuzzHistory builds a small graph from seed — a core with tails, or random
// when shape is odd — and hands apply, in turn, the batches of updates
// decoded from ups. Three bytes make an update: a deletion removes the edge
// out of its first node picked by the second, an insertion adds the edge
// between the two nodes; the third byte's low bit picks which, and its next
// bits say whether the update closes its batch.
func fuzzHistory(seed int64, shape uint8, ups []byte, apply func(c *Cond, batch []graph.Update, round int)) {
	rng := rand.New(rand.NewSource(seed))
	var g *graph.Graph
	if shape%2 == 0 {
		g = coreWithTails(rng, 8+rng.Intn(40))
	} else {
		n := 2 + rng.Intn(30)
		g = randomGraph(rng, n, rng.Intn(3*n))
	}
	n := g.NumNodes()
	c := New(g)
	var batch []graph.Update
	for round := 0; len(ups) >= 3; ups = ups[3:] {
		from := graph.Node(int(ups[0]) % n)
		if ups[2]&1 == 1 {
			batch = append(batch, graph.Insertion(from, graph.Node(int(ups[1])%n)))
		} else if succ := g.Successors(from); len(succ) > 0 {
			batch = append(batch, graph.Deletion(from, succ[int(ups[1])%len(succ)]))
		}
		if ups[2]&6 != 0 && len(ups) >= 6 {
			continue
		}
		apply(c, batch, round)
		batch = batch[:0]
		round++
	}
}

// FuzzCondensation applies the batches fuzzHistory decodes, checking the
// condensation and its change log after each.
func FuzzCondensation(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s.seed, s.shape, s.ups)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, ups []byte) {
		fuzzHistory(seed, shape, ups, func(c *Cond, batch []graph.Update, round int) {
			before, compBefore := classes(c.Graph()), compSnapshot(c)
			d := c.Apply(c.Graph().Reduce(batch))
			what := fmt.Sprintf("round %d", round)
			checkAgainstTarjan(t, what, c)
			checkTouched(t, what, c, d, before, compBefore)
		})
	})
}

// webcore16 is the benchmark's read-mostly graph (benchmark/workloads.go):
// a giant SCC of about 11 200 of its 16 300 nodes.
var webcore16 = gen.Dataset{Name: "webcore16", V: 16300, E: 75000, Labels: 16, Kind: gen.KindWebCore}

// maxResplits is the most whole-component passes TestSplitCostsWhatLeaves
// allows. A split that assumed one part leaves gave up on 167 of them.
const maxResplits = 5

// readInprocWrites returns webcore16 and the read-inproc benchmark's write
// list for seed: 120 batches of 32 mixed updates, drawn as the benchmark
// draws them.
func readInprocWrites(seed int64) (*graph.Graph, [][]graph.Update) {
	g := webcore16.Build(seed)
	mirror := g.Clone()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	batches := make([][]graph.Update, 120)
	for i := range batches {
		batches[i] = gen.RandomBatch(rng, mirror, 32, 0.5)
		mirror.Apply(batches[i])
	}
	return g, batches
}

// TestSplitCostsWhatLeaves applies the read-inproc benchmark's write list
// for seed 1 on webcore16 and logs Cond.Apply's median time and the splits.
// In every split there only 2–9 nodes leave the giant SCC, so peeling
// should settle all of them; it fails above maxResplits whole-component
// passes, the one number here that does not depend on the host. The time
// is wall-clock, so the test sits behind QPGC_BENCH_SMOKE like the other
// regression smokes.
func TestSplitCostsWhatLeaves(t *testing.T) {
	if os.Getenv("QPGC_BENCH_SMOKE") == "" {
		t.Skip("set QPGC_BENCH_SMOKE=1 to run the benchmark regression smoke")
	}
	g, batches := readInprocWrites(1)
	c := New(g)
	ns := make([]float64, len(batches))
	splits, resplits := 0, 0
	for i, b := range batches {
		eff := g.Reduce(b)
		start := time.Now()
		d := c.Apply(eff)
		ns[i] = float64(time.Since(start))
		splits += d.Splits
		resplits += d.Resplits
	}
	slices.Sort(ns)
	t.Logf("Cond.Apply over %d batches: median %.3f ms, p90 %.3f ms; %d splits, %d whole-component passes, %d nodes visited splitting",
		len(ns), ns[len(ns)/2]/1e6, ns[len(ns)*9/10]/1e6, splits, resplits, c.work.visits)
	if resplits > maxResplits {
		t.Errorf("%d of %d splits re-decomposed the whole component, want at most %d", resplits, splits, maxResplits)
	}
}

// maxLossSwept is the most components TestLossAreaWorkBounded lets the
// loss-area sweeps mark per lossArea call, on average. Listing every
// candidate's area in full marked 12 944.
const maxLossSwept = 8000

// TestLossAreaWorkBounded applies the same write list and fails when the
// loss-area sweeps mark more than maxLossSwept components per call on
// average. It is a count, the same on any host; it sits behind
// QPGC_BENCH_SMOKE with TestSplitCostsWhatLeaves.
func TestLossAreaWorkBounded(t *testing.T) {
	if os.Getenv("QPGC_BENCH_SMOKE") == "" {
		t.Skip("set QPGC_BENCH_SMOKE=1 to run the benchmark regression smoke")
	}
	g, batches := readInprocWrites(1)
	c := New(g)
	swept := 0
	for _, b := range batches {
		swept += c.Apply(g.Reduce(b)).LossSwept
	}
	per := float64(swept) / float64(c.work.losses)
	t.Logf("%d lossArea calls marked %d components, %.0f per call", c.work.losses, swept, per)
	if per > maxLossSwept {
		t.Errorf("lossArea marked %.0f components per call, want at most %d", per, maxLossSwept)
	}
}

// applyCheckingLoss applies eff one update at a time. After each
// closure-changing deletion it lists the loss area again with lossAreaSweep
// on the same condensation and fails unless lossArea listed the same
// components in the same order, having marked no more of them. It returns
// the deletions checked.
func applyCheckingLoss(t *testing.T, what string, c *Cond, eff []graph.Update) int {
	t.Helper()
	checked := 0
	for _, up := range eff {
		a, b := c.CompOf(up.From), c.CompOf(up.To)
		d := c.Apply([]graph.Update{up})
		if up.Insert || up.From == up.To || d.Redundant > 0 {
			continue
		}
		// Touched is the deletion's endpoints or one member per part of
		// the split, then the loss area.
		tail, head, host, lead := a, b, int32(-1), 2
		if a == b {
			tail, head, host = c.CompOf(up.From), c.CompOf(up.To), a
			parts := map[int32]bool{a: true}
			for _, x := range d.Moved {
				parts[c.CompOf(x)] = true
			}
			lead = len(parts)
		}
		n, swept := len(d.Touched), d.LossSwept
		c.lossAreaSweep(tail, head, host)
		got, want := d.Touched[lead:n], d.Touched[n:]
		if !slices.Equal(got, want) {
			t.Fatalf("%s: deleting %v lists the loss area %v, the full sweep %v", what, up, got, want)
		}
		if ref := d.LossSwept - swept; swept > ref {
			t.Fatalf("%s: deleting %v marked %d components, the full sweep %d", what, up, swept, ref)
		}
		d.Touched, d.LossSwept = d.Touched[:n], swept
		checked++
	}
	return checked
}

// TestLossAreaMatchesSweep holds lossArea, which ranks its candidates and
// stops the ones that can no longer win, to lossAreaSweep, which lists every
// candidate's area in full: per closure-changing deletion, the same loss
// area in Touched, as a list. It runs TestCondensationMatchesTarjan's
// histories, FuzzCondensation's seeds and the read-inproc write list for
// seed 1 on webcore16.
func TestLossAreaMatchesSweep(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 800; seed++ {
		history(seed, func(c *Cond, batch []graph.Update, round int) {
			checked += applyCheckingLoss(t, fmt.Sprintf("seed %d, batch %d", seed, round), c, c.Graph().Reduce(batch))
		})
	}
	for _, s := range fuzzSeeds {
		fuzzHistory(s.seed, s.shape, s.ups, func(c *Cond, batch []graph.Update, round int) {
			checked += applyCheckingLoss(t, fmt.Sprintf("fuzz seed %d, round %d", s.seed, round), c, c.Graph().Reduce(batch))
		})
	}
	g, batches := readInprocWrites(1)
	c := New(g)
	web := 0
	for i, b := range batches {
		web += applyCheckingLoss(t, fmt.Sprintf("webcore16 batch %d", i), c, g.Reduce(b))
	}
	t.Logf("%d closure-changing deletions checked, %d of them on webcore16", checked+web, web)
	if web == 0 {
		t.Fatal("no deletion on webcore16 changed the closure")
	}
}

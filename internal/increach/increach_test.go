package increach

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/queries"
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

func randomBatch(rng *rand.Rand, g *graph.Graph, size int) []graph.Update {
	n := g.NumNodes()
	var batch []graph.Update
	edges := g.EdgeList()
	for i := 0; i < size; i++ {
		if rng.Intn(2) == 0 && len(edges) > 0 {
			e := edges[rng.Intn(len(edges))]
			batch = append(batch, graph.Deletion(e[0], e[1]))
		} else {
			batch = append(batch, graph.Insertion(graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n))))
		}
	}
	return batch
}

// samePartitionAsBatch verifies the maintainer's classes form the same
// partition as batch recompression, and the quotients are structurally
// identical (same sizes; sizes suffice because both are the unique
// transitive reduction of the same class DAG up to class numbering, and
// preservation is checked separately).
func checkAgainstBatch(t *testing.T, m *Maintainer) {
	t.Helper()
	g := m.Graph()
	want := reach.Compress(g)
	got := m.Compressed()
	// Partition equality via pairwise class-membership comparison.
	n := g.NumNodes()
	fwd := make(map[graph.Node]graph.Node)
	rev := make(map[graph.Node]graph.Node)
	for v := 0; v < n; v++ {
		gc := got.ClassOf(graph.Node(v))
		wc := want.ClassOf(graph.Node(v))
		if c, ok := fwd[gc]; ok && c != wc {
			t.Fatalf("partition mismatch at node %d\nedges: %v", v, g.EdgeList())
		}
		if c, ok := rev[wc]; ok && c != gc {
			t.Fatalf("partition mismatch at node %d\nedges: %v", v, g.EdgeList())
		}
		fwd[gc] = wc
		rev[wc] = gc
	}
	if got.Gr.NumNodes() != want.Gr.NumNodes() || got.Gr.NumEdges() != want.Gr.NumEdges() {
		t.Fatalf("quotient size mismatch: inc %v, batch %v\nedges: %v",
			got.Gr, want.Gr, g.EdgeList())
	}
	if err := got.Gr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// checkPreservation verifies reachability answers on the maintained Gr.
func checkPreservation(t *testing.T, m *Maintainer) {
	t.Helper()
	g := m.Graph()
	c := m.Compressed()
	n := g.NumNodes()
	for u := 0; u < n; u++ {
		desc := queries.Descendants(g, graph.Node(u))
		for v := 0; v < n; v++ {
			cu, cv := c.Rewrite(graph.Node(u), graph.Node(v))
			if got := queries.Reachable(c.Gr, cu, cv); got != desc[v] {
				t.Fatalf("QR(%d,%d): G says %v, maintained Gr says %v\nedges: %v",
					u, v, desc[v], got, g.EdgeList())
			}
		}
	}
}

func TestInsertAcrossDAG(t *testing.T) {
	// 0 -> 1, 2 -> 3; inserting 1 -> 2 changes reachability of everything.
	g := randomGraph(rand.New(rand.NewSource(0)), 4, 0)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	m := New(g)
	st := m.Apply([]graph.Update{graph.Insertion(1, 2)})
	if st.EffectiveUpdates != 1 || st.RedundantUpdates != 0 {
		t.Fatalf("stats: %+v", st)
	}
	checkAgainstBatch(t, m)
	checkPreservation(t, m)
}

func TestInsertRedundant(t *testing.T) {
	// 0 -> 1 -> 2 exists; inserting 0 -> 2 leaves the closure unchanged.
	g := randomGraph(rand.New(rand.NewSource(0)), 3, 0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	m := New(g)
	st := m.Apply([]graph.Update{graph.Insertion(0, 2)})
	if st.RedundantUpdates != 1 {
		t.Fatalf("redundant insert not detected: %+v", st)
	}
	checkAgainstBatch(t, m)
	checkPreservation(t, m)
}

func TestInsertFormsCycle(t *testing.T) {
	// Chain 0 -> 1 -> 2; inserting 2 -> 0 merges everything into one SCC.
	g := randomGraph(rand.New(rand.NewSource(0)), 3, 0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	m := New(g)
	st := m.Apply([]graph.Update{graph.Insertion(2, 0)})
	if st.Merges != 1 {
		t.Fatalf("expected a merge: %+v", st)
	}
	c := m.Compressed()
	if c.Gr.NumNodes() != 1 || !c.Gr.HasEdge(0, 0) {
		t.Fatalf("cycle should compress to one self-loop node: %v", c.Gr)
	}
	checkAgainstBatch(t, m)
	checkPreservation(t, m)
}

func TestDeleteBreaksCycle(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(0)), 3, 0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	m := New(g)
	st := m.Apply([]graph.Update{graph.Deletion(2, 0)})
	if st.Splits != 1 {
		t.Fatalf("expected a split: %+v", st)
	}
	checkAgainstBatch(t, m)
	checkPreservation(t, m)
}

func TestDeleteWithAlternatePathRedundant(t *testing.T) {
	// 0 -> 1 -> 2 and 0 -> 2: deleting 0 -> 2 is redundant.
	g := randomGraph(rand.New(rand.NewSource(0)), 3, 0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	m := New(g)
	st := m.Apply([]graph.Update{graph.Deletion(0, 2)})
	if st.RedundantUpdates != 1 {
		t.Fatalf("redundant delete not detected: %+v", st)
	}
	checkAgainstBatch(t, m)
	checkPreservation(t, m)
}

func TestSelfLoopToggle(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(0)), 2, 0)
	g.AddEdge(0, 1)
	m := New(g)
	m.Apply([]graph.Update{graph.Insertion(0, 0)})
	checkAgainstBatch(t, m)
	checkPreservation(t, m)
	m.Apply([]graph.Update{graph.Deletion(0, 0)})
	checkAgainstBatch(t, m)
	checkPreservation(t, m)
}

func TestIntraSCCSupportedDeletion(t *testing.T) {
	// SCC {0,1} with double connection 0->1 via two paths... use parallel
	// support: edges 0->1, 1->0, plus 0->2, 1->2 (support 2 on the
	// condensation edge). Deleting 0->2 keeps the condensation edge.
	g := randomGraph(rand.New(rand.NewSource(0)), 3, 0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	m := New(g)
	st := m.Apply([]graph.Update{graph.Deletion(0, 2)})
	if st.RedundantUpdates != 1 {
		t.Fatalf("supported deletion should be redundant: %+v", st)
	}
	checkAgainstBatch(t, m)
	checkPreservation(t, m)
}

func TestIncrementalMatchesBatchRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := randomGraph(rng, n, rng.Intn(3*n))
		m := New(g)
		for round := 0; round < 5; round++ {
			m.Apply(randomBatch(rng, m.Graph(), 1+rng.Intn(5)))
			want := reach.Compress(m.Graph())
			got := m.Compressed()
			if got.Gr.NumNodes() != want.Gr.NumNodes() || got.Gr.NumEdges() != want.Gr.NumEdges() {
				return false
			}
			// Partition check.
			fwd := make(map[graph.Node]graph.Node)
			rev := make(map[graph.Node]graph.Node)
			for v := 0; v < n; v++ {
				gc, wc := got.ClassOf(graph.Node(v)), want.ClassOf(graph.Node(v))
				if c, ok := fwd[gc]; ok && c != wc {
					return false
				}
				if c, ok := rev[wc]; ok && c != gc {
					return false
				}
				fwd[gc] = wc
				rev[wc] = gc
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalPreservationRandomDense(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(12)
		g := randomGraph(rng, n, 2*n)
		m := New(g)
		for round := 0; round < 4; round++ {
			m.Apply(randomBatch(rng, m.Graph(), 1+rng.Intn(6)))
			checkAgainstBatch(t, m)
			checkPreservation(t, m)
		}
	}
}

func TestNoOpBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 15, 30)
	m := New(g)
	before := m.Compressed().Gr.Size()
	st := m.Apply(nil)
	if st.EffectiveUpdates != 0 || st.AffComponents != 0 {
		t.Fatalf("empty batch did work: %+v", st)
	}
	if m.Compressed().Gr.Size() != before {
		t.Fatal("empty batch changed Gr")
	}
}

func TestStatsAffSmallForLocalChange(t *testing.T) {
	// A long chain plus an isolated pair: touching the pair must not put
	// the whole chain in AFF.
	g := graph.New(nil)
	for i := 0; i < 50; i++ {
		g.AddNodeNamed("X")
	}
	for i := 0; i < 40; i++ {
		g.AddEdge(graph.Node(i), graph.Node(i+1))
	}
	m := New(g)
	st := m.Apply([]graph.Update{graph.Insertion(45, 46)})
	if st.AffComponents > 5 {
		t.Fatalf("AFF = %d for a local change", st.AffComponents)
	}
	checkAgainstBatch(t, m)
}

// TestViewIsCompressedInTopoOrder holds View to Compressed() and to batch
// compression of the current graph over random histories: the same
// partition, cyclic flags and quotient rows under the class bijection, and a
// topologically numbered quotient.
func TestViewIsCompressedInTopoOrder(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		m := New(randomGraph(rng, n, rng.Intn(3*n)))
		for round := 0; round < 8; round++ {
			m.Apply(randomBatch(rng, m.Graph(), 1+rng.Intn(6)))
			v, _ := m.View(false)
			rc, gr := v.Compressed, v.Gr
			if !graph.IsTopoOrdered(gr) {
				t.Fatalf("seed %d round %d: View's quotient is not topologically numbered", seed, round)
			}
			for name, want := range map[string]*reach.Compressed{"Compressed()": m.Compressed(), "batch": reach.Compress(m.Graph())} {
				if err := sameView(rc, gr, want); err != nil {
					t.Fatalf("seed %d round %d: View against %s: %v", seed, round, name, err)
				}
			}
		}
	}
}

// sameView reports how the view (rc, gr) differs from want: the partition,
// the cyclic flags, or a quotient row under the class bijection the
// partition induces.
func sameView(rc *reach.Compressed, gr *graph.CSR, want *reach.Compressed) error {
	if rc.NumClasses() != want.NumClasses() || gr.NumNodes() != rc.NumClasses() {
		return fmt.Errorf("%d classes over %d quotient nodes, want %d", rc.NumClasses(), gr.NumNodes(), want.NumClasses())
	}
	to := make([]graph.Node, rc.NumClasses())
	for k := range to {
		to[k] = -1
	}
	from := slices.Clone(to)
	for v, c := range rc.ClassMap() {
		w := want.ClassOf(graph.Node(v))
		if to[c] < 0 && from[w] < 0 {
			to[c], from[w] = w, c
		}
		if to[c] != w || from[w] != c {
			return fmt.Errorf("node %d is in class %d, which does not map to %d", v, c, w)
		}
	}
	members := graph.GroupNodes(rc.ClassMap(), rc.NumClasses())
	wantMembers := graph.GroupNodes(want.ClassMap(), want.NumClasses())
	for c, w := range to {
		if w < 0 {
			return fmt.Errorf("class %d is empty", c)
		}
		if rc.CyclicClass[c] != want.CyclicClass[w] {
			return fmt.Errorf("class %d cyclic %v, want %v", c, rc.CyclicClass[c], want.CyclicClass[w])
		}
		var row []graph.Node
		for _, d := range gr.Successors(graph.Node(c)) {
			row = append(row, to[d])
		}
		slices.Sort(row)
		if wantRow := want.Gr.Successors(w); !slices.Equal(row, wantRow) {
			return fmt.Errorf("class %d's row maps to %v, want %v", c, row, wantRow)
		}
		if !slices.Equal(members[c], wantMembers[w]) {
			return fmt.Errorf("class %d has members %v, want %v", c, members[c], wantMembers[w])
		}
	}
	return nil
}

package incbisim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bisim"
	"repro/internal/graph"
)

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

// checkAgainstBatch verifies the maintainer's invariant: its partition and
// quotient must equal batch recompression of the current graph.
func checkAgainstBatch(t *testing.T, m *Maintainer) {
	t.Helper()
	want := bisim.RefineNaive(m.Graph())
	got := m.Partition()
	if !slices.Equal(got.BlockOf, want.BlockOf) {
		t.Fatalf("incremental partition diverged from batch\nedges: %v\ngot:  %v\nwant: %v",
			m.Graph().EdgeList(), got.Blocks, want.Blocks)
	}
	c := m.Compressed()
	if err := c.Gr.Validate(); err != nil {
		t.Fatal(err)
	}
	batch := bisim.Quotient(m.Graph(), want)
	if c.Gr.NumNodes() != batch.Gr.NumNodes() || c.Gr.NumEdges() != batch.Gr.NumEdges() {
		t.Fatalf("incremental quotient size %v, batch %v", c.Gr, batch.Gr)
	}
}

func TestApplySingleInsert(t *testing.T) {
	// Two bisimilar A-leaves; adding an edge from one splits them.
	g := graph.New(nil)
	a1 := g.AddNodeNamed("A")
	a2 := g.AddNodeNamed("A")
	b := g.AddNodeNamed("B")
	m := New(g)
	if m.Partition().BlockOf[a1] != m.Partition().BlockOf[a2] {
		t.Fatal("leaves should start bisimilar")
	}
	st := m.Apply([]graph.Update{graph.Insertion(a1, b)})
	if st.EffectiveUpdates != 1 {
		t.Fatalf("effective updates = %d", st.EffectiveUpdates)
	}
	if m.Partition().BlockOf[a1] == m.Partition().BlockOf[a2] {
		t.Fatal("insertion should split the A block")
	}
	checkAgainstBatch(t, m)
}

func TestApplySingleDeleteRemerges(t *testing.T) {
	g := graph.New(nil)
	a1 := g.AddNodeNamed("A")
	a2 := g.AddNodeNamed("A")
	b := g.AddNodeNamed("B")
	g.AddEdge(a1, b)
	m := New(g)
	if m.Partition().BlockOf[a1] == m.Partition().BlockOf[a2] {
		t.Fatal("precondition: split expected")
	}
	m.Apply([]graph.Update{graph.Deletion(a1, b)})
	if m.Partition().BlockOf[a1] != m.Partition().BlockOf[a2] {
		t.Fatal("deletion should re-merge the A block")
	}
	checkAgainstBatch(t, m)
}

func TestNoOpBatchDoesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomLabeled(rng, 20, 40, 2)
	m := New(g)
	before := m.Partition()
	st := m.Apply(nil)
	if st.EffectiveUpdates != 0 || st.DirtyNodes != 0 || st.LevelRebuilds != 0 {
		t.Fatalf("empty batch did work: %+v", st)
	}
	if !slices.Equal(m.Partition().BlockOf, before.BlockOf) {
		t.Fatal("empty batch changed partition")
	}
}

func TestIncrementalMatchesBatchRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := randomLabeled(rng, n, rng.Intn(3*n), 1+rng.Intn(3))
		m := New(g)
		for round := 0; round < 5; round++ {
			batch := randomBatch(rng, m.Graph(), 1+rng.Intn(5))
			m.Apply(batch)
			want := bisim.RefineNaive(m.Graph())
			if !slices.Equal(m.Partition().BlockOf, want.BlockOf) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalMatchesBatchWithCycles(t *testing.T) {
	// Heavier cyclic structure stresses the -∞ stratum and NWF ranks.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(12)
		g := randomLabeled(rng, n, 3*n, 2) // dense: many cycles
		m := New(g)
		for round := 0; round < 4; round++ {
			m.Apply(randomBatch(rng, m.Graph(), 1+rng.Intn(4)))
			checkAgainstBatch(t, m)
		}
	}
}

func TestApplySinglyEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomLabeled(rng, 15, 30, 2)
	m1 := New(g.Clone())
	m2 := New(g.Clone())
	batch := randomBatch(rng, g, 6)
	m1.Apply(batch)
	for _, up := range batch { // the IncBsim baseline of Fig. 12(g)
		m2.Apply([]graph.Update{up})
	}
	// Both must land on the batch-recompressed partition of the SAME final
	// graph. One at a time applies updates in order, so final graphs match
	// whenever the batch has no internal cancellations; enforce via reduce.
	if !slices.Equal(m1.Partition().BlockOf, bisim.RefineNaive(m1.Graph()).BlockOf) {
		t.Fatal("m1 diverged")
	}
	if !slices.Equal(m2.Partition().BlockOf, bisim.RefineNaive(m2.Graph()).BlockOf) {
		t.Fatal("m2 diverged")
	}
}

func TestRankMigrationAcrossStrata(t *testing.T) {
	// Deleting the cycle edge turns NWF (-∞) nodes into WF finite-rank
	// nodes — the hardest rank migration.
	g := graph.New(nil)
	a := g.AddNodeNamed("A")
	b := g.AddNodeNamed("A")
	c := g.AddNodeNamed("B")
	g.AddEdge(a, b)
	g.AddEdge(b, a) // cycle {a,b}
	g.AddEdge(b, c)
	m := New(g)
	m.Apply([]graph.Update{graph.Deletion(b, a)})
	checkAgainstBatch(t, m)
	m.Apply([]graph.Update{graph.Insertion(b, a)})
	checkAgainstBatch(t, m)
}

func TestStatsReportWork(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomLabeled(rng, 30, 60, 2)
	m := New(g)
	st := m.Apply(randomBatch(rng, m.Graph(), 3))
	if st.EffectiveUpdates > 0 && (st.DirtyNodes == 0 || m.Levels() < 2) {
		t.Fatalf("effective updates but no node re-signed: %+v", st)
	}
}

// logMirror checks the contract View relies on: between two views — over
// one batch or several — every node whose block id differs is in the
// log's nodes, every id whose member set
// differs is in its blocks, sizes count carriers, and an id no batch
// touched names the same members as before.
type logMirror struct{ prev []int32 }

func mirrorLog(m *Maintainer) *logMirror {
	m.resetChanges()
	return &logMirror{prev: append([]int32(nil), m.top().cls...)}
}

// check compares the maintainer's blocks with the mirror's through the
// change log; the caller then empties the log (checkView).
func (lm *logMirror) check(t *testing.T, m *Maintainer, round int) {
	t.Helper()
	blocks, nodes := m.logBlocks, m.logNodes
	inBlocks, inNodes := map[int32]bool{}, map[graph.Node]bool{}
	for _, b := range blocks {
		if inBlocks[b] {
			t.Fatalf("round %d: block %d logged twice", round, b)
		}
		inBlocks[b] = true
	}
	for _, v := range nodes {
		if inNodes[v] {
			t.Fatalf("round %d: node %d logged twice", round, v)
		}
		inNodes[v] = true
	}
	top := m.top()
	carriers := make([]int, len(top.cnt))
	for v := range lm.prev {
		id := top.cls[v]
		carriers[id]++
		if id != lm.prev[v] {
			if !inNodes[graph.Node(v)] {
				t.Fatalf("round %d: node %d went from block %d to %d unlogged", round, v, lm.prev[v], id)
			}
			if !inBlocks[id] || !inBlocks[lm.prev[v]] {
				t.Fatalf("round %d: node %d went from block %d to %d but the log's blocks are %v", round, v, lm.prev[v], id, blocks)
			}
		}
		lm.prev[v] = id
	}
	for id, n := range carriers {
		if int(top.cnt[id]) != n {
			t.Fatalf("round %d: block %d has size %d but %d carriers", round, id, top.cnt[id], n)
		}
	}
}

// checkView takes the maintainer's next view, which empties the change
// log, and holds it to batch compression of mirror: the same partition,
// member lists that agree with the block map, and every block's label and
// quotient rows, both sides, equal to bisim.Compress's through its
// canonical numbering.
func checkView(t *testing.T, m *Maintainer, mirror *graph.Graph, round int) {
	t.Helper()
	v, diff := m.View()
	want := bisim.Compress(mirror)
	blockOf, members := v.Compressed.ClassMap(), v.Compressed.Members
	if !slices.Equal(bisim.PartitionOf(blockOf).BlockOf, bisim.PartitionOf(want.ClassMap()).BlockOf) || v.Gr.NumNodes() != len(members) {
		t.Fatalf("round %d: view (made %d) has %d blocks over a different partition than batch's %d", round, diff.How, len(members), want.NumClasses())
	}
	canon := func(row []graph.Node) []graph.Node {
		out := make([]graph.Node, len(row))
		for i, b := range row {
			out[i] = want.ClassOf(members[b][0])
		}
		slices.Sort(out)
		return out
	}
	for b, mem := range members {
		for _, u := range mem {
			if blockOf[u] != graph.Node(b) {
				t.Fatalf("round %d: node %d listed in block %d, mapped to %d", round, u, b, blockOf[u])
			}
		}
		c, pb := want.ClassOf(mem[0]), graph.Node(b)
		if !slices.IsSorted(mem) || v.Gr.Label(pb) != want.Gr.Label(c) ||
			!slices.Equal(canon(v.Gr.Successors(pb)), want.Gr.Successors(c)) ||
			!slices.Equal(canon(v.Gr.Predecessors(pb)), want.Gr.Predecessors(c)) {
			t.Fatalf("round %d: view (made %d) block %d differs from batch class %d", round, diff.How, b, c)
		}
	}
}

func TestChangeLogCoversEveryMove(t *testing.T) {
	for _, insert := range []int{1, 2, 4} { // 1 in insert updates are deletions
		rng := rand.New(rand.NewSource(int64(40 + insert)))
		// Sparse and two-labeled: large blocks of sinks that grow, shrink,
		// split and empty as edges come and go.
		g := randomLabeled(rng, 600, 700, 2)
		m := New(g)
		lm := mirrorLog(m)
		for round := 0; round < 120; round++ {
			for k := 1 + round%3; k > 0; k-- { // the log spans 1–3 batches
				var batch []graph.Update
				edges := m.Graph().EdgeList()
				for i := 0; i < 12; i++ {
					if rng.Intn(insert) == 0 && len(edges) > 0 {
						e := edges[rng.Intn(len(edges))]
						batch = append(batch, graph.Deletion(e[0], e[1]))
					} else {
						batch = append(batch, graph.Insertion(graph.Node(rng.Intn(600)), graph.Node(rng.Intn(600))))
					}
				}
				m.Apply(batch)
			}
			checkAgainstBatch(t, m)
			lm.check(t, m, round)
			checkView(t, m, m.Graph(), round)
		}
	}
}

package reach

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// randomDAG draws a DAG on n nodes whose ids are not a topological order,
// as sorted duplicate-free rows, with random cyclic flags.
func randomDAG(rng *rand.Rand, n, m int) ([][]int32, []bool) {
	perm := rng.Perm(n)
	dag := make([][]int32, n)
	for range min(m, n*n) {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		a, b := int32(perm[min(i, j)]), int32(perm[max(i, j)])
		if !slices.Contains(dag[a], b) {
			dag[a] = append(dag[a], b)
		}
	}
	for _, row := range dag {
		slices.Sort(row)
	}
	cyclic := make([]bool, n)
	for v := range cyclic {
		cyclic[v] = rng.Intn(5) == 0
	}
	return dag, cyclic
}

// dagGraph is the graph a kernel input stands for: the DAG with a self-loop
// on every cyclic node.
func dagGraph(dag [][]int32, cyclic []bool) *graph.Graph {
	g := graph.New(nil)
	for range dag {
		g.AddNodeNamed("X")
	}
	for a, row := range dag {
		for _, b := range row {
			g.AddEdge(int32(a), b)
		}
		if cyclic[a] {
			g.AddEdge(int32(a), int32(a))
		}
	}
	return g
}

// closure returns reach[a][b]: b is a strict descendant of a in the DAG.
func closure(dag [][]int32) [][]bool {
	n := len(dag)
	reach := make([][]bool, n)
	for a := range n {
		reach[a] = make([]bool, n)
		stack := slices.Clone(dag[a])
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !reach[a][x] {
				reach[a][x] = true
				stack = append(stack, dag[x]...)
			}
		}
	}
	return reach
}

// bruteReduced returns the transitive reduction of a DAG given as its
// closure, by definition: (a,b) stays iff b is a strict descendant of a that
// no other strict descendant of a reaches.
func bruteReduced(reach [][]bool) [][]int32 {
	n := len(reach)
	out := make([][]int32, n)
	for a := range n {
		for b := range n {
			if !reach[a][b] {
				continue
			}
			minimal := true
			for c := range n {
				if c != b && reach[a][c] && reach[c][b] {
					minimal = false
					break
				}
			}
			if minimal {
				out[a] = append(out[a], int32(b))
			}
		}
	}
	return out
}

// reducedRows returns the reduced out- and in-rows the kernel's last call
// kept for its n nodes, as sorted node ids.
func reducedRows(k *Kernel, n int) (out, in [][]int32) {
	out, in = make([][]int32, n), make([][]int32, n)
	for v := range n {
		for _, q := range k.outRow(k.pos[v]) {
			out[v] = append(out[v], k.order[q])
		}
		for _, p := range k.inRow(k.pos[v]) {
			in[v] = append(in[v], k.order[p])
		}
		slices.Sort(out[v])
		slices.Sort(in[v])
	}
	return out, in
}

// checkKernel compares one Quotient call with the definitions: the reduced
// rows of the DAG, the classes by pairwise reach sets, and the class rows as
// the reduction of the quotient.
func checkKernel(dag [][]int32, cyclic []bool, k *Kernel) error {
	n := len(dag)
	classOf, off, adj, classCyclic := k.Quotient(dag, cyclic)
	reach := closure(dag)
	red := bruteReduced(reach)
	out, in := reducedRows(k, n)
	for v := range n {
		if !slices.Equal(out[v], red[v]) {
			return fmt.Errorf("node %d: reduced out-row %v, want %v", v, out[v], red[v])
		}
		var want []int32
		for a := range n {
			if slices.Contains(red[a], int32(v)) {
				want = append(want, int32(a))
			}
		}
		if !slices.Equal(in[v], want) {
			return fmt.Errorf("node %d: reduced in-row %v, want %v", v, in[v], want)
		}
	}

	byClass := make([]graph.Node, n)
	for v, c := range classOf {
		byClass[v] = c
	}
	if !samePartition(bruteClasses(dagGraph(dag, cyclic)), byClass) {
		return fmt.Errorf("classes %v differ from pairwise reach sets", classOf)
	}
	// Classes are numbered by their first member along the kernel's order,
	// which is topological.
	classes := len(classCyclic)
	if len(off) != classes+1 {
		return fmt.Errorf("%d row offsets for %d classes", len(off), classes)
	}
	for a, row := range dag {
		for _, b := range row {
			if k.pos[a] >= k.pos[b] {
				return fmt.Errorf("edge %d → %d runs backwards in the kernel's order", a, b)
			}
		}
	}
	next := int32(0)
	for _, v := range k.order[:n] {
		switch c := classOf[v]; {
		case c > next:
			return fmt.Errorf("class %d of node %d opens before class %d", c, v, next)
		case c == next:
			next++
		}
	}
	if int(next) != classes {
		return fmt.Errorf("%d classes opened, %d returned", next, classes)
	}
	for v, c := range classOf {
		if classCyclic[c] != cyclic[v] {
			return fmt.Errorf("class %d cyclic %v, node %d cyclic %v", c, classCyclic[c], v, cyclic[v])
		}
	}

	// The quotient by definition: a class edge wherever a DAG edge crosses
	// classes, then reduced, plus the self-loops.
	qreach := make([][]bool, classes)
	for c := range qreach {
		qreach[c] = make([]bool, classes)
	}
	for a := range n {
		for b := range n {
			if reach[a][b] {
				qreach[classOf[a]][classOf[b]] = true
			}
		}
	}
	want := bruteReduced(qreach)
	for c := range classes {
		if classCyclic[c] {
			want[c] = append(want[c], int32(c))
			slices.Sort(want[c])
		}
		row := adj[off[c]:off[c+1]]
		if !slices.Equal(row, want[c]) {
			return fmt.Errorf("class %d: row %v, want %v", c, row, want[c])
		}
		if len(row) > 0 && row[0] < int32(c) {
			return fmt.Errorf("class %d: edge to class %d breaks the topological numbering", c, row[0])
		}
	}
	return nil
}

// TestKernelMatchesBruteForce holds the quotient kernel to the definitions
// on random DAGs with cyclic flags, through a fresh kernel and through one
// whose scratch a larger and a smaller input grew before.
func TestKernelMatchesBruteForce(t *testing.T) {
	var reused Kernel
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(150)
		dag, cyclic := randomDAG(rng, n, rng.Intn(4*n))
		if err := checkKernel(dag, cyclic, new(Kernel)); err != nil {
			t.Logf("seed %d, fresh kernel: %v", seed, err)
			return false
		}
		if err := checkKernel(dag, cyclic, &reused); err != nil {
			t.Logf("seed %d, reused kernel: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDescendantDPMatchesBruteForce: over the condensation of random
// graphs, as Compress hands it to the kernel, the reduced out-rows span
// every component's strict descendant set — the sets the reduction pass
// builds children first, checked against per-node search.
func TestDescendantDPMatchesBruteForce(t *testing.T) {
	var k Kernel
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		s := graph.Tarjan(randomGraph(rng, n, rng.Intn(3*n)))
		k.Quotient(s.Out, s.Cyclic)
		out, _ := reducedRows(&k, s.NumComponents())
		want, got := closure(s.Out), closure(out)
		for c := range want {
			if !slices.Equal(got[c], want[c]) {
				t.Logf("seed %d: component %d reaches %v along reduced rows, %v in the condensation", seed, c, got[c], want[c])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAncestorDPIsDualOfDescendantDP: the reduced in-rows are the transpose
// of the reduced out-rows, so the ancestor sets they span are dual to the
// descendant sets: a ∈ anc(b) ⇔ b ∈ desc(a).
func TestAncestorDPIsDualOfDescendantDP(t *testing.T) {
	var k Kernel
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		s := graph.Tarjan(randomGraph(rng, n, rng.Intn(3*n)))
		nc := s.NumComponents()
		k.Quotient(s.Out, s.Cyclic)
		out, in := reducedRows(&k, nc)
		desc, anc := closure(out), closure(in)
		for a := range nc {
			for b := range nc {
				if slices.Contains(out[a], int32(b)) != slices.Contains(in[b], int32(a)) {
					t.Logf("seed %d: edge %d → %d in one reduced row only", seed, a, b)
					return false
				}
				if desc[a][b] != anc[b][a] {
					t.Logf("seed %d: %d ∈ desc(%d) is %v, %d ∈ anc(%d) is %v", seed, b, a, desc[a][b], a, b, anc[b][a])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSetGrouperExactness pins the grouping by hash with exact confirmation:
// two nodes share a class iff both are acyclic and their reduced out- and
// in-rows are equal. Rows one entry apart stay apart, and a kernel whose
// table an earlier, different input filled still groups exactly.
func TestSetGrouperExactness(t *testing.T) {
	// 0 and 1 have rows ({3, 4}, {}); 2 has ({3, 5}, {}), one entry off; 6
	// has 0's rows but is cyclic. Kahn's order is 0 1 2 6 5 3 4, and the
	// classes are numbered as their first members appear in it.
	dag := [][]int32{{3, 4}, {3, 4}, {3, 5}, {}, {}, {}, {3, 4}}
	cyclic := []bool{false, false, false, false, false, false, true}
	var k Kernel
	classOf, _, _, classCyclic := k.Quotient(dag, cyclic)
	if want := []int32{0, 0, 1, 4, 5, 3, 2}; !slices.Equal(classOf, want) {
		t.Fatalf("classes %v, want %v", classOf, want)
	}
	if len(classCyclic) != 6 {
		t.Fatalf("%d classes, want 6", len(classCyclic))
	}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(120)
		dag, cyclic := randomDAG(rng, n, rng.Intn(3*n))
		classOf, _, _, _ := k.Quotient(dag, cyclic)
		out, in := reducedRows(&k, n)
		for u := range n {
			for v := range n {
				same := u == v || !cyclic[u] && !cyclic[v] &&
					slices.Equal(out[u], out[v]) && slices.Equal(in[u], in[v])
				if (classOf[u] == classOf[v]) != same {
					t.Logf("seed %d: nodes %d and %d share a class: %v, rows equal: %v", seed, u, v, !same, same)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzQuotient is TestKernelMatchesBruteForce over fuzzed shapes.
func FuzzQuotient(f *testing.F) {
	f.Add(int64(1), uint8(10), uint16(20))
	f.Add(int64(2), uint8(70), uint16(300))
	f.Add(int64(3), uint8(130), uint16(40))
	var reused Kernel
	f.Fuzz(func(t *testing.T, seed int64, n uint8, m uint16) {
		rng := rand.New(rand.NewSource(seed))
		dag, cyclic := randomDAG(rng, int(n), int(m)%1024)
		if err := checkKernel(dag, cyclic, &reused); err != nil {
			t.Fatal(err)
		}
	})
}

// TestKernelSelfLoopAndTR: DAG 0 → 1 → 2 plus the shortcut 0 → 2, node 1
// cyclic — the shortcut goes and the cyclic class keeps its self-loop.
func TestKernelSelfLoopAndTR(t *testing.T) {
	var k Kernel
	classOf, off, adj, cyclic := k.Quotient([][]int32{{1, 2}, {2}, {}}, []bool{false, true, false})
	if !slices.Equal(classOf, []int32{0, 1, 2}) || !slices.Equal(cyclic, []bool{false, true, false}) {
		t.Fatalf("classes %v, cyclic %v", classOf, cyclic)
	}
	if !slices.Equal(off, []int32{0, 1, 3, 3}) || !slices.Equal(adj, []graph.Node{1, 1, 2}) {
		t.Fatalf("rows %v over %v, want [1] [1 2] []", off, adj)
	}
	labels := graph.NewLabels()
	labels.Intern(SigmaLabel)
	gr, err := graph.CSRFromRows(labels, make([]graph.Label, len(cyclic)), off, adj)
	if err != nil {
		t.Fatal(err)
	}
	if err := gr.Thaw().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestKernelDedupsClassEdges: 0 → {1, 2} with 1 and 2 classmates — two
// reduced edges become one class edge.
func TestKernelDedupsClassEdges(t *testing.T) {
	var k Kernel
	classOf, off, adj, _ := k.Quotient([][]int32{{1, 2}, {}, {}}, []bool{false, false, false})
	if !slices.Equal(classOf, []int32{0, 1, 1}) {
		t.Fatalf("classes %v, want [0 1 1]", classOf)
	}
	if !slices.Equal(off, []int32{0, 1, 1}) || !slices.Equal(adj, []graph.Node{1}) {
		t.Fatalf("rows %v over %v, want [1] []", off, adj)
	}
}

// TestKernelRejectsCycles: the input contract is a DAG.
func TestKernelRejectsCycles(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a cyclic input was quotiented")
		}
	}()
	var k Kernel
	k.Quotient([][]int32{{1}, {0}}, []bool{false, false})
}

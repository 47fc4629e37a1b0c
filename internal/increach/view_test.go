package increach

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
)

// membersDiff derives a view's diff from the previous view's member lists:
// each old class maps to the new class of its smallest member, and the
// nodes that do not follow their class are the exceptions. It is the
// reference for View's diff, which needs no member lists.
func membersDiff(old, cur View) (classMap, exNode, exClass []graph.Node) {
	newOf := cur.Compressed.ClassMap()
	classMap = make([]graph.Node, old.Compressed.NumClasses())
	for c, mem := range graph.GroupNodes(old.Compressed.ClassMap(), old.Compressed.NumClasses()) {
		classMap[c] = newOf[mem[0]]
	}
	for v, c := range old.Compressed.ClassMap() {
		if newOf[v] != classMap[c] {
			exNode = append(exNode, graph.Node(v))
			exClass = append(exClass, newOf[v])
		}
	}
	return classMap, exNode, exClass
}

// redundantBatch returns updates that leave the transitive closure of g as
// it is: edges already present inserted again, and an edge between two
// nodes the first already reaches.
func redundantBatch(rng *rand.Rand, g *graph.Graph) []graph.Update {
	var batch []graph.Update
	if edges := g.EdgeList(); len(edges) > 0 {
		e := edges[rng.Intn(len(edges))]
		batch = append(batch, graph.Insertion(e[0], e[1]))
	}
	u := graph.Node(rng.Intn(g.NumNodes()))
	seen := map[graph.Node]bool{u: true}
	stack := []graph.Node{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Successors(x) {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
				if w != u && !slices.Contains(g.Successors(u), w) {
					return append(batch, graph.Insertion(u, w))
				}
			}
		}
	}
	return batch
}

// TestViewSaysHowItWasMade runs groups of batches over random graphs —
// groups that move the compression, groups of redundant updates and empty
// groups — and asks for a view after each. The first view is Built; after
// that a view is Kept exactly when no batch of its group regrouped, and
// Rebuilt otherwise. Every view equals batch compression of the current
// graph; a kept one is the previous view itself; a rebuilt one comes with
// the diff membersDiff derives from the member lists, and Patch of that
// diff over the previous view gives the new view's class map.
func TestViewSaysHowItWasMade(t *testing.T) {
	counts := map[How]int{}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		m := New(randomGraph(rng, n, rng.Intn(3*n)))
		prev, d := m.View(true)
		if d.How != Built {
			t.Fatalf("seed %d: the first view is %v, want Built", seed, d.How)
		}
		counts[Built]++
		for group := 0; group < 12; group++ {
			moved := false
			for range rng.Intn(3) {
				var batch []graph.Update
				if rng.Intn(2) == 0 {
					batch = randomBatch(rng, m.Graph(), 1+rng.Intn(4))
				} else {
					batch = redundantBatch(rng, m.Graph())
				}
				if st := m.Apply(batch); st.H > 0 {
					moved = true
				}
			}
			diff := rng.Intn(4) > 0
			cur, d := m.View(diff)
			counts[d.How]++
			if err := sameView(cur.Compressed, cur.Gr, m.Compressed()); err != nil {
				t.Fatalf("seed %d group %d: %v", seed, group, err)
			}
			switch {
			case !moved && d.How != Kept, moved && d.How != Rebuilt:
				t.Fatalf("seed %d group %d: a group that moved the compression: %v; the view is %v", seed, group, moved, d.How)
			case d.How == Kept:
				if cur != prev {
					t.Fatalf("seed %d group %d: a kept view is not the previous one", seed, group)
				}
			case !diff:
				if len(d.ClassMap)+len(d.ExNode)+len(d.ExClass) > 0 {
					t.Fatalf("seed %d group %d: a view made without a diff carries one", seed, group)
				}
			default:
				classMap, exNode, exClass := membersDiff(prev, cur)
				if !slices.Equal(d.ClassMap, classMap) || !slices.Equal(d.ExNode, exNode) || !slices.Equal(d.ExClass, exClass) {
					t.Fatalf("seed %d group %d: diff %v %v %v, the member lists give %v %v %v",
						seed, group, d.ClassMap, d.ExNode, d.ExClass, classMap, exNode, exClass)
				}
				patched, err := Patch(prev, d.ClassMap, d.ExNode, d.ExClass, cur.Gr, cur.Compressed.CyclicClass)
				if err != nil {
					t.Fatalf("seed %d group %d: Patch: %v", seed, group, err)
				}
				if !slices.Equal(patched.Compressed.ClassMap(), cur.Compressed.ClassMap()) {
					t.Fatalf("seed %d group %d: the patched class map is not the view's", seed, group)
				}
			}
			prev = cur
		}
	}
	if counts[Kept] == 0 || counts[Rebuilt] == 0 {
		t.Fatalf("views made: %v; want every kind", counts)
	}
}

// TestPatchRefuses holds Patch to what a follower must not apply: a map
// that does not cover the old view's classes, and one that leaves a class
// of the new quotient empty.
func TestPatchRefuses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New(randomGraph(rng, 30, 60))
	old, _ := m.View(true)
	for {
		if st := m.Apply(randomBatch(rng, m.Graph(), 4)); st.H > 0 {
			break
		}
	}
	cur, d := m.View(true)
	if d.How != Rebuilt {
		t.Fatalf("the view after a regroup is %v", d.How)
	}
	k := graph.Node(cur.Gr.NumNodes())
	classMap, exNode, exClass := slices.Clone(d.ClassMap), slices.Clone(d.ExNode), slices.Clone(d.ExClass)
	cyclic := cur.Compressed.CyclicClass
	if _, err := Patch(old, classMap, exNode, exClass, cur.Gr, cyclic); err != nil {
		t.Fatalf("Patch refused the maintainer's own diff: %v", err)
	}
	// A quotient one class wider than the view: that class is empty.
	off, adj := []int32{0}, []graph.Node(nil)
	for c := range k {
		adj = append(adj, cur.Gr.Successors(c)...)
		off = append(off, int32(len(adj)))
	}
	wider, err := graph.CSRFromRows(cur.Gr.Labels(), make([]graph.Label, k+1), append(off, int32(len(adj))), adj)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		classMap []graph.Node
		gr       *graph.CSR
		cyclic   []bool
		want     string
	}{
		"short map":   {classMap[1:], cur.Gr, cyclic, "reach map over"},
		"long map":    {append(slices.Clone(classMap), 0), cur.Gr, cyclic, "reach map over"},
		"empty class": {classMap, wider, append(slices.Clone(cyclic), false), "reach class " + fmt.Sprint(k) + " is empty"},
	} {
		if _, err := Patch(old, tc.classMap, exNode, exClass, tc.gr, tc.cyclic); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Patch = %v, want an error naming %q", name, err, tc.want)
		}
	}
}

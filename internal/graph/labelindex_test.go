package graph

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// checkLabelIndex holds c.NodesLabeled to a scan of c's label array for
// every label id from −1 to two past the table, unused labels and ids past
// the grouping's range included.
func checkLabelIndex(t *testing.T, what string, c *CSR) {
	t.Helper()
	for l := Label(-1); int(l) < c.Labels().Count()+2; l++ {
		var want []Node
		for v := range c.NumNodes() {
			if c.Label(Node(v)) == l {
				want = append(want, Node(v))
			}
		}
		if got := c.NodesLabeled(l); !slices.Equal(got, want) {
			t.Fatalf("%s: label %d groups %v, the scan finds %v", what, l, got, want)
		}
	}
}

// TestNodesLabeledMatchesScan checks the label grouping of frozen, patched
// and decoded CSRs against a label scan. Every graph interns more labels
// than it uses; a patch relabels and adds rows after its parent's grouping
// was built, and both must still agree with their own label arrays.
func TestNodesLabeledMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var p Patcher
	for range 40 {
		n := rng.Intn(50)
		g := randomGraph(rng, n, rng.Intn(3*n+1), 1+rng.Intn(4))
		g.Labels().Intern("unused")
		c := g.Freeze()
		checkLabelIndex(t, "frozen", c)

		dec, err := CSRFromRows(c.Labels(), c.LabelIDs(), c.out.offsets(), c.out.flat(c.m))
		if err != nil {
			t.Fatal(err)
		}
		checkLabelIndex(t, "decoded", dec)

		grow := n + rng.Intn(5)
		var ids []Node
		for v := range grow {
			if v >= n || rng.Intn(4) == 0 {
				ids = append(ids, Node(v))
			}
		}
		labels := make([]Label, len(ids))
		for k := range labels {
			labels[k] = Label(rng.Intn(c.Labels().Count()))
		}
		patched := p.Patch(c, grow, ids, func(int) []Node { return nil }, func(k int) Label { return labels[k] })
		checkLabelIndex(t, "patched", patched)
		checkLabelIndex(t, "the patch's parent", c)
	}
}

// TestNodesLabeledFirstUse has 8 goroutines make a fresh CSR's grouping at
// once: each must see the one the CAS kept, equal to a label scan. Run it
// under -race.
func TestNodesLabeledFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := randomGraph(rng, 400, 1200, 5).Freeze()
	got := make([][]Node, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[w] = c.NodesLabeled(Label(w % 5))
		}()
	}
	close(start)
	wg.Wait()
	for w, nodes := range got {
		if want := c.NodesLabeled(Label(w % 5)); &nodes[0] != &want[0] || !slices.Equal(nodes, want) {
			t.Fatalf("goroutine %d holds a grouping the CAS did not keep", w)
		}
	}
	checkLabelIndex(t, "raced", c)
}

package maintain

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bisim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/incbisim"
	"repro/internal/increach"
	"repro/internal/reach"
)

// sameReach fails unless got is want — reach.Compress of the same graph —
// up to class numbering:
// the same partition of the nodes and, through the induced class
// bijection, the same quotient edges, self-loops and cyclic flags.
func sameReach(t *testing.T, what string, want, got *reach.Compressed) {
	t.Helper()
	if got.NumClasses() != want.NumClasses() {
		t.Fatalf("%s: %d classes, batch has %d", what, got.NumClasses(), want.NumClasses())
	}
	toWant := make([]graph.Node, got.NumClasses())
	seen := make([]bool, got.NumClasses())
	taken := make([]bool, want.NumClasses())
	for v := range want.ClassMap() {
		gc, wc := got.ClassOf(graph.Node(v)), want.ClassOf(graph.Node(v))
		if !seen[gc] {
			if taken[wc] {
				t.Fatalf("%s: batch class %d is split (node %d)", what, wc, v)
			}
			seen[gc], taken[wc], toWant[gc] = true, true, wc
		} else if toWant[gc] != wc {
			t.Fatalf("%s: class %d merges batch classes %d and %d (node %d)", what, gc, toWant[gc], wc, v)
		}
	}
	if err := got.Gr.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got.Gr.NumEdges() != want.Gr.NumEdges() {
		t.Fatalf("%s: quotient has %d edges, batch has %d", what, got.Gr.NumEdges(), want.Gr.NumEdges())
	}
	got.Gr.Edges(func(a, b graph.Node) bool {
		if !want.Gr.HasEdge(toWant[a], toWant[b]) {
			t.Fatalf("%s: quotient edge (%d,%d) is not in the batch quotient", what, a, b)
		}
		return true
	})
	for c, cyc := range got.CyclicClass {
		if cyc != want.CyclicClass[toWant[c]] {
			t.Fatalf("%s: class %d cyclic flag %v, batch says %v", what, c, cyc, !cyc)
		}
	}
	wantMembers := graph.GroupNodes(want.ClassMap(), want.NumClasses())
	for c, ms := range graph.GroupNodes(got.ClassMap(), got.NumClasses()) {
		if len(ms) != len(wantMembers[toWant[c]]) {
			t.Fatalf("%s: class %d has %d members, batch has %d", what, c, len(ms), len(wantMembers[toWant[c]]))
		}
	}
}

// samePattern fails unless the maintained partition and quotient equal
// want — bisim.Compress of the same graph; both are canonically numbered,
// so equality is literal.
func samePattern(t *testing.T, what string, want *bisim.Compressed, part *bisim.Partition, got *bisim.Compressed) {
	t.Helper()
	if !slices.Equal(got.ClassMap(), want.ClassMap()) || !slices.Equal(part.BlockOf, want.ClassMap()) {
		t.Fatalf("%s: partition differs from batch (%d vs %d blocks)", what, got.NumClasses(), want.NumClasses())
	}
	if err := got.Gr.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !slices.Equal(got.Gr.EdgeList(), want.Gr.EdgeList()) {
		t.Fatalf("%s: quotient edges differ from batch", what)
	}
	for b := 0; b < got.Gr.NumNodes(); b++ {
		if got.Gr.Label(graph.Node(b)) != want.Gr.Label(graph.Node(b)) {
			t.Fatalf("%s: block %d label differs from batch", what, b)
		}
		if !slices.Equal(got.Members[b], want.Members[b]) {
			t.Fatalf("%s: block %d members differ from batch", what, b)
		}
	}
}

// TestDifferentialBenchmarkShapes replays long update streams on the two
// graph shapes the repository's benchmark uses — a social graph (giant SCC
// with fans, collapsing to a few dozen reach classes) and a web-core graph
// (a core SCC with deep tendrils) — at delete-only, mixed and insert-only
// shares, and checks after every batch that the paired maintainers and the
// two stand-alone ones each hold exactly the batch recompression of the
// current graph.
func TestDifferentialBenchmarkShapes(t *testing.T) {
	batches := 200
	if testing.Short() {
		batches = 40
	}
	for _, d := range []gen.Dataset{
		{Name: "social", V: 2400, E: 12000, Labels: 8, Kind: gen.KindSocial},
		{Name: "webcore", V: 2600, E: 12000, Labels: 8, Kind: gen.KindWebCore},
	} {
		for _, share := range []float64{0, 0.5, 1} {
			t.Run(fmt.Sprintf("%s/insert=%v", d.Name, share), func(t *testing.T) {
				t.Parallel()
				g := d.Build(3)
				mirror := g.Clone()
				pair := New(g.Clone(), nil)
				rm := increach.New(g.Clone())
				pm := incbisim.New(g)
				rng := rand.New(rand.NewSource(17))
				for i := 0; i < batches; i++ {
					batch := gen.RandomBatch(rng, mirror, 32, share)
					if i%7 == 3 {
						// Duplicates and an insert/delete pair, so the shared
						// reduction has something to cancel.
						batch = append(batch, batch[0], graph.Insertion(1, 2), graph.Deletion(1, 2))
					}
					mirror.Apply(batch)
					prs, pps := pair.Apply(batch)
					rs, ps := rm.Apply(batch), pm.Apply(batch)
					if prs != rs || pps != ps {
						t.Fatalf("batch %d: paired stats (%+v, %+v) differ from stand-alone (%+v, %+v)", i, prs, pps, rs, ps)
					}
					what := fmt.Sprintf("batch %d", i)
					if !slices.Equal(pair.Graph().EdgeList(), mirror.EdgeList()) {
						t.Fatalf("%s: paired graph diverged from the mirror", what)
					}
					wantR, wantP := reach.Compress(mirror), bisim.Compress(mirror)
					sameReach(t, what+" paired", wantR, pair.Reach.Compressed())
					sameReach(t, what+" stand-alone", wantR, rm.Compressed())
					samePattern(t, what+" paired", wantP, pair.Pattern.Partition(), pair.Pattern.Compressed())
					samePattern(t, what+" stand-alone", wantP, pm.Partition(), pm.Compressed())
				}
			})
		}
	}
}

// TestDifferentialSmallDense is the adversarial counterpart of the
// benchmark-shaped streams: small dense random graphs, where almost every
// batch merges or splits components, moves ranks, and recycles component
// and block ids — checked against batch recompression after every batch.
func TestDifferentialSmallDense(t *testing.T) {
	seeds := int64(300)
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := graph.New(nil)
		labels := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			g.AddNodeNamed(fmt.Sprint("L", rng.Intn(labels)))
		}
		for i, m := 0, rng.Intn(3*n); i < m; i++ {
			g.AddEdge(graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n)))
		}
		mirror := g.Clone()
		p := New(g, nil)
		for round := 0; round < 20; round++ {
			share := []float64{0, 0.3, 0.5, 1}[rng.Intn(4)]
			batch := gen.RandomBatch(rng, mirror, 1+rng.Intn(10), share)
			mirror.Apply(batch)
			p.Apply(batch)
			what := fmt.Sprintf("seed %d round %d", seed, round)
			sameReach(t, what, reach.Compress(mirror), p.Reach.Compressed())
			samePattern(t, what, bisim.Compress(mirror), p.Pattern.Partition(), p.Pattern.Compressed())
		}
	}
}

// TestWorkBounds pins the maintainers' work as counts, not times. On a
// social-shaped graph an insert-only batch singles out at most its
// endpoint components and merge hosts — never their cones — and, unless it
// changes the refinement's depth, re-signs a bounded multiple of its
// updates — never the stratum they fall in; and a steady stream of mixed
// batches allocates a bounded number of objects per Apply:
// scratch is reused, so what remains is the batch reduction, the new Gr,
// and slices that grow.
func TestWorkBounds(t *testing.T) {
	d := gen.Dataset{V: 3000, E: 15000, Labels: 8, Kind: gen.KindSocial}
	g := d.Build(5)
	mirror := g.Clone()
	rm := increach.New(g.Clone())
	pm := incbisim.New(g.Clone())
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 30; i++ {
		batch := gen.RandomBatch(rng, mirror, 32, 1)
		mirror.Apply(batch)
		if st := pm.Apply(batch); st.LevelRebuilds == 0 && st.DirtyNodes > 10*len(batch) {
			t.Fatalf("insert-only batch %d of %d updates re-signed %d nodes: %+v", i, len(batch), st.DirtyNodes, st)
		}
		if st := rm.Apply(batch); st.AffComponents > 4*len(batch) {
			t.Fatalf("insert-only batch %d of %d updates singled out %d components: %+v", i, len(batch), st.AffComponents, st)
		}
	}

	const runs = 40
	var batches [][]graph.Update
	for i := 0; i < 2*(runs+1); i++ {
		batch := gen.RandomBatch(rng, mirror, 32, 0.5)
		mirror.Apply(batch)
		batches = append(batches, batch)
	}
	next := 0
	reachAllocs := testing.AllocsPerRun(runs, func() {
		rm.Apply(batches[next])
		next++
	})
	next = 0
	patternAllocs := testing.AllocsPerRun(runs, func() {
		pm.Apply(batches[next])
		next++
	})
	// incRCM runs the quotient kernel over H, |Gr| + |AFF| nodes, in scratch
	// it keeps; what it allocates per batch is the new Gr, a few dozen
	// objects whatever |H| (more under -race). Nothing is allocated per node
	// or edge of G.
	h := float64(rm.Compressed().NumClasses() + 4*32)
	t.Logf("allocations per Apply: increach %.0f (|H| <= %.0f), incbisim %.0f", reachAllocs, h, patternAllocs)
	if reachAllocs > 10*h+300 {
		t.Errorf("increach.Apply allocates %.0f objects per batch for |H| <= %.0f", reachAllocs, h)
	}
	if patternAllocs > 200 {
		t.Errorf("incbisim.Apply allocates %.0f objects per batch", patternAllocs)
	}
}

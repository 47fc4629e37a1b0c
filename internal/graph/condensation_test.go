package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// checkCondensation holds the condensation TarjanCSR returns for c to one
// counted edge by edge in a map, independent of how TarjanCSR builds it:
// every row of Out, OutSupport and In, the cyclic flags, and the flat arrays
// the rows are carved from, back to back and with capacity equal to length
// (dynscc adopts them as arenas and reads their capacity).
func checkCondensation(t *testing.T, what string, c *graph.CSR) {
	t.Helper()
	s := graph.TarjanCSR(c)
	k := s.NumComponents()
	support := map[[2]int32]int32{}
	cyclic := make([]bool, k)
	for id, ms := range s.Members {
		cyclic[id] = len(ms) > 1
	}
	for u := range c.NumNodes() {
		for _, v := range c.Successors(graph.Node(u)) {
			a, b := s.Comp[u], s.Comp[v]
			if a == b {
				cyclic[a] = true
				continue
			}
			if a < b {
				t.Fatalf("%s: edge (%d,%d) runs from component %d up to %d", what, u, v, a, b)
			}
			support[[2]int32{a, b}]++
		}
	}
	out, in := make([][]int32, k), make([][]int32, k)
	for p := range support {
		out[p[0]] = append(out[p[0]], p[1])
		in[p[1]] = append(in[p[1]], p[0])
	}
	if len(s.Out) != k || len(s.OutSupport) != k || len(s.In) != k || len(s.Cyclic) != k {
		t.Fatalf("%s: %d components, rows %d/%d/%d, flags %d", what, k, len(s.Out), len(s.OutSupport), len(s.In), len(s.Cyclic))
	}
	var wantOut, wantSup, wantIn []int32
	for a := range k {
		slices.Sort(out[a])
		slices.Sort(in[a])
		sup := make([]int32, len(out[a]))
		for i, b := range out[a] {
			sup[i] = support[[2]int32{int32(a), b}]
		}
		if !slices.Equal(s.Out[a], out[a]) || !slices.Equal(s.OutSupport[a], sup) || !slices.Equal(s.In[a], in[a]) {
			t.Fatalf("%s: component %d has out %v support %v in %v, want %v %v %v",
				what, a, s.Out[a], s.OutSupport[a], s.In[a], out[a], sup, in[a])
		}
		for _, row := range [][]int32{s.Out[a], s.OutSupport[a], s.In[a]} {
			if cap(row) != len(row) {
				t.Fatalf("%s: a row of component %d has capacity %d beyond its %d entries", what, a, cap(row), len(row))
			}
		}
		if s.Cyclic[a] != cyclic[a] {
			t.Fatalf("%s: component %d cyclic %v, want %v", what, a, s.Cyclic[a], cyclic[a])
		}
		wantOut, wantSup, wantIn = append(wantOut, out[a]...), append(wantSup, sup...), append(wantIn, in[a]...)
	}
	flatOut, flatSup, flatIn := s.Flat()
	for _, f := range []struct {
		name      string
		got, want []int32
	}{{"out", flatOut, wantOut}, {"support", flatSup, wantSup}, {"in", flatIn, wantIn}} {
		if !slices.Equal(f.got, f.want) || cap(f.got) != len(f.got) {
			t.Fatalf("%s: flat %s array has %d entries (capacity %d), want the %d rows' entries back to back",
				what, f.name, len(f.got), cap(f.got), len(f.want))
		}
	}
}

// TestTarjanCondensationMatchesReference holds TarjanCSR's condensation to
// the edge-by-edge count of checkCondensation on the benchmark's two graphs
// after their write lists (social16 after write-mono's 120 seed-1 batches,
// webcore16 after read-inproc's 36, drawn as benchmark/workloads.go draws
// them), on random graphs with self-loops, on the empty graph and on a
// single SCC. dynscc's own differentials take graph.Tarjan as their oracle,
// so they cannot judge it.
func TestTarjanCondensationMatchesReference(t *testing.T) {
	for _, w := range []struct {
		d      gen.Dataset
		writes int
	}{
		{gen.Dataset{Name: "social16", V: 15500, E: 79600, Labels: 16, Kind: gen.KindSocial}, 120},
		{gen.Dataset{Name: "webcore16", V: 16300, E: 75000, Labels: 16, Kind: gen.KindWebCore}, 36},
	} {
		g := w.d.Build(1)
		rng := rand.New(rand.NewSource(1 ^ 0x5eed))
		for range w.writes {
			g.Apply(gen.RandomBatch(rng, g, 32, 0.5))
		}
		checkCondensation(t, w.d.Name, g.Freeze())
	}

	rng := rand.New(rand.NewSource(7))
	for i := range 200 {
		n := 1 + rng.Intn(60)
		g := graph.New(nil)
		for range n {
			g.AddNodeNamed("X")
		}
		for range rng.Intn(3 * n) {
			g.AddEdge(graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n)))
		}
		for range rng.Intn(4) {
			v := graph.Node(rng.Intn(n))
			g.AddEdge(v, v)
		}
		checkCondensation(t, fmt.Sprintf("random graph %d", i), g.Freeze())
	}

	checkCondensation(t, "empty graph", graph.New(nil).Freeze())

	ring := graph.New(nil)
	for range 50 {
		ring.AddNodeNamed("X")
	}
	for v := range graph.Node(50) {
		ring.AddEdge(v, (v+1)%50)
		ring.AddEdge(v, (v+7)%50)
	}
	if s := graph.Tarjan(ring); s.NumComponents() != 1 {
		t.Fatalf("the ring has %d components, want 1", s.NumComponents())
	}
	checkCondensation(t, "single SCC", ring.Freeze())
}

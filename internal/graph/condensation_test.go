package graph_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// checkCondensation holds the condensation TarjanCSR returns for c to one
// counted edge by edge in a map, independent of how TarjanCSR builds it:
// every row of Out, Support and In, the cyclic flags, and the flat arrays
// the rows are carved from, back to back and with capacity equal to length
// (dynscc adopts them as arenas and reads their capacity).
func checkCondensation(t *testing.T, what string, c *graph.CSR) {
	t.Helper()
	s := graph.TarjanCSR(c)
	k := s.NumComponents()
	support := map[[2]int32]int32{}
	cyclic := make([]bool, k)
	for id := range int32(k) {
		cyclic[id] = len(s.Members(id)) > 1
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
	outOff, flatOut, flatSup := s.OutRows()
	inOff, flatIn := s.InRows()
	if len(outOff) != k+1 || len(inOff) != k+1 || len(s.Cyclic) != k {
		t.Fatalf("%s: %d components, row offsets %d/%d, flags %d", what, k, len(outOff), len(inOff), len(s.Cyclic))
	}
	var wantOut, wantSup, wantIn []int32
	for a := range k {
		slices.Sort(out[a])
		slices.Sort(in[a])
		sup := make([]int32, len(out[a]))
		for i, b := range out[a] {
			sup[i] = support[[2]int32{int32(a), b}]
		}
		id := int32(a)
		if !slices.Equal(s.Out(id), out[a]) || !slices.Equal(s.Support(id), sup) || !slices.Equal(s.In(id), in[a]) {
			t.Fatalf("%s: component %d has out %v support %v in %v, want %v %v %v",
				what, a, s.Out(id), s.Support(id), s.In(id), out[a], sup, in[a])
		}
		for _, row := range [][]int32{s.Out(id), s.Support(id), s.In(id)} {
			if cap(row) != len(row) {
				t.Fatalf("%s: a row of component %d has capacity %d beyond its %d entries", what, a, cap(row), len(row))
			}
		}
		if s.Cyclic[a] != cyclic[a] {
			t.Fatalf("%s: component %d cyclic %v, want %v", what, a, s.Cyclic[a], cyclic[a])
		}
		wantOut, wantSup, wantIn = append(wantOut, out[a]...), append(wantSup, sup...), append(wantIn, in[a]...)
	}
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

// workload is a benchmark graph with the number of batches its write list
// applies before the measurement.
type workload struct {
	d        gen.Dataset
	writes   int
	maxBytes uint64 // what TarjanCSR may allocate on it
}

// coldBuilds are the benchmark's two graphs after their write lists:
// social16 after write-mono's 120 seed-1 batches, webcore16 after
// read-inproc's 36. Every open, tail recovery and promotion runs TarjanCSR
// over such a graph. The byte bounds are the measured values plus 10 %:
// 1 240 368 B and 722 128 B (the worst at GOMAXPROCS 1, 2 and 4), against
// 2 525 696 B and 1 274 448 B when every row also had a slice header in a
// [][] table beside its flat array.
var coldBuilds = []workload{
	{gen.Dataset{Name: "social16", V: 15500, E: 79600, Labels: 16, Kind: gen.KindSocial}, 120, 1_364_500},
	{gen.Dataset{Name: "webcore16", V: 16300, E: 75000, Labels: 16, Kind: gen.KindWebCore}, 36, 794_400},
}

// writtenGraph is w's graph after its write list, drawn as
// benchmark/workloads.go draws it.
func writtenGraph(w workload) *graph.Graph {
	g := w.d.Build(1)
	rng := rand.New(rand.NewSource(1 ^ 0x5eed))
	for range w.writes {
		g.Apply(gen.RandomBatch(rng, g, 32, 0.5))
	}
	return g
}

// TestTarjanCondensationMatchesReference holds TarjanCSR's condensation to
// the edge-by-edge count of checkCondensation on coldBuilds' graphs, on
// random graphs with self-loops, on the empty graph and on a single SCC.
// dynscc's own differentials take graph.Tarjan as their oracle, so they
// cannot judge it.
func TestTarjanCondensationMatchesReference(t *testing.T) {
	for _, w := range coldBuilds {
		checkCondensation(t, w.d.Name, writtenGraph(w).Freeze())
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

// condensed keeps what TarjanCSR returns on the heap, as a caller's
// condensation is.
var condensed *graph.SCC

// TestTarjanAllocates gates the bytes TarjanCSR allocates on coldBuilds'
// graphs: each row stored once, in a flat array with per-component
// offsets. Allocation is deterministic, so this needs no clock.
func TestTarjanAllocates(t *testing.T) {
	for _, w := range coldBuilds {
		c := writtenGraph(w).Freeze()
		var before, after runtime.MemStats
		worst := uint64(0)
		for range 3 {
			runtime.ReadMemStats(&before)
			condensed = graph.TarjanCSR(c)
			runtime.ReadMemStats(&after)
			worst = max(worst, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s: TarjanCSR allocates %d B over %d components (%.1f B per node of G)",
			w.d.Name, worst, condensed.NumComponents(), float64(worst)/float64(c.NumNodes()))
		if worst > w.maxBytes {
			t.Errorf("%s: TarjanCSR allocates %d B, want at most %d", w.d.Name, worst, w.maxBytes)
		}
	}
}

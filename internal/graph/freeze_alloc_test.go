package graph_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// thawed keeps what Thaw returns on the heap, as a caller's graph is.
var thawed *graph.Graph

// TestFreezeThawAllocateConstant gates the hand-over between a Graph and
// its snapshots on social16 (benchmark/workloads.go): Freeze of a written
// graph and Thaw of a snapshot each allocate a constant, with no term per
// node or edge, and the first write after a Freeze allocates at most the
// graph's two row tables, which it takes back from the snapshot, plus one
// page. Allocation counts are deterministic, so this needs no wall clock.
func TestFreezeThawAllocateConstant(t *testing.T) {
	d := gen.Dataset{Name: "social16", V: 15500, E: 79600, Labels: 16, Kind: gen.KindSocial}
	g := d.Build(1).Clone()
	n := g.NumNodes()
	const page, handOver = 8192, 1024
	rowTables := 2 * ((8*n + page - 1) / page * page)
	rng := rand.New(rand.NewSource(1))
	var before, after runtime.MemStats
	measure := func(fn func()) int {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return int(after.TotalAlloc - before.TotalAlloc)
	}
	worstFreeze, worstThaw, worstWrite := 0, 0, 0
	for round := 0; round < 50; round++ {
		var c *graph.CSR
		worstFreeze = max(worstFreeze, measure(func() { c = g.Freeze() }))
		var u, v graph.Node
		for {
			u, v = graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n))
			if !g.HasEdge(u, v) {
				break
			}
		}
		worstWrite = max(worstWrite, measure(func() { g.AddEdge(u, v) }))
		worstThaw = max(worstThaw, measure(func() { thawed = c.Thaw() }))
		if thawed.NumEdges() != c.NumEdges() {
			t.Fatal("a thawed snapshot lost edges")
		}
	}
	t.Logf("over 50 rounds on %d nodes and %d edges: Freeze allocates at most %d B, Thaw %d B, the first write after a Freeze %d B (row tables %d B)",
		n, g.NumEdges(), worstFreeze, worstThaw, worstWrite, rowTables)
	if worstFreeze > handOver || worstThaw > handOver {
		t.Errorf("Freeze allocates %d B and Thaw %d B, want at most %d each", worstFreeze, worstThaw, handOver)
	}
	if worstWrite > rowTables+page {
		t.Errorf("the first write after a Freeze allocates %d B, want at most %d", worstWrite, rowTables+page)
	}
}

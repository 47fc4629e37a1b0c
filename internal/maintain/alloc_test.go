package maintain

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Bytes New may allocate: the measured value plus 10 %. Measured at
// 12 233 792 B on social16 and 9 996 728 B on webcore16 (the worst of
// three builds at GOMAXPROCS 1, 2 and 4), against 19 404 568 B and
// 11 915 840 B when the condensation came from one sorted array of
// component pairs and the reach kernel's arena grew by copying.
const (
	socialBuildBytes  = 13_458_000
	webcoreBuildBytes = 10_997_000
)

// TestColdBuildAllocates gates the bytes New allocates — the condensation,
// incRCM and incPCM built from scratch, which every open, tail recovery,
// materialize and promotion pays — on the benchmark's two graphs after
// their write lists: social16 after write-mono's 120 seed-1 batches and
// webcore16 after read-inproc's 36, drawn as benchmark/workloads.go draws
// them. The bounds are the measured values plus 10 %. Allocation is
// deterministic, so this needs no clock.
func TestColdBuildAllocates(t *testing.T) {
	for _, c := range []struct {
		d        gen.Dataset
		writes   int
		maxBytes uint64
	}{
		{gen.Dataset{Name: "social16", V: 15500, E: 79600, Labels: 16, Kind: gen.KindSocial}, 120, socialBuildBytes},
		{gen.Dataset{Name: "webcore16", V: 16300, E: 75000, Labels: 16, Kind: gen.KindWebCore}, 36, webcoreBuildBytes},
	} {
		t.Run(c.d.Name, func(t *testing.T) {
			g := c.d.Build(1)
			rng := rand.New(rand.NewSource(1 ^ 0x5eed))
			for range c.writes {
				g.Apply(gen.RandomBatch(rng, g, 32, 0.5))
			}
			worst := uint64(0)
			for range 3 {
				worst = max(worst, buildBytes(g.Clone()))
			}
			t.Logf("New allocates %d B (%.1f per node of G)", worst, float64(worst)/float64(g.NumNodes()))
			if worst > c.maxBytes {
				t.Errorf("New allocates %d B, want at most %d", worst, c.maxBytes)
			}
		})
	}
}

// buildBytes returns the bytes New(g) allocates.
func buildBytes(g *graph.Graph) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := New(g, nil)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)
	return after.TotalAlloc - before.TotalAlloc
}

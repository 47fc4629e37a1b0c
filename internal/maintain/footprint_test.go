package maintain

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// Bytes per node of G the condensation's and incRCM's tables may hold after
// write-mono's inputs: the measured value plus 10 %. Measured on social16
// after its 120 batches (12 418 component slots), in bytes per node: the
// condensation 91.9 and incRCM 70.0, with one 28-byte record per component
// slot over row arenas and blocks as linked lists over component ids;
// 162.4 and 87.5 with a 104-byte record of four slices per slot and a slice
// per block, counted the same way.
const (
	sccBytesPerNode   = 101
	reachBytesPerNode = 77
)

// TestFootprintPerNode replays write-mono's inputs for its seed 1 — social16
// built with graph seed 1, then 120 batches of 32 updates, half insertions,
// drawn as benchmark/workloads.go draws them — and holds the bytes the
// condensation and incRCM keep, per node of G, to the bounds above. A count
// of capacities, not a heap reading, so it repeats exactly.
func TestFootprintPerNode(t *testing.T) {
	social16 := gen.Dataset{Name: "social16", V: 15500, E: 79600, Labels: 16, Kind: gen.KindSocial}
	g := social16.Build(1)
	mirror := g.Clone()
	p := New(g, nil)
	rng := rand.New(rand.NewSource(1 ^ 0x5eed))
	for range 120 {
		b := gen.RandomBatch(rng, mirror, 32, 0.5)
		mirror.Apply(b)
		p.Apply(b)
	}
	scc, reach := p.Footprints()
	n := float64(g.NumNodes())
	t.Logf("condensation %d B (%.1f per node), incRCM %d B (%.1f per node), %d component slots",
		scc, float64(scc)/n, reach, float64(reach)/n, p.cond.NumSlots())
	if float64(scc)/n > sccBytesPerNode {
		t.Errorf("the condensation holds %.1f B per node of G, want at most %d", float64(scc)/n, sccBytesPerNode)
	}
	if float64(reach)/n > reachBytesPerNode {
		t.Errorf("incRCM holds %.1f B per node of G, want at most %d", float64(reach)/n, reachBytesPerNode)
	}
}

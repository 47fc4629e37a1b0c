package store

import (
	"math/rand"
	"os"
	"testing"

	"repro/internal/gen"
)

// maxCheckpointBytesPerEdge bounds a checkpoint's size per edge of G on
// the write-mono inputs: the measured 4.56 B plus 10 %. A checkpoint that
// stored both row directions of every CSR, the pattern member rows and
// every int32 block at four bytes took 18.9 B.
const maxCheckpointBytesPerEdge = 5.0

// TestCheckpointBytesPerEdge gates what a checkpoint writes on the
// benchmark's write-mono inputs (benchmark/workloads.go): social16 and the
// 120 batches of 32 updates seed 1 draws, checkpointed after the last. A
// checkpoint holds the successor side of G and of both quotients and the
// node maps, each int32 block at the narrowest width that holds it; the
// predecessor sides and the pattern members are derived on load. The size
// is deterministic; it runs with the other regression smokes, behind
// QPGC_BENCH_SMOKE.
func TestCheckpointBytesPerEdge(t *testing.T) {
	if os.Getenv("QPGC_BENCH_SMOKE") == "" {
		t.Skip("set QPGC_BENCH_SMOKE=1 to run the benchmark regression smoke")
	}
	g := social16.Build(1)
	mirror := g.Clone()
	dir := t.TempDir()
	s := mustOpen(t, g, &Options{Dir: dir, Sync: SyncNone})
	defer s.Close()
	rng := rand.New(rand.NewSource(1 ^ 0x5eed)) // the benchmark's draw for seed 1
	for range 120 {
		b := gen.RandomBatch(rng, mirror, 32, 0.5)
		mirror.Apply(b)
		if _, err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	perEdge := float64(info.SnapshotBytes) / float64(mirror.NumEdges())
	t.Logf("checkpoint at epoch %d: %d B for %d edges of G, %.2f B per edge", info.Epoch, info.SnapshotBytes, mirror.NumEdges(), perEdge)
	if perEdge > maxCheckpointBytesPerEdge {
		t.Errorf("the checkpoint takes %.2f B per edge of G, want at most %.1f", perEdge, maxCheckpointBytesPerEdge)
	}
}

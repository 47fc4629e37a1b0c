package store

import (
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// maxCheckpointBytesPerEdge bounds a checkpoint's size per edge of G on
// the write-mono inputs: the measured 4.56 B plus 10 %. A checkpoint that
// stored both row directions of every CSR, the pattern member rows and
// every int32 block at four bytes took 18.9 B.
const maxCheckpointBytesPerEdge = 5.0

// maxEffectBytesPerGroup bounds the mean diff a leader ships per group on
// the write-mono inputs: the measured 8 989 B plus 10 %. The diff that
// wrote every id in four bytes took 16 254 B.
const maxEffectBytesPerGroup = 9888

// writeMono applies the benchmark's write-mono inputs (benchmark/workloads.go)
// to a store opened on social16 with opts: the 120 batches of 32 updates
// seed 1 draws, one group each. each, when not nil, is called once with a
// nil snapshot before the first group, then after every group with the
// snapshot before it. It returns the store and the graph the batches made.
func writeMono(t testing.TB, opts *Options, each func(s *Store, before *Snapshot)) (*Store, *graph.Graph) {
	if os.Getenv("QPGC_BENCH_SMOKE") == "" {
		t.Skip("set QPGC_BENCH_SMOKE=1 to run the benchmark regression smoke")
	}
	g := social16.Build(1)
	mirror := g.Clone()
	s := mustOpen(t, g, opts)
	rng := rand.New(rand.NewSource(1 ^ 0x5eed)) // the benchmark's draw for seed 1
	if each != nil {
		each(s, nil)
	}
	for range 120 {
		b := gen.RandomBatch(rng, mirror, 32, 0.5)
		mirror.Apply(b)
		before := s.Snapshot()
		if _, err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
		if each != nil {
			each(s, before)
		}
	}
	return s, mirror
}

// TestCheckpointBytesPerEdge gates what a checkpoint writes on the
// write-mono inputs, checkpointed after the last batch. A checkpoint holds
// the successor side of G and of both quotients and the node maps, each
// int32 block at the narrowest width that holds it; the predecessor sides
// and the pattern members are derived on load. The size is deterministic;
// it runs with the other regression smokes, behind QPGC_BENCH_SMOKE.
func TestCheckpointBytesPerEdge(t *testing.T) {
	dir := t.TempDir()
	s, mirror := writeMono(t, &Options{Dir: dir, Sync: SyncNone}, nil)
	defer s.Close()
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

// TestEffectBytesPerGroup gates the diffs a leader ships on the write-mono
// inputs: the mean frame over the 120 groups, each a diff with the views'
// change at snapfile's narrowest widths. It logs how long a follower takes
// to decode one, the best of five passes over all of them. The sizes are
// deterministic; it runs with the other regression smokes, behind
// QPGC_BENCH_SMOKE.
func TestEffectBytesPerGroup(t *testing.T) {
	var diffs [][]byte
	reachParts := 0
	s, _ := writeMono(t, nil, func(s *Store, before *Snapshot) {
		if before == nil {
			s.Effects(0, 0) // the first call turns recording on
			return
		}
		effs := s.Effects(before.Lineage, before.Epoch)
		if len(effs) != 1 || effs[0].Image {
			t.Fatalf("epoch %d: %d effects, want one diff", before.Epoch, len(effs))
		}
		diffs = append(diffs, effs[0].Bytes)
	})
	defer s.Close()
	total := 0
	for _, b := range diffs {
		total += len(b)
		if ef, err := decodeEffect(b); err != nil {
			t.Fatal(err)
		} else if ef.diff.Reach != nil {
			reachParts++
		}
	}
	var best time.Duration
	for pass := range 5 {
		start := time.Now()
		for _, b := range diffs {
			decodeEffect(b)
		}
		if d := time.Since(start); pass == 0 || d < best {
			best = d
		}
	}
	mean := float64(total) / float64(len(diffs))
	t.Logf("%d diffs (%d with a reach part): %.0f B each on average, decoded in %.1f µs", len(diffs), reachParts, mean,
		float64(best.Nanoseconds())/float64(len(diffs))/1e3)
	if mean > maxEffectBytesPerGroup {
		t.Errorf("a diff takes %.0f B on average, want at most %d", mean, maxEffectBytesPerGroup)
	}
}

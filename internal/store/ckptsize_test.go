package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/snapfile"
)

// maxCheckpointBytesPerEdge bounds a checkpoint's size per edge of G on
// the write-mono inputs, and maxWebcoreCheckpointBytesPerEdge on the
// read-inproc inputs: the measured 2.33 and 2.39 B plus 10 %. One that
// stored the rows as ids and every int32 block at one, two or four bytes
// took 3.27 and 3.42 B; one that also stored the pattern quotient and the
// label ids of the reach quotient's one-name table 4.56 and 5.68 B; one
// that also stored both row directions of every CSR, the pattern member
// rows and every int32 block at four bytes 18.9 B on write-mono's.
const (
	maxCheckpointBytesPerEdge        = 2.6
	maxWebcoreCheckpointBytesPerEdge = 2.7
)

// maxEffectBytesPerGroup bounds the mean diff a leader ships per group on
// the write-mono inputs: the measured 4 951 B plus 10 % (32 updates a
// group). The diff that carried its batches as blocks of ids and flags and
// stored its reach quotient's rows as ids took 7 289 B, the one before it
// carried its batches 7 057 B, the one that shipped the rebuilt pattern
// rows 7 883 B, the one that also wrote the label ids of the reach
// quotient's one-name table 8 989 B, the one that wrote every id in four
// bytes 16 254 B.
const maxEffectBytesPerGroup = 5446

// webcore16 is the benchmark's read-heavy graph (benchmark/workloads.go).
var webcore16 = gen.Dataset{Name: "webcore16", V: 16300, E: 75000, Labels: 16, Kind: gen.KindWebCore}

// benchInput is one of the benchmark's write lists (benchmark/workloads.go):
// a graph and how many batches of 32 updates seed 1 draws on it.
type benchInput struct {
	d      gen.Dataset
	writes int
}

var (
	writeMonoInput  = benchInput{social16, 120}
	readInprocInput = benchInput{webcore16, 36}
)

// writeMono applies the benchmark's write-mono inputs to a store opened on
// social16 with opts, behind QPGC_BENCH_SMOKE; see applyInput.
func writeMono(t testing.TB, opts *Options, each func(s *Store, before *Snapshot)) (*Store, *graph.Graph) {
	if os.Getenv("QPGC_BENCH_SMOKE") == "" {
		t.Skip("set QPGC_BENCH_SMOKE=1 to run the benchmark regression smoke")
	}
	return applyInput(t, writeMonoInput, opts, each)
}

// applyInput applies a benchmark write list to a store opened on its graph
// with opts, one group a batch. each, when not nil, is called once with a
// nil snapshot before the first group, then after every group with the
// snapshot before it. It returns the store and the graph the batches made.
func applyInput(t testing.TB, in benchInput, opts *Options, each func(s *Store, before *Snapshot)) (*Store, *graph.Graph) {
	g := in.d.Build(1)
	mirror := g.Clone()
	s := mustOpen(t, g, opts)
	rng := rand.New(rand.NewSource(1 ^ 0x5eed)) // the benchmark's draw for seed 1
	if each != nil {
		each(s, nil)
	}
	for range in.writes {
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
// write-mono and the read-inproc inputs, checkpointed after the last batch.
// A checkpoint holds the successor side of G and of the reach quotient, its
// rows as Rice-coded gaps, and both node maps, each int32 block at the
// exact bit width that holds it; the predecessor sides, the pattern
// quotient and its members are derived on load. Each logs how long the file takes to decode, the best of five.
// The sizes are deterministic; they run with the other regression smokes,
// behind QPGC_BENCH_SMOKE.
func TestCheckpointBytesPerEdge(t *testing.T) {
	if os.Getenv("QPGC_BENCH_SMOKE") == "" {
		t.Skip("set QPGC_BENCH_SMOKE=1 to run the benchmark regression smoke")
	}
	for _, c := range []struct {
		in      benchInput
		maxEdge float64
	}{{writeMonoInput, maxCheckpointBytesPerEdge}, {readInprocInput, maxWebcoreCheckpointBytesPerEdge}} {
		t.Run(c.in.d.Name, func(t *testing.T) {
			dir := t.TempDir()
			s, mirror := applyInput(t, c.in, &Options{Dir: dir, Sync: SyncNone}, nil)
			defer s.Close()
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			info, err := Inspect(dir)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(dir, info.Snapshot))
			if err != nil {
				t.Fatal(err)
			}
			var best time.Duration
			for pass := range 5 {
				start := time.Now()
				if _, err := snapfile.DecodeStore(data); err != nil {
					t.Fatal(err)
				}
				if d := time.Since(start); pass == 0 || d < best {
					best = d
				}
			}
			perEdge := float64(info.SnapshotBytes) / float64(mirror.NumEdges())
			t.Logf("checkpoint at epoch %d: %d B for %d edges of G, %.2f B per edge, decoded in %.2f ms",
				info.Epoch, info.SnapshotBytes, mirror.NumEdges(), perEdge, float64(best.Microseconds())/1e3)
			if perEdge > c.maxEdge {
				t.Errorf("the checkpoint takes %.2f B per edge of G, want at most %.1f", perEdge, c.maxEdge)
			}
		})
	}
}

// TestDerivedPatternViewRoundTrip: a checkpoint and an image hold no
// pattern quotient; their decode derives it from G and the block map. On
// the write-mono and the read-inproc inputs, a store checkpointed after the
// last batch and reopened with an empty WAL tail, and a store opened on an
// image of the same snapshot, serve the snapshot closed array for array:
// both sides of both quotients, the node maps, the members.
func TestDerivedPatternViewRoundTrip(t *testing.T) {
	for _, in := range []benchInput{writeMonoInput, readInprocInput} {
		t.Run(in.d.Name, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := applyInput(t, in, &Options{Dir: dir, Sync: SyncNone}, nil)
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			before := s.Snapshot()
			img := encodeImage(before)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r := mustOpen(t, nil, &Options{Dir: dir, Sync: SyncNone})
			defer r.Close()
			if got := r.Snapshot(); got.Epoch != before.Epoch {
				t.Fatalf("recovered epoch %d, closed at %d", got.Epoch, before.Epoch)
			}
			sameArrays(t, "recovered", r.Snapshot(), before)
			f, err := OpenImage(img, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			sameViews(t, "image", f.Snapshot(), before)
		})
	}
}

// TestEffectBytesPerGroup gates the diffs a leader ships on the write-mono
// inputs: the mean frame over the 120 groups, each a diff with its batches
// in the batch codec and the views' change at snapfile's bit widths. It
// logs how long a follower takes to decode one, the best of five passes
// over all of them. The sizes are deterministic; it runs with the other
// regression smokes, behind QPGC_BENCH_SMOKE.
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

// codecInputs are the checkpoints the benchmark's write-mono and
// read-inproc runs take: at epochs 116 and 32 of their write lists.
var codecInputs = []struct {
	in    benchInput
	epoch uint64
}{{writeMonoInput, 116}, {readInprocInput, 32}}

// checkpointParts returns the parts a checkpoint of in's store writes at
// epoch.
func checkpointParts(b *testing.B, in benchInput, epoch uint64) *snapfile.StoreParts {
	var parts *snapfile.StoreParts
	s, _ := applyInput(b, in, nil, func(s *Store, _ *Snapshot) {
		if sn := s.Snapshot(); sn.Epoch == epoch {
			parts = storeParts(sn)
		}
	})
	s.Close()
	return parts
}

// BenchmarkEncodeStore times encoding the benchmark's checkpoints, per edge
// of G: what a checkpoint and an image each pay before they write or ship.
func BenchmarkEncodeStore(b *testing.B) {
	for _, c := range codecInputs {
		b.Run(c.in.d.Name, func(b *testing.B) {
			p := checkpointParts(b, c.in, c.epoch)
			b.SetBytes(int64(len(snapfile.EncodeStore(p))))
			b.ResetTimer()
			for range b.N {
				snapfile.EncodeStore(p)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p.G.NumEdges()), "ns/edge")
		})
	}
}

// BenchmarkDecodeStore times decoding the benchmark's checkpoints, both
// views included, per edge of G: what a recovery with an empty WAL tail and
// a follower's image install each pay.
func BenchmarkDecodeStore(b *testing.B) {
	for _, c := range codecInputs {
		b.Run(c.in.d.Name, func(b *testing.B) {
			p := checkpointParts(b, c.in, c.epoch)
			data := snapfile.EncodeStore(p)
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for range b.N {
				if _, err := snapfile.DecodeStore(data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p.G.NumEdges()), "ns/edge")
		})
	}
}

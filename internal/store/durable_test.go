package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// tearWAL simulates the writer dying mid-append of an unacknowledged
// batch: a partial record frame (a plausible size header followed by
// truncated garbage) lands at the tail of the newest WAL segment, exactly
// the disk image a crash between write(2) and completion leaves behind.
func tearWAL(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s (%v)", dir, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	// Size header claims 64 body bytes; only 5 arrive.
	if _, err := f.Write([]byte{64, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05}); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// testPattern builds a 2-node pattern over the generated label alphabet.
func testPattern() *pattern.Pattern {
	pt := pattern.New()
	a := pt.AddNode("L0")
	b := pt.AddNode("L1")
	pt.AddEdge(a, b, 2)
	return pt
}

// diffStoreVsReference pins the recovered monolithic store to an
// uninterrupted reference: sampled reachability on both paths plus one
// pattern match.
func diffStoreVsReference(t *testing.T, name string, got *Store, mirror *graph.Graph) {
	t.Helper()
	ref := mustOpen(t, mirror.Clone(), nil)
	defer ref.Close()
	n := mirror.NumNodes()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 400; i++ {
		u := graph.Node(rng.Intn(n))
		v := graph.Node(rng.Intn(n))
		if g, w := got.Reachable(u, v), ref.Reachable(u, v); g != w {
			t.Fatalf("%s: QR(%d,%d) = %v on recovered store, %v on reference", name, u, v, g, w)
		}
		if g, w := got.ReachableOnG(u, v), ref.ReachableOnG(u, v); g != w {
			t.Fatalf("%s: QR(%d,%d) on G = %v recovered, %v reference", name, u, v, g, w)
		}
	}
	if !sameResultSets(got.Match(testPattern()), ref.Match(testPattern())) {
		t.Fatalf("%s: pattern match diverged between recovered store and reference", name)
	}
}

// diffShardedVsReference is the sharded twin of diffStoreVsReference.
func diffShardedVsReference(t *testing.T, name string, got *ShardedStore, mirror *graph.Graph) {
	t.Helper()
	ref := mustOpen(t, mirror.Clone(), nil)
	defer ref.Close()
	n := mirror.NumNodes()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 400; i++ {
		u := graph.Node(rng.Intn(n))
		v := graph.Node(rng.Intn(n))
		if g, w := got.Reachable(u, v), ref.Reachable(u, v); g != w {
			t.Fatalf("%s: QR(%d,%d) = %v on recovered sharded store, %v on reference", name, u, v, g, w)
		}
	}
	if !sameResultSets(got.Match(testPattern()), ref.Match(testPattern())) {
		t.Fatalf("%s: pattern match diverged between recovered sharded store and reference", name)
	}
}

// TestCrashRecoveryStore is the durability acceptance test for the
// monolithic store, on every generated topology: acked batches must
// survive a crash (read-your-writes after reopen, differentially equal to
// an uninterrupted store), the torn tail of an unacked batch must be
// dropped, and recovery — which folds the WAL tail into the checkpointed
// graph and compresses once, instead of replaying it batch by batch — must
// land on the uninterrupted run's state: same graph, same quotients.
func TestCrashRecoveryStore(t *testing.T) {
	for name, g := range shardedTopologies(21) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			mirror := g.Clone()
			s, err := Open(g.Clone(), &Options{Indexes: true, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))

			// Phase 1: acked batches, then a checkpoint folding them in.
			for i := 0; i < 3; i++ {
				batch := gen.RandomBatch(rng, mirror, 20, 0.5)
				mirror.Apply(batch)
				if _, err := s.ApplyBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// Phase 2: more acked batches that live only in the WAL tail.
			for i := 0; i < 4; i++ {
				batch := gen.RandomBatch(rng, mirror, 20, 0.5)
				mirror.Apply(batch)
				if _, err := s.ApplyBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
			want := s.Stats()
			s.Close()
			// Phase 3: the crash tears a half-written, never-acked batch
			// onto the log tail.
			tearWAL(t, dir)

			r, err := Open(nil, &Options{Dir: dir})
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			defer r.Close()
			got := r.Stats()
			if got.Epoch != 7 {
				t.Fatalf("recovered epoch %d, want 7 (3 checkpointed + 4 in the tail, torn batch dropped)", got.Epoch)
			}
			if r.m == nil {
				t.Fatal("a WAL tail must leave the recovered store with live maintainers")
			}
			if got.Edges != want.Edges || got.ReachClasses != want.ReachClasses || got.PatternClasses != want.PatternClasses ||
				got.ReachRatio != want.ReachRatio || got.PatternRatio != want.PatternRatio {
				t.Fatalf("recovered state %+v differs from the uninterrupted run's %+v", got, want)
			}
			diffStoreVsReference(t, name, r, mirror)

			// The recovered store must keep accepting writes.
			batch := gen.RandomBatch(rng, mirror, 10, 0.5)
			mirror.Apply(batch)
			if _, err := r.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
			diffStoreVsReference(t, name+"+write", r, mirror)
		})
	}
}

// TestCrashRecoverySharded is the sharded twin: the epoch vector (per-
// shard views, boundary summary, stitched quotient) recovers from the
// checkpoint, the WAL tail is routed — cross-shard updates to the
// coordinator, the rest folded into the shard graphs before their
// pipelines are built — and the torn tail is dropped.
func TestCrashRecoverySharded(t *testing.T) {
	for name, g := range shardedTopologies(22) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			mirror := g.Clone()
			s, err := OpenSharded(g.Clone(), &ShardedOptions{Shards: 3, Indexes: true, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(6))
			for i := 0; i < 3; i++ {
				batch := gen.RandomBatch(rng, mirror, 25, 0.5)
				mirror.Apply(batch)
				if _, err := s.ApplyBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				batch := gen.RandomBatch(rng, mirror, 25, 0.5)
				mirror.Apply(batch)
				if _, err := s.ApplyBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
			want := s.Stats()
			s.Close()
			tearWAL(t, dir)

			r, err := OpenSharded(nil, &ShardedOptions{Dir: dir})
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			defer r.Close()
			st := r.Stats()
			if st.Epoch != 7 {
				t.Fatalf("recovered epoch %d, want 7", st.Epoch)
			}
			if st.Edges != want.Edges || st.CrossEdges != want.CrossEdges || st.Boundary != want.Boundary ||
				st.SummaryEdges != want.SummaryEdges || st.ReachClasses != want.ReachClasses || st.StitchClasses != want.StitchClasses {
				t.Fatalf("recovered state %+v differs from the uninterrupted run's %+v", st, want)
			}
			if st.Shards != 3 {
				t.Fatalf("recovered %d shards, want 3 (snapshot's k must win)", st.Shards)
			}
			diffShardedVsReference(t, name, r, mirror)

			batch := gen.RandomBatch(rng, mirror, 15, 0.5)
			mirror.Apply(batch)
			if _, err := r.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
			diffShardedVsReference(t, name+"+write", r, mirror)
		})
	}
}

// TestSnapshotLoadIsLazy pins the warm-restart contract: recovering a
// checkpointed directory with an empty WAL tail builds no maintainer state
// at all — reads serve from the loaded snapshot — and the first write
// materializes the maintainers without changing any answer.
func TestSnapshotLoadIsLazy(t *testing.T) {
	g := gen.Social(rand.New(rand.NewSource(3)), 250, 1000, 4)
	mirror := g.Clone()
	dir := t.TempDir()
	s, err := Open(g, &Options{Indexes: true, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 3; i++ {
		batch := gen.RandomBatch(rng, mirror, 30, 0.5)
		mirror.Apply(batch)
		if _, err := s.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r, err := Open(nil, &Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.m != nil {
		t.Fatal("maintainers built during a clean snapshot load (lazy path broken)")
	}
	if sn := r.Snapshot(); sn.Reach.Index == nil {
		t.Fatal("recovered snapshot lost its 2-hop index")
	}
	diffStoreVsReference(t, "lazy", r, mirror)
	if r.m != nil {
		t.Fatal("reads must not materialize the maintainers")
	}

	batch := gen.RandomBatch(rng, mirror, 10, 0.5)
	mirror.Apply(batch)
	if _, err := r.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	if r.m == nil {
		t.Fatal("first write did not materialize the maintainers")
	}
	diffStoreVsReference(t, "lazy+write", r, mirror)
}

// TestShardedSnapshotLoadIsLazy is the sharded twin: no shard workers
// until the first write.
func TestShardedSnapshotLoadIsLazy(t *testing.T) {
	g := gen.Web(rand.New(rand.NewSource(8)), 220, 800, 4)
	mirror := g.Clone()
	dir := t.TempDir()
	s, err := OpenSharded(g, &ShardedOptions{Shards: 3, Indexes: true, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r, err := OpenSharded(nil, &ShardedOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.workers != nil {
		t.Fatal("shard workers built during a clean snapshot load (lazy path broken)")
	}
	diffShardedVsReference(t, "lazy", r, mirror)
	batch := gen.RandomBatch(rand.New(rand.NewSource(9)), mirror, 20, 0.5)
	mirror.Apply(batch)
	if _, err := r.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	if r.workers == nil {
		t.Fatal("first write did not materialize the shard workers")
	}
	diffShardedVsReference(t, "lazy+write", r, mirror)
}

// TestBackgroundCheckpoint drives enough batches through a small
// CheckpointBatches threshold to trigger background checkpoints and
// verifies the manifest advances and the WAL is truncated.
func TestBackgroundCheckpoint(t *testing.T) {
	g := gen.Social(rand.New(rand.NewSource(11)), 150, 600, 3)
	mirror := g.Clone()
	dir := t.TempDir()
	s, err := Open(g, &Options{Indexes: false, Dir: dir, CheckpointBatches: 4, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 12; i++ {
		batch := gen.RandomBatch(rng, mirror, 10, 0.5)
		mirror.Apply(batch)
		if _, err := s.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	// Background checkpoints are asynchronous; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		info, err := Inspect(dir)
		if err != nil {
			t.Fatal(err)
		}
		if info.Epoch >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no background checkpoint after 12 batches (manifest epoch %d)", info.Epoch)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 12 {
		t.Fatalf("manifest epoch %d after explicit checkpoint, want 12", info.Epoch)
	}
	// Only the checkpoint-covered prefix may be dropped, and only whole
	// sealed segments; the directory must hold exactly one snapshot.
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.qps"))
	if len(snaps) != 1 {
		t.Fatalf("%d snapshot files after checkpoint, want 1", len(snaps))
	}
}

// TestDurableOpenErrors pins the Open/OpenSharded contract around
// existing state.
func TestDurableOpenErrors(t *testing.T) {
	g := gen.P2P(rand.New(rand.NewSource(13)), 100, 300, 2)
	dir := t.TempDir()
	s, err := Open(g.Clone(), &Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	if _, err := Open(g.Clone(), &Options{Dir: dir}); !errors.Is(err, ErrStateExists) {
		t.Fatalf("Open with graph over existing state: %v, want ErrStateExists", err)
	}
	if _, err := OpenSharded(nil, &ShardedOptions{Dir: dir}); err == nil {
		t.Fatal("OpenSharded recovered a monolithic directory")
	}
	if _, err := Open(nil, &Options{Dir: t.TempDir()}); err == nil {
		t.Fatal("Open(nil) succeeded on an empty directory")
	}
	if _, err := Open(nil, nil); err == nil {
		t.Fatal("Open(nil) succeeded with no Dir")
	}

	r, err := Open(nil, &Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mem := mustOpen(t, g.Clone(), nil)
	defer mem.Close()
	if err := mem.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("in-memory Checkpoint: %v, want ErrNotDurable", err)
	}
}

// copyDir snapshots the durable directory's current byte state into a
// fresh directory — taken *while* the writer streams, it captures
// arbitrary mid-write instants, including half-appended WAL records,
// exactly like pulling the plug at that moment.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCrashCaptureMidStream kills the writer "mid-batch" by capturing the
// directory's on-disk state concurrently with a live write stream, then
// recovering each capture: with SyncAlways, every recovered state must be
// a clean batch-prefix of the run — epoch e with exactly the first e
// batches visible, differentially equal to a store that applied those e
// batches uninterrupted, any torn tail healed away.
func TestCrashCaptureMidStream(t *testing.T) {
	g := gen.Social(rand.New(rand.NewSource(31)), 200, 800, 4)
	dir := t.TempDir()
	s, err := Open(g.Clone(), &Options{
		Indexes: false, Dir: dir,
		CheckpointBatches: -1, CheckpointBytes: -1, // keep the snapshot fixed at epoch 0
	})
	if err != nil {
		t.Fatal(err)
	}

	// mirrors[e] is the graph after the first e batches.
	const batches = 8
	rng := rand.New(rand.NewSource(32))
	mirror := g.Clone()
	mirrors := []*graph.Graph{mirror.Clone()}
	stream := make([][]graph.Update, batches)
	for i := range stream {
		stream[i] = gen.RandomBatch(rng, mirror, 25, 0.5)
		mirror.Apply(stream[i])
		mirrors = append(mirrors, mirror.Clone())
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, b := range stream {
			if _, err := s.ApplyBatch(b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var captures []string
	for i := 0; i < 6; i++ {
		captures = append(captures, copyDir(t, dir))
		time.Sleep(2 * time.Millisecond)
	}
	<-done
	s.Close()
	captures = append(captures, copyDir(t, dir)) // final state too

	for i, cap := range captures {
		r, err := Open(nil, &Options{Dir: cap})
		if err != nil {
			t.Fatalf("capture %d failed to recover: %v", i, err)
		}
		e := r.Stats().Epoch
		if e > batches {
			t.Fatalf("capture %d recovered impossible epoch %d", i, e)
		}
		diffStoreVsReference(t, fmt.Sprintf("capture %d (epoch %d)", i, e), r, mirrors[e])
		r.Close()
	}
}

// TestDurableReadYourAckedWrites holds the core contract under a long
// random run with no checkpoints at all: every acked batch must be
// readable after reopen (pure WAL replay from epoch 0's snapshot).
func TestDurableReadYourAckedWrites(t *testing.T) {
	g := gen.Citation(rand.New(rand.NewSource(14)), 180, 650, 4)
	mirror := g.Clone()
	dir := t.TempDir()
	s, err := Open(g, &Options{Indexes: false, Dir: dir, CheckpointBatches: -1, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 10; i++ {
		batch := gen.RandomBatch(rng, mirror, 15, 0.5)
		mirror.Apply(batch)
		if _, err := s.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	r, err := Open(nil, &Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Stats().Epoch; got != 10 {
		t.Fatalf("epoch %d after replay-only recovery, want 10", got)
	}
	diffStoreVsReference(t, "replay-only", r, mirror)
}

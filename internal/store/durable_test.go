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
	"repro/internal/snapfile"
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

// TestCrashRecovery is the durability acceptance test for both store kinds,
// on every generated topology: acked batches must survive a crash
// (read-your-writes after reopen, differentially equal to an uninterrupted
// store), the torn tail of an unacked batch must be dropped, and recovery —
// which folds the WAL tail into the checkpointed graph(s) and compresses
// once, instead of replaying it batch by batch — must land on the
// uninterrupted run's state: same graph, same quotients; for the sharded
// kind the whole epoch vector (per-shard views, boundary summary, stitched
// quotient), with cross-shard updates of the tail routed to the coordinator.
func TestCrashRecovery(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		for name, g := range shardedTopologies(21) {
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				mirror := g.Clone()
				s := openKind(t, kind, g.Clone(), Options{Indexes: true, Dir: dir})
				rng := rand.New(rand.NewSource(5))

				// Phase 1: acked batches, then a checkpoint folding them in.
				for i := 0; i < 3; i++ {
					batch := gen.RandomBatch(rng, mirror, 20, 0.5)
					mirror.Apply(batch)
					if _, err := s.Apply(batch); err != nil {
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
					if _, err := s.Apply(batch); err != nil {
						t.Fatal(err)
					}
				}
				want := viewShape(s)
				s.Close()
				// Phase 3: the crash tears a half-written, never-acked batch
				// onto the log tail.
				tearWAL(t, dir)

				// openKind recovers with the entry point the manifest names, so the
				// snapshot's own shard count is what it checks.
				r := openKind(t, kind, nil, Options{Dir: dir})
				defer r.Close()
				if got := r.Epoch(); got != 7 {
					t.Fatalf("recovered epoch %d, want 7 (3 checkpointed + 4 in the tail, torn batch dropped)", got)
				}
				if !materialized(r) {
					t.Fatal("a WAL tail must leave the recovered store with live write-side state")
				}
				if got := viewShape(r); got != want {
					t.Fatalf("recovered state %+v differs from the uninterrupted run's %+v", got, want)
				}
				diffVsReference(t, name, r, mirror)

				// The recovered store must keep accepting writes.
				batch := gen.RandomBatch(rng, mirror, 10, 0.5)
				mirror.Apply(batch)
				if _, err := r.Apply(batch); err != nil {
					t.Fatal(err)
				}
				diffVsReference(t, name+"+write", r, mirror)
			})
		}
	})
}

// TestSnapshotLoadIsLazy pins the warm-restart contract: recovering a
// checkpointed directory with an empty WAL tail builds no write-side state
// at all — no maintainers, no shard writers; reads serve from the loaded
// snapshot — and the first write materializes it without changing any
// answer.
func TestSnapshotLoadIsLazy(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		g := gen.Social(rand.New(rand.NewSource(3)), 250, 1000, 4)
		mirror := g.Clone()
		dir := t.TempDir()
		s := openKind(t, kind, g, Options{Indexes: true, Dir: dir})
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 3; i++ {
			batch := gen.RandomBatch(rng, mirror, 30, 0.5)
			mirror.Apply(batch)
			if _, err := s.Apply(batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		s.Close()

		r := openKind(t, kind, nil, Options{Indexes: true, Dir: dir})
		defer r.Close()
		if materialized(r) {
			t.Fatal("write-side state built during a clean snapshot load (lazy path broken)")
		}
		if mono, ok := r.(*Store); ok && mono.Snapshot().Reach.Index() == nil {
			t.Fatal("recovered snapshot lost its 2-hop index")
		}
		diffVsReference(t, "lazy", r, mirror)
		if materialized(r) {
			t.Fatal("reads must not materialize the write-side state")
		}

		batch := gen.RandomBatch(rng, mirror, 10, 0.5)
		mirror.Apply(batch)
		if _, err := r.Apply(batch); err != nil {
			t.Fatal(err)
		}
		if !materialized(r) {
			t.Fatal("first write did not materialize the write-side state")
		}
		diffVsReference(t, "lazy+write", r, mirror)
	})
}

// TestTailRecoveryDecodesOnlyG pins what recovery reads of a checkpoint
// that a WAL tail follows: G alone, since the tail's publish rebuilds both
// views from it. The checkpoint is rewritten, checksum intact, with a
// pattern block map that mixes labels, which the views' decode refuses.
// With a tail behind it the store recovers anyway, equal to an
// uninterrupted run; once a checkpoint at the last epoch leaves the tail
// empty, the same rewrite is refused, because those views are installed.
func TestTailRecoveryDecodesOnlyG(t *testing.T) {
	g := gen.Social(rand.New(rand.NewSource(3)), 250, 1000, 4)
	mirror := g.Clone()
	dir := t.TempDir()
	s := mustOpen(t, g, &Options{Dir: dir})
	rng := rand.New(rand.NewSource(4))
	write := func(st *Store, batches int) {
		for range batches {
			batch := gen.RandomBatch(rng, mirror, 30, 0.5)
			mirror.Apply(batch)
			if _, err := st.Apply(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(s, 2)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	write(s, 3)
	s.Close()
	spoil := func() {
		t.Helper()
		info, err := Inspect(dir)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, info.Snapshot)
		parts, err := snapfile.LoadStore(path)
		if err != nil {
			t.Fatal(err)
		}
		clear(parts.PatternBlockOf)
		if err := snapfile.WriteStore(path, parts); err != nil {
			t.Fatal(err)
		}
	}

	spoil()
	r, err := Open(nil, &Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery with a WAL tail decoded the checkpoint's views: %v", err)
	}
	if got := r.Epoch(); got != 5 {
		t.Fatalf("recovered epoch %d, want 5 (2 checkpointed + 3 in the tail)", got)
	}
	diffVsReference(t, "tail", r, mirror)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r.Close()

	spoil()
	if r, err := Open(nil, &Options{Dir: dir}); !errors.Is(err, snapfile.ErrFormat) {
		if err == nil {
			r.Close()
		}
		t.Fatalf("recovery with an empty tail opened a checkpoint whose views do not decode: %v", err)
	}
}

// TestBackgroundCheckpoint drives enough batches through a small
// CheckpointBatches threshold to trigger background checkpoints and
// verifies the manifest advances and the WAL is truncated.
func TestBackgroundCheckpoint(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		g := gen.Social(rand.New(rand.NewSource(11)), 150, 600, 3)
		mirror := g.Clone()
		dir := t.TempDir()
		s := openKind(t, kind, g, Options{Indexes: false, Dir: dir, CheckpointBatches: 4, CheckpointBytes: -1})
		defer s.Close()
		rng := rand.New(rand.NewSource(12))
		for i := 0; i < 12; i++ {
			batch := gen.RandomBatch(rng, mirror, 10, 0.5)
			mirror.Apply(batch)
			if _, err := s.Apply(batch); err != nil {
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
	})
}

// TestCheckpointCatchesUp: with a checkpoint after every write, quick
// writes cross the threshold while a background checkpoint is in flight;
// the one that finishes asks again, so the MANIFEST reaches the last epoch
// with no further write.
func TestCheckpointCatchesUp(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		g := gen.Social(rand.New(rand.NewSource(13)), 400, 1600, 3)
		mirror := g.Clone()
		dir := t.TempDir()
		s := openKind(t, kind, g, Options{Dir: dir, Sync: SyncNone, CheckpointBatches: 1})
		defer s.Close()
		rng := rand.New(rand.NewSource(14))
		const writes = 15
		for i := 0; i < writes; i++ {
			batch := gen.RandomBatch(rng, mirror, 15, 0.6)
			mirror.Apply(batch)
			if _, err := s.Apply(batch); err != nil {
				t.Fatal(err)
			}
		}
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			info, err := Inspect(dir)
			if err == nil && info.Epoch == writes {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("the MANIFEST names epoch %d (%v) 2 s after write %d", info.Epoch, err, writes)
			}
		}
	})
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
		diffVsReference(t, fmt.Sprintf("capture %d (epoch %d)", i, e), r, mirrors[e])
		r.Close()
	}
}

// TestDurableReadYourAckedWrites holds the core contract under a long
// random run with no checkpoints at all: every acked batch must be
// readable after reopen (pure WAL replay from epoch 0's snapshot).
func TestDurableReadYourAckedWrites(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		g := gen.Citation(rand.New(rand.NewSource(14)), 180, 650, 4)
		mirror := g.Clone()
		dir := t.TempDir()
		s := openKind(t, kind, g, Options{Indexes: false, Dir: dir, CheckpointBatches: -1, CheckpointBytes: -1})
		rng := rand.New(rand.NewSource(15))
		for i := 0; i < 10; i++ {
			batch := gen.RandomBatch(rng, mirror, 15, 0.5)
			mirror.Apply(batch)
			if _, err := s.Apply(batch); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()

		r := openKind(t, kind, nil, Options{Dir: dir})
		defer r.Close()
		if got := r.Epoch(); got != 10 {
			t.Fatalf("epoch %d after replay-only recovery, want 10", got)
		}
		diffVsReference(t, "replay-only", r, mirror)
	})
}

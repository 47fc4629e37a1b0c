package store

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/snapfile"
)

// Checkpoints written by the encoder that still persisted G's locality
// permutation, the reach member rows and the 2-hop indexes (snapfile's
// golden files; see internal/snapfile/golden_test.go).
const (
	legacyStoreFile   = "../snapfile/testdata/legacy-store.qps"
	legacyShardedFile = "../snapfile/testdata/legacy-sharded.qps"
)

// installLegacy seeds a fresh directory with a checkpoint an older encoder wrote
// and returns it with the graph the file holds.
func installLegacy(t *testing.T, kind string) (string, *graph.Graph) {
	t.Helper()
	path := legacyStoreFile
	if kind == "sharded" {
		path = legacyShardedFile
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if kind == "sharded" {
		p, err := snapfile.DecodeSharded(data)
		if err != nil {
			t.Fatal(err)
		}
		return installKind(t, snapfile.KindSharded, p.Epoch, data), shardedGraph(p)
	}
	p, err := snapfile.DecodeStore(data)
	if err != nil {
		t.Fatal(err)
	}
	return installKind(t, snapfile.KindStore, p.Epoch, data), p.G.Thaw().Clone()
}

// shardedGraph reassembles the global graph a sharded snapshot holds: each
// shard's local rows under its ascending global node list, plus the cross
// rows.
func shardedGraph(p *snapfile.ShardedParts) *graph.Graph {
	nodes := make([][]graph.Node, p.K)
	for v, s := range p.ShardOf {
		nodes[s] = append(nodes[s], graph.Node(v))
	}
	out := make([][]graph.Node, len(p.ShardOf))
	for s, sp := range p.Shards {
		for l, v := range nodes[s] {
			for _, w := range sp.G.Successors(graph.Node(l)) {
				out[v] = append(out[v], nodes[s][w])
			}
		}
	}
	for v := range out {
		out[v] = append(out[v], p.CrossOut[v]...)
		slices.Sort(out[v])
	}
	return graph.BuildFromSortedAdj(p.Labels, slices.Clone(p.NodeLabel), out)
}

// hopCells counts the reach views of h's current snapshot that have a
// 2-hop cell, without building an index.
func hopCells(h kindStore) int {
	var views []ReachView
	switch s := h.(type) {
	case *Store:
		views = append(views, s.Snapshot().Reach)
	case *ShardedStore:
		for _, sv := range s.Snapshot().Shards {
			views = append(views, sv.Reach)
		}
	}
	cells := 0
	for _, rv := range views {
		if rv.hop != nil {
			cells++
		}
	}
	return cells
}

// TestLegacyCheckpointsOpen: a store recovered from a checkpoint the older
// encoder wrote — retired blocks and all — answers sampled reach, batch and
// pattern queries as a fresh build over the same graph does, with its 2-hop
// indexes as its own Options say, whatever the file carried.
func TestLegacyCheckpointsOpen(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		for _, indexes := range []bool{false, true} {
			dir, g := installLegacy(t, kind)
			h := openKind(t, kind, nil, Options{Indexes: indexes, Dir: dir})
			if cells := hopCells(h); (cells > 0) != indexes {
				t.Fatalf("Indexes=%v: recovered views have %d 2-hop cells", indexes, cells)
			}
			diffVsReference(t, kind, h, g)
			us, vs := make([]graph.Node, 0, 512), make([]graph.Node, 0, 512)
			for i := 0; i < 512; i++ {
				us, vs = append(us, graph.Node(i*7%g.NumNodes())), append(vs, graph.Node(i*13%g.NumNodes()))
			}
			ref := mustOpen(t, g.Clone(), nil)
			if !slices.Equal(h.BatchReachable(us, vs), ref.BatchReachable(us, vs)) {
				t.Fatalf("Indexes=%v: batch answers differ from a fresh build", indexes)
			}
			ref.Close()
			h.Close()
		}
	})
}

// checkpointRetired returns the tags of the retired blocks the checkpoint
// file dir's manifest names carries.
func checkpointRetired(t *testing.T, dir string) []uint32 {
	t.Helper()
	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, info.Snapshot))
	if err != nil {
		t.Fatal(err)
	}
	tags, err := snapfile.RetiredTags(data)
	if err != nil {
		t.Fatal(err)
	}
	return tags
}

// TestShardedCheckpointBuildsNothing is the sharded kind's half of
// replica's TestCheckpointBuildsNothing: a sharded store checkpoints in
// process, and neither open, writes nor two checkpoints build a 2-hop index
// or write a retired block — the first batch read builds them.
func TestShardedCheckpointBuildsNothing(t *testing.T) {
	g := gen.Citation(rand.New(rand.NewSource(41)), 800, 3200, 4)
	reg := obs.NewRegistry()
	dir := t.TempDir()
	s := mustOpenSharded(t, g.Clone(), &ShardedOptions{Shards: 3, Indexes: true, Dir: dir, Sync: SyncNone, Obs: reg})
	defer s.Close()
	mirror := g.Clone()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 4; i++ {
		b := gen.RandomBatch(rng, mirror, 16, 0.5)
		mirror.Apply(b)
		if _, err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	built := func() uint64 {
		return reg.Histogram(obs.Label("qpgc_store_publish_seconds", "stage", "index")).Snapshot().Count
	}
	if n := built(); n != 0 {
		t.Fatalf("%d 2-hop indexes built by open, writes and two checkpoints", n)
	}
	if tags := checkpointRetired(t, dir); tags != nil {
		t.Fatalf("the checkpoint holds retired blocks %#x", tags)
	}
	us, vs := make([]graph.Node, 0, 1024), make([]graph.Node, 0, 1024)
	for i := 0; i < 1024; i++ {
		us, vs = append(us, graph.Node(rng.Intn(g.NumNodes()))), append(vs, graph.Node(rng.Intn(g.NumNodes())))
	}
	s.BatchReachable(us, vs)
	if n := built(); n == 0 {
		t.Fatal("a batch read built no 2-hop index: the views had no cell")
	}
}

// Effect frames the encoder wrote before a diff was a snapfile file, for the
// history TestOlderEffectFrames replays: the leader's image at epoch 3 (kind
// 1, whose frame is unchanged) and its diff from 3 to 4 in the older
// encoding (kind 0), every id in four bytes.
const (
	olderImage = "testdata/kind1-image.bin"
	olderDiff  = "testdata/kind0-diff.bin"
)

// TestOlderEffectFrames: a follower installs an image the older encoder
// wrote as the snapshot it was taken of, and refuses that encoder's diff
// with ErrEffect, unmoved. So followers go first in an upgrade: a new
// follower under an old leader makes progress through images only.
func TestOlderEffectFrames(t *testing.T) {
	g := gen.Social(rand.New(rand.NewSource(3)), 400, 900, 3)
	mirror := g.Clone()
	leader := mustOpen(t, g.Clone(), nil)
	defer leader.Close()
	rng := rand.New(rand.NewSource(4))
	var batches [][]graph.Update
	for i := 0; i < 4; i++ {
		b := gen.RandomBatch(rng, mirror, 40, 0.5)
		mirror.Apply(b)
		batches = append(batches, b)
	}
	for _, b := range batches[:3] {
		if _, err := leader.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	img, err := os.ReadFile(olderImage)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := os.ReadFile(olderDiff)
	if err != nil {
		t.Fatal(err)
	}
	follower := mustOpen(t, g, &Options{Dir: t.TempDir(), Sync: SyncNone})
	defer follower.Close()
	if epoch, image, err := follower.ApplyEffect(img); err != nil || !image || epoch != 3 {
		t.Fatalf("the older image: epoch %d, image %v, %v", epoch, image, err)
	}
	installed := follower.Snapshot()
	if lineage := binary.LittleEndian.Uint64(img[2:]); installed.Lineage != lineage || installed.Epoch != 3 {
		t.Fatalf("installed %x@%d, the image holds %x@3", installed.Lineage, installed.Epoch, lineage)
	}
	sameArrays(t, "older image", installed, leader.Snapshot())
	if _, _, err := follower.ApplyEffect(diff); !errors.Is(err, ErrEffect) {
		t.Fatalf("the older diff: ApplyEffect = %v, want ErrEffect", err)
	}
	if follower.Snapshot() != installed || follower.batches.Load() != installed.Epoch {
		t.Fatal("a refused diff moved the follower")
	}
}

// olderWAL is a durable directory the encoder that logged nine bytes an
// update wrote: the epoch-0 checkpoint of a store on gen.Social(seed 3,
// 400 nodes, 900 edges, 3 labels) and a WAL of four batches of 40 updates
// drawn with seed 4, closed without a checkpoint.
const olderWAL = "testdata/older-wal"

// TestOlderWALReplays: a store recovered from a directory whose WAL the
// older batch encoder wrote replays every record, answers as a fresh build
// over the graph the batches made, and logs its own writes in the current
// form after them: a second recovery replays both forms.
func TestOlderWALReplays(t *testing.T) {
	dir := t.TempDir()
	entries, err := os.ReadDir(olderWAL)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(olderWAL, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mirror := gen.Social(rand.New(rand.NewSource(3)), 400, 900, 3)
	rng := rand.New(rand.NewSource(4))
	for range 4 {
		mirror.Apply(gen.RandomBatch(rng, mirror, 40, 0.5))
	}
	s := mustOpen(t, nil, &Options{Dir: dir, Sync: SyncNone})
	if got := s.Snapshot().Epoch; got != 4 {
		t.Fatalf("recovered epoch %d, the WAL holds 4 batches", got)
	}
	diffVsReference(t, "older WAL", s, mirror)
	b := gen.RandomBatch(rng, mirror, 40, 0.5)
	mirror.Apply(b)
	if _, err := s.Apply(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, nil, &Options{Dir: dir, Sync: SyncNone})
	defer s.Close()
	if got := s.Snapshot().Epoch; got != 5 {
		t.Fatalf("recovered epoch %d after a fifth batch", got)
	}
	diffVsReference(t, "older WAL and a current record", s, mirror)
}

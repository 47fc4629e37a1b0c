package store

import (
	"encoding/binary"
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

// retiredBlock reports whether a snapshot file block tag is one of those
// older encoders wrote and snapfile now skips: G's locality permutation
// (0x0f0, 0x0f1), the reach member rows (0x121) and the reach and pattern
// 2-hop groups (0x160–0x164, 0x1c0–0x1c4); a shard's blocks sit at the same
// offsets from 0x100 in its own 0x100-wide range above 0x1000.
func retiredBlock(tag uint32) bool {
	if tag >= 0x1000 {
		tag = 0x100 + (tag-0x1000)%0x100
	}
	return tag == 0x0f0 || tag == 0x0f1 || tag == 0x121 || tag >= 0x160 && tag <= 0x164 || tag >= 0x1c0 && tag <= 0x1c4
}

// checkpointTags lists the block tags of the checkpoint file dir's manifest
// names, walking the block descriptors after the 48-byte header.
func checkpointTags(t *testing.T, dir string) []uint32 {
	t.Helper()
	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, info.Snapshot))
	if err != nil {
		t.Fatal(err)
	}
	elemSize := map[byte]int{1: 4, 2: 1, 3: 8}
	var tags []uint32
	for pos := 48; pos < len(data)-4; {
		n := int(binary.LittleEndian.Uint64(data[pos+8:]))
		tags = append(tags, binary.LittleEndian.Uint32(data[pos:]))
		pos += 16 + (n*elemSize[data[pos+4]]+7)&^7
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
	for _, tag := range checkpointTags(t, dir) {
		if retiredBlock(tag) {
			t.Fatalf("the checkpoint holds retired block %#x", tag)
		}
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

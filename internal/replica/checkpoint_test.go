package replica

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/snapfile"
	"repro/internal/store"
)

// retiredBlock reports whether a snapshot file block tag is one of those
// older encoders wrote and snapfile now skips: G's locality permutation
// (0x0f0, 0x0f1), the reach member rows (0x121) and the reach and pattern
// 2-hop groups (0x160–0x164, 0x1c0–0x1c4).
func retiredBlock(tag uint32) bool {
	return tag == 0x0f0 || tag == 0x0f1 || tag == 0x121 || tag >= 0x160 && tag <= 0x164 || tag >= 0x1c0 && tag <= 0x1c4
}

// checkpointTags lists the block tags of the checkpoint file dir's manifest
// names, walking the block descriptors after the 48-byte header.
func checkpointTags(t *testing.T, dir string) []uint32 {
	t.Helper()
	info, err := store.Inspect(dir)
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

// pairs is a batch read wide enough for the scheduler's waves.
func pairs(n int) (us, vs []graph.Node) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1024; i++ {
		us, vs = append(us, graph.Node(rng.Intn(n))), append(vs, graph.Node(rng.Intn(n)))
	}
	return us, vs
}

// TestCheckpointBuildsNothing: a checkpoint writes what recovery reads and
// builds nothing for it — no 2-hop index, no member list, no retired block
// — and Options.Indexes alone decides whether a recovered store, or a
// follower bootstrapped from a shipped image, has 2-hop indexes.
func TestCheckpointBuildsNothing(t *testing.T) {
	g := gen.Citation(rand.New(rand.NewSource(41)), 800, 3200, 4)
	us, vs := pairs(g.NumNodes())

	t.Run("checkpoint", func(t *testing.T) {
		reg := obs.NewRegistry()
		dir := t.TempDir()
		s, err := store.Open(g.Clone(), &store.Options{Indexes: true, Dir: dir, Sync: store.SyncNone, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
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
		s.BatchReachable(us, vs)
		if n := built(); n == 0 {
			t.Fatal("a batch read built no 2-hop index: the views had no cell")
		}
	})

	t.Run("recovery", func(t *testing.T) {
		// A file the older encoder wrote carries a 2-hop index; Indexes off
		// recovers without one.
		data, err := os.ReadFile("../snapfile/testdata/legacy-store.qps")
		if err != nil {
			t.Fatal(err)
		}
		p, err := snapfile.DecodeStore(data)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := store.InstallSnapshot(nil, dir, p.Epoch, data); err != nil {
			t.Fatal(err)
		}
		h, err := store.Open(nil, &store.Options{Indexes: false, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if h.Snapshot().Reach.Index() != nil {
			t.Fatal("Indexes off recovered an older file with a 2-hop index")
		}
		h.Close()

		// A new file carries none; Indexes on recovers with one.
		dir = t.TempDir()
		s, err := store.Open(g.Clone(), &store.Options{Indexes: false, Dir: dir, Sync: store.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		h, err = store.Open(nil, &store.Options{Indexes: true, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if h.Snapshot().Reach.Index() == nil {
			t.Fatal("Indexes on recovered a new file without a 2-hop index")
		}
		h.Close()
	})

	t.Run("follower", func(t *testing.T) {
		dir := t.TempDir()
		s, err := store.Open(g.Clone(), &store.Options{Indexes: true, Dir: dir, Sync: store.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		srv, err := server.Start("127.0.0.1:0", server.Options{Backend: server.NewStoreBackend(s), ReplDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		f := startFollower(t, srv.Addr(), Options{})
		mirror := g.Clone()
		rng := rand.New(rand.NewSource(7))
		var epoch uint64
		for i := 0; i < 4; i++ {
			b := gen.RandomBatch(rng, mirror, 16, 0.5)
			mirror.Apply(b)
			if epoch, err = s.Apply(b); err != nil {
				t.Fatal(err)
			}
		}
		awaitEpoch(t, f, epoch, 10*time.Second)
		local := f.local()
		local.BatchReachable(us, vs)
		if st := local.SchedStats(); st.Hop2Peeled == 0 {
			t.Fatalf("the follower's batch reads peeled nothing through a 2-hop index: %+v", st)
		}
		if local.Snapshot().Reach.Index() == nil {
			t.Fatal("the follower's reach view has no 2-hop cell")
		}
	})
}

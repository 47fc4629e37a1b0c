package replica

import (
	"fmt"
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

// checkpointRetired returns the tags of the retired blocks the checkpoint
// file dir's manifest names carries.
func checkpointRetired(t *testing.T, dir string) []uint32 {
	t.Helper()
	info, err := store.Inspect(dir)
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
		if tags := checkpointRetired(t, dir); tags != nil {
			t.Fatalf("the checkpoint holds retired blocks %#x", tags)
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
		// Laid into a directory as a checkpoint is: the file, then a
		// MANIFEST naming it. No source ships it — a source's image is of its
		// own snapshot, in the current encoding.
		dir := t.TempDir()
		name := fmt.Sprintf("snap-%016x.qps", p.Epoch)
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o666); err != nil {
			t.Fatal(err)
		}
		manifest := fmt.Sprintf("qpgc-durable v1\nkind store\nepoch %d\nsnapshot %s\n", p.Epoch, name)
		if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte(manifest), 0o666); err != nil {
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

package store

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/queries"
)

// TestReachableHop2Fallback covers the Indexes:false configuration: no
// snapshot carries a 2-hop index, the read paths answer without one, and a
// checkpoint round trip keeps the index absent when the reopening options
// leave it off — the file holds no setting, the options decide.
func TestReachableHop2Fallback(t *testing.T) {
	g := socialGraph(21, 120, 500)
	mirror := g.Clone()
	dir := t.TempDir()
	s := mustOpen(t, g, &Options{Indexes: false, Dir: dir})
	batch := gen.RandomBatch(rand.New(rand.NewSource(22)), mirror, 30, 0.5)
	mirror.Apply(batch)
	if _, err := s.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	var us, vs []graph.Node
	for u := graph.Node(0); u < 30; u++ {
		for v := graph.Node(0); v < 30; v++ {
			us, vs = append(us, u), append(vs, v)
		}
	}
	for i, got := range s.BatchReachable(us, vs) {
		if want := queries.ReachableBi(mirror, us[i], vs[i]); got != want {
			t.Fatalf("BatchReachable(%d,%d)=%v want %v", us[i], vs[i], got, want)
		}
	}
	diffVsReference(t, "no index", s, mirror)
	if s.Snapshot().Reach.Index() != nil {
		t.Fatal("a snapshot carries a 2-hop index with Indexes:false")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r := mustOpen(t, nil, &Options{Indexes: false, Dir: dir})
	defer r.Close()
	if r.Snapshot().Reach.Index() != nil {
		t.Fatal("the checkpoint round trip added a 2-hop index")
	}
	diffVsReference(t, "no index, recovered", r, mirror)
}

// TestCloseLifecycle pins the Close contract on both kinds: a second Close
// is safe, ApplyBatch afterwards returns ErrClosed, and queries keep
// answering with exactly the final epoch's state.
func TestCloseLifecycle(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		g := socialGraph(22, 100, 400)
		mirror := g.Clone()
		s := openKind(t, kind, g, Options{Indexes: true})
		batch := []graph.Update{
			graph.Insertion(0, 1), graph.Insertion(1, 2), graph.Deletion(0, 1),
		}
		mirror.Apply(batch)
		epoch, err := s.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		s.Close() // double Close is safe
		if _, err := s.Apply([]graph.Update{graph.Insertion(3, 4)}); err != ErrClosed {
			t.Fatalf("Apply after Close: want ErrClosed, got %v", err)
		}
		if got := s.Epoch(); got != epoch {
			t.Fatalf("post-Close epoch %d, want %d", got, epoch)
		}
		ref := mirror.Freeze()
		refSc := queries.NewScratch(0)
		for u := graph.Node(0); u < 25; u++ {
			for v := graph.Node(0); v < 25; v++ {
				want := queries.ReachableBiCSR(ref, refSc, u, v)
				if got := s.Reachable(u, v); got != want {
					t.Fatalf("post-Close Reachable(%d,%d)=%v want %v", u, v, got, want)
				}
				if got := s.ReachableOnG(u, v); got != want {
					t.Fatalf("post-Close ReachableOnG(%d,%d)=%v want %v", u, v, got, want)
				}
			}
		}
	})
}

package store

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/queries"
)

// TestReachableHop2Fallback covers the Indexes:false configuration: the
// snapshot method reports the missing index and the Store-level method
// falls back to the compressed traversal path; with indexes on, both agree
// with the traversal.
func TestReachableHop2Fallback(t *testing.T) {
	g := socialGraph(21, 120, 500)
	mirror := g.Clone()
	s := mustOpen(t, g, &Options{Indexes: false})
	defer s.Close()

	sn := s.Snapshot()
	sc := queries.NewScratch(0)
	for u := graph.Node(0); u < 30; u++ {
		for v := graph.Node(0); v < 30; v++ {
			if _, ok := sn.ReachableHop2(u, v); ok {
				t.Fatalf("Snapshot.ReachableHop2 reported an index with Indexes:false")
			}
			want := sn.Reachable(sc, u, v)
			if got := s.ReachableHop2(u, v); got != want {
				t.Fatalf("ReachableHop2 fallback (%d,%d)=%v want %v", u, v, got, want)
			}
		}
	}

	s2 := mustOpen(t, mirror.Clone(), nil)
	defer s2.Close()
	sn2 := s2.Snapshot()
	for u := graph.Node(0); u < 30; u++ {
		for v := graph.Node(0); v < 30; v++ {
			want := sn2.Reachable(sc, u, v)
			got, ok := sn2.ReachableHop2(u, v)
			if !ok || got != want {
				t.Fatalf("Snapshot.ReachableHop2(%d,%d)=(%v,%v) want (%v,true)", u, v, got, ok, want)
			}
			if s2.ReachableHop2(u, v) != want {
				t.Fatalf("Store.ReachableHop2(%d,%d) != %v", u, v, want)
			}
		}
	}
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

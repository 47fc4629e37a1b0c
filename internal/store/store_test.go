package store

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/reach"
)

func socialGraph(seed int64, n, m int) *graph.Graph {
	return gen.Social(rand.New(rand.NewSource(seed)), n, m, 6)
}

// TestStoreAnswersMatchBatchRecompression pins the store's three read paths
// (Reachable on Gr, ReachableOnG, ReachableHop2) and the pattern path
// against fresh batch compression of the same graph after every batch.
func TestStoreAnswersMatchBatchRecompression(t *testing.T) {
	g := socialGraph(1, 300, 1500)
	mirror := g.Clone()
	s := mustOpen(t, g, nil)
	defer s.Close()

	rng := rand.New(rand.NewSource(2))
	p := pattern.New()
	pa := p.AddNode("L0")
	pb := p.AddNode("L1")
	p.AddEdge(pa, pb, 2)

	for round := 0; round < 5; round++ {
		batch := gen.RandomBatch(rng, mirror, 40, 0.5)
		mirror.Apply(batch)
		res, err := s.ApplyBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if res.Epoch != uint64(round+1) {
			t.Fatalf("epoch %d after batch %d", res.Epoch, round+1)
		}
		sn := s.Snapshot()
		if sn.Epoch != res.Epoch {
			t.Fatalf("snapshot epoch %d, want %d", sn.Epoch, res.Epoch)
		}

		ref := reach.Compress(mirror)
		for i := 0; i < 200; i++ {
			u := graph.Node(rng.Intn(mirror.NumNodes()))
			v := graph.Node(rng.Intn(mirror.NumNodes()))
			cu, cv := ref.Rewrite(u, v)
			want := queries.Reachable(ref.Gr, cu, cv)
			if got := s.Reachable(u, v); got != want {
				t.Fatalf("round %d: Reachable(%d,%d)=%v want %v", round, u, v, got, want)
			}
			if got := s.ReachableOnG(u, v); got != want {
				t.Fatalf("round %d: ReachableOnG(%d,%d)=%v want %v", round, u, v, got, want)
			}
			if got, ok := sn.ReachableHop2(u, v); !ok || got != want {
				t.Fatalf("round %d: ReachableHop2(%d,%d)=%v want %v", round, u, v, got, want)
			}
		}

		want := pattern.Match(mirror, p)
		got := s.Match(p)
		onG := s.MatchOnG(p)
		if want.OK != got.OK || want.Size() != got.Size() {
			t.Fatalf("round %d: Match via Gr: %v/%d want %v/%d",
				round, got.OK, got.Size(), want.OK, want.Size())
		}
		if want.OK != onG.OK || want.Size() != onG.Size() {
			t.Fatalf("round %d: MatchOnG: %v/%d want %v/%d",
				round, onG.OK, onG.Size(), want.OK, want.Size())
		}
	}

	st := s.Stats()
	if st.Batches != 5 || st.Epoch != 5 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Nodes != mirror.NumNodes() || st.Edges != mirror.NumEdges() {
		t.Fatalf("stats G size: %+v vs |V|=%d |E|=%d", st, mirror.NumNodes(), mirror.NumEdges())
	}
	if st.ReachRatio <= 0 || st.ReachRatio > 1 || st.PatternRatio <= 0 {
		t.Fatalf("implausible ratios: %+v", st)
	}
}

// TestStoreSnapshotPinning verifies that a snapshot loaded before a batch
// keeps answering with pre-batch state after the batch lands.
func TestStoreSnapshotPinning(t *testing.T) {
	g := graph.New(nil)
	a := g.AddNodeNamed("A")
	b := g.AddNodeNamed("B")
	c := g.AddNodeNamed("C")
	g.AddEdge(a, b)

	s := mustOpen(t, g, nil)
	defer s.Close()

	old := s.Snapshot()
	sc := queries.NewScratch(3)
	if old.Reachable(sc, a, c) {
		t.Fatal("a should not reach c at epoch 0")
	}
	if _, err := s.ApplyBatch([]graph.Update{graph.Insertion(b, c)}); err != nil {
		t.Fatal(err)
	}
	if !s.Reachable(a, c) {
		t.Fatal("a should reach c after batch")
	}
	if old.Reachable(sc, a, c) {
		t.Fatal("pinned epoch-0 snapshot must not see the batch")
	}
	if old.Epoch != 0 || s.Snapshot().Epoch != 1 {
		t.Fatalf("epochs: old=%d new=%d", old.Epoch, s.Snapshot().Epoch)
	}
}

// TestStoreConcurrentAppliers serializes batches from many goroutines and
// checks the final state equals applying them in some order (all inserts,
// so order-independent).
func TestStoreConcurrentAppliers(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		g := socialGraph(4, 200, 600)
		mirror := g.Clone()
		s := openKind(t, kind, g, Options{Indexes: true})
		defer s.Close()

		rng := rand.New(rand.NewSource(5))
		const writers, perWriter = 8, 6
		batches := make([][]graph.Update, writers*perWriter)
		for i := range batches {
			batches[i] = gen.RandomBatch(rng, mirror, 10, 1.0)
			mirror.Apply(batches[i])
		}

		var wg sync.WaitGroup
		wg.Add(writers)
		for w := 0; w < writers; w++ {
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					if _, err := s.Apply(batches[w*perWriter+i]); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()

		st := s.Info()
		if st.Batches != writers*perWriter {
			t.Fatalf("batches %d want %d", st.Batches, writers*perWriter)
		}
		if st.Edges != mirror.NumEdges() {
			t.Fatalf("edges %d want %d", st.Edges, mirror.NumEdges())
		}
		if st.Epoch != uint64(writers*perWriter) {
			t.Fatalf("final epoch %d", st.Epoch)
		}
	})
}

// TestViewRatiosComeFromStats pins where a store's compression ratios come
// from: the views it publishes carry the quotient as a frozen CSR and no
// mutable Gr — after a full build, a patched epoch and a warm restart alike
// — so Compressed.Ratio answers NaN on them instead of dereferencing nil,
// and Stats reads the ratios off the CSRs.
func TestViewRatiosComeFromStats(t *testing.T) {
	g := socialGraph(3, 300, 1500)
	mirror := g.Clone()
	dir := t.TempDir()
	s := mustOpen(t, g, &Options{Indexes: true, Dir: dir})
	check := func(at string, s *Store) {
		t.Helper()
		sn := s.Snapshot()
		if sn.Reach.Compressed.Gr != nil || sn.Pattern.Compressed.Gr != nil {
			t.Fatalf("%s: a published view carries a thawed quotient nobody reads", at)
		}
		if r, p := sn.Reach.Compressed.Ratio(mirror), sn.Pattern.Compressed.Ratio(mirror); !math.IsNaN(r) || !math.IsNaN(p) {
			t.Fatalf("%s: Ratio on store views = %v, %v, want NaN for both", at, r, p)
		}
		st := s.Stats()
		if want := float64(sn.Reach.Gr.Size()) / float64(mirror.Size()); st.ReachRatio != want {
			t.Fatalf("%s: Stats().ReachRatio = %v, want %v", at, st.ReachRatio, want)
		}
		if want := float64(sn.Pattern.Gr.Size()) / float64(mirror.Size()); st.PatternRatio != want {
			t.Fatalf("%s: Stats().PatternRatio = %v, want %v", at, st.PatternRatio, want)
		}
	}
	check("epoch 0", s)
	batch := gen.RandomBatch(rand.New(rand.NewSource(4)), mirror, 20, 0.5)
	mirror.Apply(batch)
	if _, err := s.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	check("patched epoch", s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r := mustOpen(t, nil, &Options{Dir: dir})
	defer r.Close()
	check("warm restart", r)
}

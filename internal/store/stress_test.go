package store

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/queries"
)

// TestStoreStressReadersVsWriter is the concurrent-correctness stress test:
// N reader goroutines issue point reachability queries and pattern matches
// against snapshots while the writer applies random batches. Every answer
// is checked against ground truth recomputed for the exact epoch the reader
// observed — ground truth per epoch is precomputed up front (frozen CSR
// clones of G), so readers validate lock-free. Run under -race in CI.
func TestStoreStressReadersVsWriter(t *testing.T) {
	const (
		epochs    = 24
		readers   = 6
		batchSize = 25
	)
	g := socialGraph(7, 250, 1100)

	// Precompute the batch sequence and the per-epoch ground truth
	// snapshots of G (epoch k = initial graph plus the first k batches).
	rng := rand.New(rand.NewSource(8))
	mirror := g.Clone()
	truth := make([]*graph.CSR, epochs+1)
	truth[0] = mirror.Freeze()
	batches := make([][]graph.Update, epochs)
	for i := 0; i < epochs; i++ {
		batches[i] = gen.RandomBatch(rng, mirror, batchSize, 0.5)
		mirror.Apply(batches[i])
		truth[i+1] = mirror.Freeze()
	}

	p := pattern.New()
	pa := p.AddNode("L0")
	pb := p.AddNode("L1")
	p.AddEdge(pa, pb, 2)
	// Per-epoch pattern ground truth, precomputed so readers only compare.
	wantMatch := make([]*pattern.Result, epochs+1)
	for e := 0; e <= epochs; e++ {
		wantMatch[e] = pattern.MatchCSR(truth[e], p)
	}

	s := mustOpen(t, g, nil)
	defer s.Close()

	var done atomic.Bool
	var checks atomic.Int64
	var wg sync.WaitGroup
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + int64(r)))
			sc := queries.NewScratch(0)
			ref := queries.NewScratch(0)
			n := truth[0].NumNodes()
			for i := 0; i < 256 || !done.Load(); i++ {
				sn := s.Snapshot()
				gt := truth[sn.Epoch]
				if sn.Epoch > epochs {
					t.Errorf("impossible epoch %d", sn.Epoch)
					return
				}
				u := graph.Node(rng.Intn(n))
				v := graph.Node(rng.Intn(n))
				want := queries.ReachableBiCSR(gt, ref, u, v)
				if got := sn.Reachable(sc, u, v); got != want {
					t.Errorf("epoch %d: Reachable(%d,%d)=%v want %v", sn.Epoch, u, v, got, want)
					return
				}
				if got := sn.ReachableOnG(sc, u, v); got != want {
					t.Errorf("epoch %d: ReachableOnG(%d,%d)=%v want %v", sn.Epoch, u, v, got, want)
					return
				}
				if idx := sn.Reach.Index(); idx == nil || idx.Reachable(sn.Reach.Compressed.Rewrite(u, v)) != want {
					t.Errorf("epoch %d: the 2-hop index is missing or answers (%d,%d) wrong, want %v", sn.Epoch, u, v, want)
					return
				}
				if i%32 == 0 {
					want, got := wantMatch[sn.Epoch], sn.Match(p)
					if want.OK != got.OK || !sameSets(want, got) {
						t.Errorf("epoch %d: pattern match diverged (want %d pairs, got %d)",
							sn.Epoch, want.Size(), got.Size())
						return
					}
				}
				checks.Add(1)
			}
		}(r)
	}

	for i, b := range batches {
		res, err := s.ApplyBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if res.Epoch != uint64(i+1) {
			t.Fatalf("batch %d published at epoch %d", i+1, res.Epoch)
		}
	}
	done.Store(true)
	wg.Wait()
	if c := checks.Load(); c < int64(readers)*int64(epochs) {
		t.Logf("only %d reader checks overlapped the write stream", c)
	}
}

// sameSets compares two match results element-wise.
func sameSets(a, b *pattern.Result) bool {
	if a.OK != b.OK {
		return false
	}
	if !a.OK {
		return true
	}
	if len(a.Sets) != len(b.Sets) {
		return false
	}
	for u := range a.Sets {
		if len(a.Sets[u]) != len(b.Sets[u]) {
			return false
		}
		for i := range a.Sets[u] {
			if a.Sets[u][i] != b.Sets[u][i] {
				return false
			}
		}
	}
	return true
}

// TestReadersTraverseSharedEpochs has readers walk every row of a pinned
// epoch's G and pattern quotient, again and again, while the writer patches
// the epochs after it into the arenas they share. Each pinned CSR must equal
// the Freeze of its epoch's graph (G) or its own copy taken at the pin (the
// quotient) on every pass; under -race the detector checks that no patch
// writes an entry a pinned epoch reads.
func TestReadersTraverseSharedEpochs(t *testing.T) {
	const epochs, readers = 40, 3
	g := socialGraph(11, 1500, 6000)
	rng := rand.New(rand.NewSource(12))
	mirror := g.Clone()
	truth := []*graph.CSR{mirror.Freeze()}
	batches := make([][]graph.Update, epochs)
	for i := range batches {
		batches[i] = gen.RandomBatch(rng, mirror, 12, 0.5)
		mirror.Apply(batches[i])
		truth = append(truth, mirror.Freeze())
	}
	s := mustOpen(t, g, nil)
	defer s.Close()

	var done atomic.Bool
	var passes atomic.Int64
	var wg sync.WaitGroup
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func() {
			defer wg.Done()
			for !done.Load() {
				sn := s.Snapshot()
				pq := cloneCSR(sn.Pattern.Gr)
				for pass := 0; pass < 4; pass++ {
					if !sn.G.Equal(truth[sn.Epoch]) {
						t.Errorf("epoch %d: pinned G changed under its reader", sn.Epoch)
						return
					}
					if !sn.Pattern.Gr.Equal(pq) {
						t.Errorf("epoch %d: pinned pattern quotient changed under its reader", sn.Epoch)
						return
					}
					passes.Add(1)
				}
			}
		}()
	}
	for _, b := range batches {
		if _, err := s.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
	if !s.Snapshot().G.Equal(truth[epochs]) {
		t.Fatal("the last epoch's G differs from Freeze of the graph")
	}
	t.Logf("%d reader passes over %d epochs", passes.Load(), epochs)
}

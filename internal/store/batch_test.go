package store

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/queries"
)

// randomPairs draws n (u,v) pairs over an n-node id space, with a fraction
// of self-pairs to exercise the cycle semantics.
func randomPairs(rng *rand.Rand, nodes, n int) ([]graph.Node, []graph.Node) {
	us := make([]graph.Node, n)
	vs := make([]graph.Node, n)
	for i := range us {
		us[i] = graph.Node(rng.Intn(nodes))
		if i%13 == 0 {
			vs[i] = us[i]
		} else {
			vs[i] = graph.Node(rng.Intn(nodes))
		}
	}
	return us, vs
}

// TestBatchMatchesScalarMonolithic is the tentpole differential on the
// monolithic store: on every topology, batched answers on the compressed
// path must equal the scalar answers on Gr and on G of the same snapshot,
// across a stream of update batches.
func TestBatchMatchesScalarMonolithic(t *testing.T) {
	for name, g := range shardedTopologies(23) {
		for _, indexes := range []bool{true, false} {
			s := mustOpen(t, g.Clone(), &Options{Indexes: indexes})
			mirror := g.Clone()
			rng := rand.New(rand.NewSource(41))
			for round := 0; round < 4; round++ {
				if round > 0 {
					batch := gen.RandomBatch(rng, mirror, 30, 0.5)
					mirror.Apply(batch)
					if _, err := s.ApplyBatch(batch); err != nil {
						t.Fatal(err)
					}
				}
				sn := s.Snapshot()
				sc := queries.NewScratch(0)
				bs := queries.NewBatchScratch(0)
				n := mirror.NumNodes()
				// Ragged and >64 batch sizes to cover the wave chunking.
				for _, bsz := range []int{1, 7, 64, 100} {
					us, vs := randomPairs(rng, n, bsz)
					out := make([]bool, bsz)
					sn.BatchReachable(bs, us, vs, out)
					for i := range us {
						want := sn.Reachable(sc, us[i], vs[i])
						if out[i] != want {
							t.Fatalf("%s idx=%v round %d bsz=%d: batch QR(%d,%d)=%v scalar %v",
								name, indexes, round, bsz, us[i], vs[i], out[i], want)
						}
						if onG := sn.ReachableOnG(sc, us[i], vs[i]); onG != want {
							t.Fatalf("%s idx=%v round %d bsz=%d: QR(%d,%d) on G=%v on Gr %v",
								name, indexes, round, bsz, us[i], vs[i], onG, want)
						}
					}
				}
			}
			s.Close()
		}
	}
}

// TestBatchMatchesScalarSharded pins batch ≡ scalar on the sharded store
// for k ∈ {1,4}, with and without per-shard indexes, on every topology,
// under cross-shard churn.
func TestBatchMatchesScalarSharded(t *testing.T) {
	for name, g := range shardedTopologies(29) {
		for _, k := range []int{1, 4} {
			indexes := k == 4 // cover both router fast paths
			s := mustOpenSharded(t, g.Clone(), &ShardedOptions{Shards: k, Indexes: indexes})
			mirror := g.Clone()
			rng := rand.New(rand.NewSource(int64(k) * 7))
			for round := 0; round < 4; round++ {
				if round > 0 {
					batch := gen.RandomBatch(rng, mirror, 30, 0.5)
					mirror.Apply(batch)
					if _, err := s.ApplyBatch(batch); err != nil {
						t.Fatal(err)
					}
				}
				sn := s.Snapshot()
				rs := NewRouteScratch()
				brs := NewBatchRouteScratch()
				n := mirror.NumNodes()
				for _, bsz := range []int{1, 5, 64, 90} {
					us, vs := randomPairs(rng, n, bsz)
					out := make([]bool, bsz)
					sn.BatchReachable(brs, us, vs, out)
					for i := range us {
						want := sn.Reachable(rs, us[i], vs[i])
						if out[i] != want {
							t.Fatalf("%s k=%d idx=%v round %d bsz=%d: batch QR(%d,%d)=%v scalar %v",
								name, k, indexes, round, bsz, us[i], vs[i], out[i], want)
						}
					}
				}
			}
			s.Close()
		}
	}
}

// TestBatchStressReadersVsWriter is the race stress: reader goroutines
// issue 64-query batches against snapshots while the writer applies random
// update batches; every batched answer is checked against the scalar
// answer on the SAME pinned snapshot (so the check is same-epoch by
// construction). Run under -race in CI. Both store kinds.
func TestBatchStressReadersVsWriter(t *testing.T) {
	const (
		epochs    = 16
		readers   = 4
		batchSize = 20
	)
	g := socialGraph(13, 240, 1000)

	rng := rand.New(rand.NewSource(15))
	mirror := g.Clone()
	batches := make([][]graph.Update, epochs)
	for i := range batches {
		batches[i] = gen.RandomBatch(rng, mirror, batchSize, 0.5)
		mirror.Apply(batches[i])
	}

	mono := mustOpen(t, g.Clone(), nil)
	defer mono.Close()
	sh := mustOpenSharded(t, g.Clone(), &ShardedOptions{Shards: 3, Indexes: true})
	defer sh.Close()

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(readers)
	n := g.NumNodes()
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(300 + int64(r)))
			sc := queries.NewScratch(0)
			bs := queries.NewBatchScratch(0)
			rs := NewRouteScratch()
			brs := NewBatchRouteScratch()
			for i := 0; i < 64 || !done.Load(); i++ {
				us, vs := randomPairs(rng, n, 64)
				out := make([]bool, 64)
				if i%2 == 0 {
					sn := mono.Snapshot()
					sn.BatchReachable(bs, us, vs, out)
					for j := range us {
						if want := sn.Reachable(sc, us[j], vs[j]); out[j] != want {
							t.Errorf("mono epoch %d: batch lane %d diverged from scalar", sn.Epoch, j)
							return
						}
					}
				} else {
					sn := sh.Snapshot()
					sn.BatchReachable(brs, us, vs, out)
					for j := range us {
						if want := sn.Reachable(rs, us[j], vs[j]); out[j] != want {
							t.Errorf("sharded epoch %d: batch lane %d diverged from scalar", sn.Epoch, j)
							return
						}
					}
				}
			}
		}(r)
	}
	for _, b := range batches {
		if _, err := mono.ApplyBatch(b); err != nil {
			t.Error(err)
			break
		}
		if _, err := sh.ApplyBatch(b); err != nil {
			t.Error(err)
			break
		}
	}
	done.Store(true)
	wg.Wait()
}

// TestDurableRoundTripsReorderedView checks end to end that a recovered
// store serves the same reordered view of G it checkpointed: the loaded
// snapshot builds it on first use from the same G, and batched/scalar
// G-path answers still agree after a pure-load restart.
func TestDurableRoundTripsReorderedView(t *testing.T) {
	dir := t.TempDir()
	g := socialGraph(31, 200, 800)
	s := mustOpen(t, g.Clone(), &Options{Indexes: true, Dir: dir, Sync: SyncNone})
	if _, err := s.ApplyBatch([]graph.Update{graph.Insertion(0, 1), graph.Insertion(1, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := s.Snapshot().GOrd().NewID
	s.Close()

	r, err := Open(nil, &Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := r.Snapshot().GOrd().NewID
	if len(got) != len(want) {
		t.Fatalf("recovered perm covers %d of %d nodes", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("recovered perm[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	sn := r.Snapshot()
	sc := queries.NewScratch(0)
	bs := queries.NewBatchScratch(0)
	rng := rand.New(rand.NewSource(2))
	us, vs := randomPairs(rng, sn.G.NumNodes(), 64)
	out := make([]bool, 64)
	sn.BatchReachable(bs, us, vs, out)
	for i := range us {
		want := sn.Reachable(sc, us[i], vs[i])
		if onG := sn.ReachableOnG(sc, us[i], vs[i]); out[i] != want || onG != want {
			t.Fatalf("recovered store: lane %d (batch=%v, g=%v) diverged from scalar %v",
				i, out[i], onG, want)
		}
	}
}

// TestBatchMatchesScalarLargeQuotient drives the end-to-end store batch
// path on a deep citation DAG whose reachability quotient far exceeds the
// tiny-drain cutoff, so Snapshot.BatchReachable reaches the bidirectional
// retirement sweep (not just the forward drain the small topology zoo
// exercises), across update rounds.
func TestBatchMatchesScalarLargeQuotient(t *testing.T) {
	g := gen.Citation(rand.New(rand.NewSource(3)), 1100, 3600, 5)
	s := mustOpen(t, g.Clone(), nil)
	defer s.Close()
	mirror := g.Clone()
	if nc := s.Snapshot().Reach.Gr.NumNodes(); nc <= 256 {
		t.Fatalf("quotient has %d classes; need > 256 to reach the retirement sweep", nc)
	}
	rng := rand.New(rand.NewSource(8))
	sc := queries.NewScratch(0)
	bs := queries.NewBatchScratch(0)
	for round := 0; round < 3; round++ {
		if round > 0 {
			batch := gen.RandomBatch(rng, mirror, 40, 0.5)
			mirror.Apply(batch)
			if _, err := s.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		sn := s.Snapshot()
		n := mirror.NumNodes()
		for _, bsz := range []int{64, 100} {
			us, vs := randomPairs(rng, n, bsz)
			out := make([]bool, bsz)
			sn.BatchReachable(bs, us, vs, out)
			for i := range us {
				if want := sn.Reachable(sc, us[i], vs[i]); out[i] != want {
					t.Fatalf("round %d bsz=%d: batch QR(%d,%d)=%v scalar %v",
						round, bsz, us[i], vs[i], out[i], want)
				}
			}
		}
	}
}

// TestBatchReachableChecksLengths pins the parallel-slice contract at the
// store's entry: a vs one longer or one shorter than us panics with the
// store's own message, on both kinds, below, at and far above the 64-lane
// wave boundary — never a silently accepted batch, never a raw slice-bounds
// panic from inside the scheduler.
func TestBatchReachableChecksLengths(t *testing.T) {
	g := gen.Social(rand.New(rand.NewSource(5)), 300, 1200, 4)
	forKinds(t, func(t *testing.T, kind string) {
		h := openKind(t, kind, g.Clone(), Options{Indexes: true})
		defer h.Close()
		for _, n := range []int{64, 65, 1024} {
			for _, delta := range []int{+1, -1} {
				us := make([]graph.Node, n)
				vs := make([]graph.Node, n+delta)
				func() {
					defer func() {
						const want = "store: batch query us/vs/out length mismatch"
						if r := recover(); r != want {
							t.Errorf("%d us, %d vs: recovered %v, want panic %q", n, n+delta, r, want)
						}
					}()
					h.BatchReachable(us, vs)
				}()
			}
		}
	})
}

package qpgc

// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (Section 6), each delegating to the corresponding
// driver in internal/harness at a reduced scale so that
// `go test -bench=. -benchmem` completes in minutes. Use cmd/qpgcbench for
// full-scale paper-layout output. Micro-benchmarks for the core operations
// (compressR, compressB, Match, BFS, incremental maintenance) follow.

import (
	"math/rand"
	"testing"

	"repro/internal/bisim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/incbisim"
	"repro/internal/increach"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/reach"
	"repro/internal/store"
)

// benchConfig is the scale used by the experiment benchmarks.
func benchConfig() harness.Config {
	cfg := harness.QuickConfig()
	cfg.Scale = 0.15
	return cfg
}

func runExperiment(b *testing.B, id string) {
	e, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab := e.Run(cfg)
		if len(tab.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// Table 1: reachability compression ratios (RCaho, RCscc, RCr).
func BenchmarkTable1CompressRatios(b *testing.B) { runExperiment(b, "table1") }

// Table 2: pattern compression ratio (PCr).
func BenchmarkTable2CompressRatios(b *testing.B) { runExperiment(b, "table2") }

// Fig 12(a): BFS/BIBFS on G vs Gr.
func BenchmarkFig12aReachQueries(b *testing.B) { runExperiment(b, "fig12a") }

// Fig 12(b): Match on real-life-like graphs vs compressed.
func BenchmarkFig12bMatchRealLife(b *testing.B) { runExperiment(b, "fig12b") }

// Fig 12(c): Match on synthetic graphs, |L| = 10 vs 20.
func BenchmarkFig12cMatchSynthetic(b *testing.B) { runExperiment(b, "fig12c") }

// Fig 12(d): memory of G, Gr and 2-hop indexes.
func BenchmarkFig12dIndexMemory(b *testing.B) { runExperiment(b, "fig12d") }

// Fig 12(e): incRCM vs compressR under insertions.
func BenchmarkFig12eIncRCMInsert(b *testing.B) { runExperiment(b, "fig12e") }

// Fig 12(f): incRCM vs compressR under deletions.
func BenchmarkFig12fIncRCMDelete(b *testing.B) { runExperiment(b, "fig12f") }

// Fig 12(g): incPCM vs compressB vs IncBsim.
func BenchmarkFig12gIncPCM(b *testing.B) { runExperiment(b, "fig12g") }

// Fig 12(h): incremental querying on G vs maintained Gr.
func BenchmarkFig12hIncQuery(b *testing.B) { runExperiment(b, "fig12h") }

// Fig 12(i): RCr under densification.
func BenchmarkFig12iDensification(b *testing.B) { runExperiment(b, "fig12i") }

// Fig 12(j): RCr under power-law growth.
func BenchmarkFig12jGrowth(b *testing.B) { runExperiment(b, "fig12j") }

// Fig 12(k): PCr under densification.
func BenchmarkFig12kDensification(b *testing.B) { runExperiment(b, "fig12k") }

// Fig 12(l): PCr under power-law growth.
func BenchmarkFig12lGrowth(b *testing.B) { runExperiment(b, "fig12l") }

// ---------------------------------------------------------------------
// Micro-benchmarks of the core operations.

func socialGraph(n, m int) *graph.Graph {
	return gen.Social(rand.New(rand.NewSource(1)), n, m, 8)
}

func BenchmarkCompressReachability(b *testing.B) {
	g := socialGraph(4000, 24000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reach.Compress(g)
	}
}

func BenchmarkCompressPatternPT(b *testing.B) {
	g := socialGraph(4000, 24000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bisim.Quotient(g, bisim.RefinePT(g))
	}
}

func BenchmarkCompressPatternNaive(b *testing.B) {
	g := socialGraph(4000, 24000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bisim.Quotient(g, bisim.RefineNaive(g))
	}
}

func BenchmarkTarjanSCC(b *testing.B) {
	g := socialGraph(8000, 48000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.Tarjan(g)
	}
}

func BenchmarkBFSOriginalVsCompressed(b *testing.B) {
	g := socialGraph(4000, 24000)
	c := reach.Compress(g)
	rng := rand.New(rand.NewSource(2))
	pairs := gen.RandomNodePairs(rng, g, 256)
	b.Run("onG", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			queries.Reachable(g, p[0], p[1])
		}
	})
	b.Run("onGr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			u, v := c.Rewrite(p[0], p[1])
			queries.Reachable(c.Gr, u, v)
		}
	})
	// CSR variants: frozen snapshots with a warm epoch-stamped scratch.
	// With the scratch warm these run at 0 allocs/op (pinned by
	// TestReachableCSRZeroAllocs).
	csrG := g.Freeze()
	csrGr := c.Gr.Freeze()
	b.Run("onG_CSR", func(b *testing.B) {
		s := queries.NewScratch(csrG.NumNodes())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			queries.ReachableCSR(csrG, s, p[0], p[1])
		}
	})
	b.Run("onGr_CSR", func(b *testing.B) {
		s := queries.NewScratch(csrGr.NumNodes())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			u, v := c.Rewrite(p[0], p[1])
			queries.ReachableCSR(csrGr, s, u, v)
		}
	})
	b.Run("onGr_BiCSR", func(b *testing.B) {
		s := queries.NewScratch(csrGr.NumNodes())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			u, v := c.Rewrite(p[0], p[1])
			queries.ReachableBiCSR(csrGr, s, u, v)
		}
	})
}

// BenchmarkFreeze measures the cost of taking a CSR snapshot — the price
// paid once per read-side epoch.
func BenchmarkFreeze(b *testing.B) {
	g := socialGraph(4000, 24000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Freeze()
	}
}

func BenchmarkMatchOriginalVsCompressed(b *testing.B) {
	g := socialGraph(3000, 18000)
	c := bisim.Compress(g)
	rng := rand.New(rand.NewSource(3))
	p := gen.Pattern(rng, g, gen.PatternSpec{Nodes: 4, Edges: 4, Lp: 8, K: 3})
	b.Run("onG", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pattern.Match(g, p)
		}
	})
	b.Run("onGr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pattern.Expand(pattern.Match(c.Gr, p), c)
		}
	})
}

func BenchmarkIncRCMApplyBatch(b *testing.B) {
	g := socialGraph(3000, 18000)
	rng := rand.New(rand.NewSource(4))
	m := increach.New(g.Clone())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		batch := gen.RandomBatch(rng, m.Graph(), 64, 0.5)
		b.StartTimer()
		m.Apply(batch)
		m.Compressed()
	}
}

func BenchmarkIncPCMApplyBatch(b *testing.B) {
	g := socialGraph(3000, 18000)
	rng := rand.New(rand.NewSource(5))
	m := incbisim.New(g.Clone())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		batch := gen.RandomBatch(rng, m.Graph(), 64, 0.5)
		b.StartTimer()
		m.Apply(batch)
		m.Compressed()
	}
}

// ---------------------------------------------------------------------
// Concurrent store benchmarks (b.RunParallel): the serve-while-updating
// regime. Reads go through the full store path — snapshot load, pooled
// scratch, rewrite, bidirectional BFS.

func storePairs(g *graph.Graph) [][2]graph.Node {
	return gen.RandomNodePairs(rand.New(rand.NewSource(7)), g, 512)
}

// BenchmarkStoreReachableParallel measures concurrent point reads on the
// compressed graph with no write stream.
func BenchmarkStoreReachableParallel(b *testing.B) {
	g := socialGraph(4000, 24000)
	pairs := storePairs(g)
	s, _ := store.Open(g, nil) // in-memory: cannot fail
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := rand.Int()
		for pb.Next() {
			p := pairs[i%len(pairs)]
			s.Reachable(p[0], p[1])
			i++
		}
	})
}

// BenchmarkStoreReachableOnGParallel is the uncompressed baseline for
// BenchmarkStoreReachableParallel.
func BenchmarkStoreReachableOnGParallel(b *testing.B) {
	g := socialGraph(4000, 24000)
	pairs := storePairs(g)
	s, _ := store.Open(g, nil) // in-memory: cannot fail
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := rand.Int()
		for pb.Next() {
			p := pairs[i%len(pairs)]
			s.ReachableOnG(p[0], p[1])
			i++
		}
	})
}

// BenchmarkStoreReadsUnderWrites measures concurrent compressed reads while
// a writer goroutine applies mixed 32-update batches back to back — reads
// never block, but they do share the machine with incremental maintenance
// and snapshot rebuilds.
func BenchmarkStoreReadsUnderWrites(b *testing.B) {
	g := socialGraph(4000, 24000)
	mirror := g.Clone()
	pairs := storePairs(g)
	s, _ := store.Open(g, nil) // in-memory: cannot fail
	defer s.Close()
	stop := make(chan struct{})
	writerIdle := make(chan struct{})
	go func() {
		defer close(writerIdle)
		rng := rand.New(rand.NewSource(8))
		for {
			select {
			case <-stop:
				return
			default:
			}
			batch := gen.RandomBatch(rng, mirror, 32, 0.5)
			mirror.Apply(batch)
			if _, err := s.ApplyBatch(batch); err != nil {
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := rand.Int()
		for pb.Next() {
			p := pairs[i%len(pairs)]
			s.Reachable(p[0], p[1])
			i++
		}
	})
	b.StopTimer()
	close(stop)
	<-writerIdle
}

// BenchmarkStoreApplyBatch measures write-side cost per published epoch:
// incremental maintenance of both quotients plus the snapshot rebuild.
func BenchmarkStoreApplyBatch(b *testing.B) {
	g := socialGraph(3000, 18000)
	mirror := g.Clone()
	s, _ := store.Open(g, nil) // in-memory: cannot fail
	defer s.Close()
	rng := rand.New(rand.NewSource(9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		batch := gen.RandomBatch(rng, mirror, 64, 0.5)
		mirror.Apply(batch)
		b.StartTimer()
		if _, err := s.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAHOTransitiveReduction(b *testing.B) {
	g := gen.Citation(rand.New(rand.NewSource(6)), 2000, 12000, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reach.AHOReduce(g)
	}
}

// --- Batched read path and CSR reordering (PR 5) ---

// benchBatchStore opens the store and query pairs shared by the batch
// read-path benchmarks.
func benchBatchStore(b *testing.B) (*store.Store, []graph.Node, []graph.Node) {
	b.Helper()
	g := socialGraph(4000, 24000)
	rng := rand.New(rand.NewSource(12))
	n := g.NumNodes()
	us := make([]graph.Node, 256)
	vs := make([]graph.Node, 256)
	for i := range us {
		us[i] = graph.Node(rng.Intn(n))
		vs[i] = graph.Node(rng.Intn(n))
	}
	s, _ := store.Open(g, nil) // in-memory: cannot fail
	b.Cleanup(func() { s.Close() })
	return s, us, vs
}

// BenchmarkStoreScalarReachable answers 256 point queries one store call
// at a time — the per-query serving cost the batch path amortizes.
func BenchmarkStoreScalarReachable(b *testing.B) {
	s, us, vs := benchBatchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range us {
			s.Reachable(us[j], vs[j])
		}
	}
}

// BenchmarkStoreBatchReachable64 answers the same 256 queries as four
// 64-lane batched store calls (one pinned snapshot and one lane sweep per
// wave). Compare per-op time against BenchmarkStoreScalarReachable: the
// batched aggregate throughput must come out ahead.
func BenchmarkStoreBatchReachable64(b *testing.B) {
	s, us, vs := benchBatchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < len(us); off += 64 {
			s.BatchReachable(us[off:off+64], vs[off:off+64])
		}
	}
}

// benchReorderQuotient builds one reachability quotient in both layouts: a
// random numbering and the topological one the kernel gives and the store
// publishes.
func benchReorderQuotient(b *testing.B) (unord, reord *graph.CSR, uu, uv, ru, rv []graph.Node) {
	b.Helper()
	g := socialGraph(4000, 24000)
	rc := reach.Compress(g)
	reord = rc.Gr.Freeze()
	rng := rand.New(rand.NewSource(13))
	perm := make([]graph.Node, reord.NumNodes())
	for i, p := range rng.Perm(len(perm)) {
		perm[i] = graph.Node(p)
	}
	unord = graph.ApplyPerm(reord, perm).C
	n := g.NumNodes()
	for i := 0; i < 256; i++ {
		cu, cv := rc.Rewrite(graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n)))
		uu = append(uu, perm[cu])
		uv = append(uv, perm[cv])
		ru = append(ru, cu)
		rv = append(rv, cv)
	}
	return
}

// BenchmarkQuotientBFSUnordered runs bidirectional BFS point queries over
// the quotient under a random numbering, which keeps no locality.
func BenchmarkQuotientBFSUnordered(b *testing.B) {
	unord, _, uu, uv, _, _ := benchReorderQuotient(b)
	sc := queries.NewScratch(unord.NumNodes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range uu {
			queries.ReachableBiCSR(unord, sc, uu[j], uv[j])
		}
	}
}

// BenchmarkQuotientBFSReordered runs the same queries over the
// topologically numbered quotient; that layout must be no slower than the
// random one.
func BenchmarkQuotientBFSReordered(b *testing.B) {
	_, reord, _, _, ru, rv := benchReorderQuotient(b)
	sc := queries.NewScratch(reord.NumNodes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ru {
			queries.ReachableBiCSR(reord, sc, ru[j], rv[j])
		}
	}
}

// benchReorderG freezes G in insertion order and in the BFS-from-hubs
// locality order used by the snapshot's uncompressed read path.
func benchReorderG(b *testing.B) (unord *graph.CSR, ro *graph.Reordered, us, vs []graph.Node) {
	b.Helper()
	g := socialGraph(4000, 24000)
	unord = g.Freeze()
	ro = graph.Reorder(unord)
	rng := rand.New(rand.NewSource(14))
	n := g.NumNodes()
	for i := 0; i < 256; i++ {
		us = append(us, graph.Node(rng.Intn(n)))
		vs = append(vs, graph.Node(rng.Intn(n)))
	}
	return
}

// BenchmarkGBFSUnordered runs bidirectional BFS point queries over G in
// insertion order.
func BenchmarkGBFSUnordered(b *testing.B) {
	unord, _, us, vs := benchReorderG(b)
	sc := queries.NewScratch(unord.NumNodes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range us {
			queries.ReachableBiCSR(unord, sc, us[j], vs[j])
		}
	}
}

// BenchmarkGBFSReordered runs the same queries over the locality-reordered
// G after the O(1) endpoint rewrite, exactly as Snapshot.ReachableOnG does.
func BenchmarkGBFSReordered(b *testing.B) {
	_, ro, us, vs := benchReorderG(b)
	sc := queries.NewScratch(ro.C.NumNodes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range us {
			queries.ReachableBiCSR(ro.C, sc, ro.ToNew(us[j]), ro.ToNew(vs[j]))
		}
	}
}

// Evolving demonstrates incremental maintenance (Section 5): a Web-like
// graph receives batches of edge updates; the compressed graphs are
// maintained by incRCM / incPCM instead of being recompressed, and queries
// keep running against the maintained Gr between batches.
package main

import (
	"fmt"
	"math/rand"
	"time"

	qpgc "repro"
)

func main() {
	var ds qpgc.Dataset
	for _, d := range qpgc.ReachabilityDatasets() {
		if d.Name == "P2P" {
			ds = d
		}
	}
	g := ds.Build(3)
	fmt.Printf("graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	rm := qpgc.NewReachMaintainer(g.Clone())
	pm := qpgc.NewPatternMaintainer(g.Clone())
	fmt.Printf("initial Gr: reach %d/%d, pattern %d/%d (nodes/edges)\n",
		rm.Compressed().Gr.NumNodes(), rm.Compressed().Gr.NumEdges(),
		pm.Compressed().Gr.NumNodes(), pm.Compressed().Gr.NumEdges())

	rng := rand.New(rand.NewSource(9))
	n := g.NumNodes()
	var incReach, incPat time.Duration
	for round := 1; round <= 5; round++ {
		// A mixed batch: ~1% of |E| insertions and deletions.
		var batch []qpgc.Update
		edges := rm.Graph().EdgeList()
		for i := 0; i < len(edges)/100; i++ {
			if rng.Intn(2) == 0 {
				batch = append(batch, qpgc.Insertion(
					qpgc.Node(rng.Intn(n)), qpgc.Node(rng.Intn(n))))
			} else {
				e := edges[rng.Intn(len(edges))]
				batch = append(batch, qpgc.Deletion(e[0], e[1]))
			}
		}

		start := time.Now()
		rstats := rm.Apply(batch)
		rm.Compressed()
		incReach += time.Since(start)

		start = time.Now()
		pstats := pm.Apply(batch)
		pm.Compressed()
		incPat += time.Since(start)

		fmt.Printf("round %d: %d updates | incRCM: AFF=%d comps, %d redundant | incPCM: %d nodes re-signed, %d blocks changed\n",
			round, len(batch), rstats.AffComponents, rstats.RedundantUpdates,
			pstats.DirtyNodes, pstats.ChangedBlocks)

		// Queries keep working against the maintained compressed graphs.
		u, v := qpgc.Node(rng.Intn(n)), qpgc.Node(rng.Intn(n))
		cu, cv := rm.Compressed().Rewrite(u, v)
		onG := qpgc.Reachable(rm.Graph(), u, v)
		onGr := qpgc.Reachable(rm.Compressed().Gr, cu, cv)
		if onG != onGr {
			panic("maintained compression diverged!")
		}
	}
	fmt.Printf("cumulative incremental time: reach %v, pattern %v\n",
		incReach.Round(time.Millisecond), incPat.Round(time.Millisecond))

	// Compare against recompression from scratch.
	start := time.Now()
	qpgc.CompressReachability(rm.Graph())
	fmt.Printf("one batch recompression (reach): %v\n", time.Since(start).Round(time.Millisecond))
	start = time.Now()
	qpgc.CompressPattern(pm.Graph())
	fmt.Printf("one batch recompression (pattern): %v\n", time.Since(start).Round(time.Millisecond))
}

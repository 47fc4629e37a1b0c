package harness

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bisim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hop2"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/reach"
)

// fig12aDatasets mirrors the five datasets of Fig. 12(a).
var fig12aDatasets = []string{"P2P", "wikiVote", "citHepTh", "socEpinions", "NotreDame"}

// Fig12a reproduces Fig. 12(a): BFS and BIBFS evaluation time over G and
// over Gr for random reachability queries, reported as percentages of BFS
// on G (=100%).
func Fig12a(cfg Config) *Table {
	t := &Table{
		ID:     "fig12a",
		Title:  "Reachability query time (percent of BFS on G)",
		Header: []string{"dataset", "BFS on G", "BIBFS on G", "BFS on Gr", "BIBFS on Gr"},
		Notes:  []string{"paper: evaluation on Gr is a small fraction of G (e.g. 2% for socEpinions)"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, name := range fig12aDatasets {
		d, _ := gen.DatasetByName(name)
		d = d.Scale(cfg.Scale)
		g := d.Build(cfg.Seed)
		c := reach.Compress(g)
		pairs := gen.RandomNodePairs(rng, g, cfg.Pairs)

		bfsG := bestOf(3, func() {
			for _, p := range pairs {
				queries.Reachable(g, p[0], p[1])
			}
		})
		bibfsG := bestOf(3, func() {
			for _, p := range pairs {
				queries.ReachableBi(g, p[0], p[1])
			}
		})
		bfsGr := bestOf(3, func() {
			for _, p := range pairs {
				u, v := c.Rewrite(p[0], p[1])
				queries.Reachable(c.Gr, u, v)
			}
		})
		bibfsGr := bestOf(3, func() {
			for _, p := range pairs {
				u, v := c.Rewrite(p[0], p[1])
				queries.ReachableBi(c.Gr, u, v)
			}
		})
		base := float64(bfsG)
		rel := func(d time.Duration) string { return pct(float64(d) / base) }
		t.Rows = append(t.Rows, []string{name, rel(bfsG), rel(bibfsG), rel(bfsGr), rel(bibfsGr)})
	}
	return t
}

// patternSizes are the (Vp, Ep, k) points of Figs. 12(b) and 12(c).
var patternSizes = [][3]int{{3, 3, 3}, {4, 4, 3}, {5, 5, 3}, {6, 6, 3}, {7, 7, 3}, {8, 8, 3}}

func matchTimes(cfg Config, g *graph.Graph, lp int) (onG, onGr []time.Duration) {
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	c := bisim.Compress(g)
	for _, sz := range patternSizes {
		p := gen.Pattern(rng, g, gen.PatternSpec{Nodes: sz[0], Edges: sz[1], Lp: lp, K: sz[2]})
		onG = append(onG, timeIt(func() {
			for r := 0; r < cfg.MatchRounds; r++ {
				pattern.Match(g, p)
			}
		}))
		onGr = append(onGr, timeIt(func() {
			for r := 0; r < cfg.MatchRounds; r++ {
				pattern.Expand(pattern.Match(c.Gr, p), c)
			}
		}))
	}
	return
}

// Fig12b reproduces Fig. 12(b): Match evaluation time on Youtube- and
// Citation-like graphs and their pattern-compressed counterparts, varying
// pattern size.
func Fig12b(cfg Config) *Table {
	t := &Table{
		ID:     "fig12b",
		Title:  "Match time, real-life-like graphs (per pattern size)",
		Header: []string{"pattern", "Youtube G", "Youtube Gr", "Citation G", "Citation Gr"},
		Notes:  []string{"paper: Match on compressed graphs ≈30% of original time"},
	}
	gy := patternDataset("Youtube").Scale(cfg.Scale).Build(cfg.Seed)
	gc := patternDataset("Citation").Scale(cfg.Scale).Build(cfg.Seed)
	yG, yGr := matchTimes(cfg, gy, 0)
	cG, cGr := matchTimes(cfg, gc, 0)
	for i, sz := range patternSizes {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("(%d,%d,%d)", sz[0], sz[1], sz[2]),
			ms(yG[i]), ms(yGr[i]), ms(cG[i]), ms(cGr[i]),
		})
	}
	return t
}

// Fig12c reproduces Fig. 12(c): Match time on synthetic graphs with
// |L| = 10 vs |L| = 20 (paper: |V|=50K, |E|=435K; scaled here).
func Fig12c(cfg Config) *Table {
	t := &Table{
		ID:     "fig12c",
		Title:  "Match time, synthetic graphs (|L|=10 vs |L|=20)",
		Header: []string{"pattern", "G |L|=10", "Gr |L|=10", "G |L|=20", "Gr |L|=20"},
		Notes:  []string{"paper: larger |L| → faster Match, compressed stays ahead"},
	}
	n := int(50000 * cfg.Scale * 0.1)
	if n < 50 {
		n = 50
	}
	m := int(float64(n) * 8.7)
	rng := rand.New(rand.NewSource(cfg.Seed))
	g10 := gen.ErdosRenyi(rng, n, m, 10)
	g20 := gen.ErdosRenyi(rng, n, m, 20)
	a, ar := matchTimes(cfg, g10, 10)
	b, br := matchTimes(cfg, g20, 20)
	for i, sz := range patternSizes {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("(%d,%d,%d)", sz[0], sz[1], sz[2]),
			ms(a[i]), ms(ar[i]), ms(b[i]), ms(br[i]),
		})
	}
	return t
}

// fig12dDatasets mirrors Fig. 12(d).
var fig12dDatasets = []string{"P2P", "wikiVote", "citHepTh", "socEpinions", "facebook", "NotreDame"}

// Fig12d reproduces Fig. 12(d): memory cost of G, its reachability
// compression Gr, and 2-hop indexes built over each, under the uniform
// cost model of hop2.GraphMemoryBytes.
func Fig12d(cfg Config) *Table {
	t := &Table{
		ID:     "fig12d",
		Title:  "Memory cost (KB)",
		Header: []string{"dataset", "G", "Gr", "2-hop on G", "2-hop on Gr"},
		Notes:  []string{"paper: Gr cuts ≥92% of G's memory; 2-hop over G dwarfs both"},
	}
	kb := func(b int64) string { return fmt.Sprintf("%.1f", float64(b)/1024) }
	// Memory accounting only — no timings — so the sweep fans out over the
	// worker pool.
	rows := make([][]string, len(fig12dDatasets))
	forEachLimit(cfg.Workers, len(fig12dDatasets), func(i int) {
		name := fig12dDatasets[i]
		d, _ := gen.DatasetByName(name)
		d = d.Scale(cfg.Scale)
		g := d.Build(cfg.Seed)
		c := reach.Compress(g)
		idxG := hop2.Build(g)
		idxGr := hop2.Build(c.Gr)
		rows[i] = []string{
			name,
			kb(hop2.GraphMemoryBytes(g)),
			kb(hop2.GraphMemoryBytes(c.Gr)),
			kb(idxG.MemoryBytes()),
			kb(idxGr.MemoryBytes()),
		}
	})
	t.Rows = append(t.Rows, rows...)
	return t
}

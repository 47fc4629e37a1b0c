package harness

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bisim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/incbisim"
	"repro/internal/increach"
	"repro/internal/pattern"
	"repro/internal/reach"
)

// incRCMSeries runs the Fig. 12(e)/(f) protocol: starting from a
// socEpinions-like graph, apply successive batches (insertions or
// deletions), and at each point compare the cumulative incremental
// maintenance time against batch recompression of the current graph.
func incRCMSeries(cfg Config, insert bool) *Table {
	dir := "insertions"
	if !insert {
		dir = "deletions"
	}
	t := &Table{
		ID:     "fig12e",
		Title:  "incRCM vs compressR under " + dir + " (socEpinions-like)",
		Header: []string{"Δ|E|", "Δ|E|/|E|", "incRCM (cum)", "compressR"},
		Notes: []string{
			"paper: incremental wins up to ≈20% changes",
			"incRCM (cum) totals every batch so far; compressR is ONE recompression of the current graph",
			"a 0.5% insertion batch costs a fraction of one compressR; the running total passes a single recompression near 3% (EXPERIMENTS.md)",
		},
	}
	if !insert {
		t.ID = "fig12f"
		t.Notes[2] = "deletions only revisit their loss area: all ten batches (5% of |E|) together cost less than one compressR (EXPERIMENTS.md)"
	}
	d, _ := gen.DatasetByName("socEpinions")
	d = d.Scale(cfg.Scale * 2)
	g := d.Build(cfg.Seed)
	baseE := g.NumEdges()
	rng := rand.New(rand.NewSource(cfg.Seed + 2))

	m := increach.New(g.Clone())
	var cumInc time.Duration
	step := baseE / 200 // 0.5% per step
	if step < 1 {
		step = 1
	}
	for i := 1; i <= 10; i++ {
		var batch []graph.Update
		if insert {
			batch = gen.RandomBatch(rng, m.Graph(), step, 1.0)
		} else {
			batch = gen.RandomBatch(rng, m.Graph(), step, 0.0)
		}
		cumInc += timeIt(func() {
			m.Apply(batch)
			m.Compressed()
		})
		snapshot := m.Graph()
		batchTime := timeIt(func() { reach.Compress(snapshot) })
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i*step),
			pct(float64(i*step) / float64(baseE)),
			ms(cumInc),
			ms(batchTime),
		})
	}
	return t
}

// Fig12e reproduces Fig. 12(e): incRCM vs compressR for edge insertions.
func Fig12e(cfg Config) *Table { return incRCMSeries(cfg, true) }

// Fig12f reproduces Fig. 12(f): incRCM vs compressR for edge deletions.
func Fig12f(cfg Config) *Table { return incRCMSeries(cfg, false) }

// Fig12g reproduces Fig. 12(g): incPCM vs compressB vs IncBsim on a
// Youtube-like graph under mixed batch updates.
func Fig12g(cfg Config) *Table {
	t := &Table{
		ID:     "fig12g",
		Title:  "incPCM vs compressB vs IncBsim (Youtube-like, mixed updates)",
		Header: []string{"Δ|E|", "incPCM (cum)", "IncBsim (cum)", "compressB"},
		Notes: []string{
			"paper: incPCM wins up to ≈5K updates and always beats IncBsim",
			"incPCM (cum) totals every batch so far; compressB is ONE recompression: each 2% batch costs less than one compressB,",
			"IncBsim is the same maintainer fed one update at a time: since an update costs the nodes it re-signs, not a stratum, it lands within noise of incPCM —",
			"batching saves minDelta's cancellations and one published view of Gr per batch, patched from the last, is in both columns (EXPERIMENTS.md)",
		},
	}
	g := patternDataset("Youtube").Scale(cfg.Scale).Build(cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed + 3))

	// Each maintainer publishes its first view before the clock starts, as
	// a store does at open; every batch's view is then a patch of the last.
	mBatchwise := incbisim.New(g.Clone())
	mSingly := incbisim.New(g.Clone())
	mBatchwise.View()
	mSingly.View()
	var cumBatchwise, cumSingly time.Duration
	step := g.NumEdges() / 50
	if step < 1 {
		step = 1
	}
	for i := 1; i <= 8; i++ {
		batch := gen.RandomBatch(rng, mBatchwise.Graph(), step, 0.5)
		cumBatchwise += timeIt(func() {
			mBatchwise.Apply(batch)
			mBatchwise.View()
		})
		// IncBsim invokes a single-update algorithm [30] once per update, so
		// it cannot exploit batch-level redundancy (no cross-update minDelta
		// cancellation).
		cumSingly += timeIt(func() {
			for _, up := range batch {
				mSingly.Apply([]graph.Update{up})
			}
			mSingly.View()
		})
		snapshot := mBatchwise.Graph()
		batchTime := timeIt(func() { bisim.Compress(snapshot) })
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i*step), ms(cumBatchwise), ms(cumSingly), ms(batchTime),
		})
	}
	return t
}

// Fig12h reproduces Fig. 12(h): total time of incrementally answering a
// pattern query over an evolving Citation-like graph, comparing
// (1) IncBMatch on G against (2) incPCM to maintain Gr plus Match over the
// view it publishes, as a store does.
func Fig12h(cfg Config) *Table {
	t := &Table{
		ID:     "fig12h",
		Title:  "Incremental querying (Citation-like)",
		Header: []string{"Δ|E|", "IncBMatch on G (cum)", "incPCM+Match on Gr (cum)"},
		Notes:  []string{"paper: beyond ≈8K updates, maintaining and querying Gr wins"},
	}
	g := patternDataset("Citation").Scale(cfg.Scale).Build(cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed + 4))
	// Draw patterns until one matches the graph, so both sides do real
	// matching work (an unmatchable pattern short-circuits immediately).
	p := gen.Pattern(rng, g, gen.PatternSpec{Nodes: 4, Edges: 4, Lp: 8, K: 3})
	for try := 0; try < 50 && !pattern.Match(g, p).OK; try++ {
		p = gen.Pattern(rng, g, gen.PatternSpec{Nodes: 4, Edges: 4, Lp: 8, K: 3})
	}

	matcher := pattern.NewIncMatcher(g.Clone(), p)
	maintainer := incbisim.New(g.Clone())
	maintainer.View()
	var cumMatcher, cumMaintain time.Duration
	step := g.NumEdges() / 40
	if step < 1 {
		step = 1
	}
	for i := 1; i <= 8; i++ {
		batch := gen.RandomBatch(rng, matcher.Graph(), step, 0.5)
		cumMatcher += timeIt(func() {
			matcher.Apply(batch)
			matcher.Result()
		})
		cumMaintain += timeIt(func() {
			maintainer.Apply(batch)
			v, _ := maintainer.View()
			pattern.Expand(pattern.MatchCSR(v.Gr, p), v.Compressed)
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i*step), ms(cumMatcher), ms(cumMaintain),
		})
	}
	return t
}

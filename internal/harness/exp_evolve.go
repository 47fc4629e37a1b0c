package harness

import (
	"fmt"
	"math/rand"

	"repro/internal/bisim"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/reach"
)

// densificationSeries runs the Exp-4 densification protocol for either
// compression scheme: start from |V0| nodes with |E| = |V|^α edges, evolve
// by β node growth per iteration, and record the compression ratio at each
// step for α = 1.05 and α = 1.10 (β = 1.2 fixed, as in the paper).
func densificationSeries(cfg Config, id, title string, nlabels int,
	ratio func(g *graph.Graph) float64) *Table {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"iteration", "|V| (α=1.05)", "ratio (α=1.05)", "|V| (α=1.10)", "ratio (α=1.10)"},
	}
	// Paper starts at |V0| = 1M; scale down hard — densification is about
	// the trend, not the absolute size.
	v0 := int(2000 * cfg.Scale * 10)
	if v0 < 60 {
		v0 = 60
	}
	build := func(alpha float64) *graph.Graph {
		rng := rand.New(rand.NewSource(cfg.Seed))
		g := gen.ErdosRenyi(rng, v0, 0, nlabels)
		gen.Densify(rng, g, alpha, 1.0) // top up edges to |V0|^α
		return g
	}
	g105, g110 := build(1.05), build(1.10)
	rng105 := rand.New(rand.NewSource(cfg.Seed + 5))
	rng110 := rand.New(rand.NewSource(cfg.Seed + 6))
	for i := 0; i < 10; i++ {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%d", g105.NumNodes()), pct(ratio(g105)),
			fmt.Sprintf("%d", g110.NumNodes()), pct(ratio(g110)),
		})
		if i < 9 {
			gen.Densify(rng105, g105, 1.05, 1.2)
			gen.Densify(rng110, g110, 1.10, 1.2)
		}
	}
	return t
}

// Fig12i reproduces Fig. 12(i): RCr under densification — denser graphs
// compress better for reachability.
func Fig12i(cfg Config) *Table {
	t := densificationSeries(cfg, "fig12i", "RCr under densification (β=1.2)", 1,
		func(g *graph.Graph) float64 { return core.Ratio(g, reach.Compress(g).Gr) })
	t.Notes = []string{"paper: RCr falls from ≈2.2% to 0.2% (α=1.05) as density grows"}
	return t
}

// Fig12k reproduces Fig. 12(k): PCr under densification — pattern
// compression is insensitive to densification (paper: stays ≈36–50%).
func Fig12k(cfg Config) *Table {
	t := densificationSeries(cfg, "fig12k", "PCr under densification (|L|=10, β=1.2)", 10,
		func(g *graph.Graph) float64 { return core.Ratio(g, bisim.Compress(g).Gr) })
	t.Notes = []string{"paper: PCr roughly flat in 36–50%"}
	return t
}

// reachDataset returns Table 1's dataset of that name.
func reachDataset(name string) gen.Dataset { return datasetIn(gen.ReachabilityDatasets(), name) }

// patternDataset returns Table 2's labeled dataset of that name. Youtube,
// Internet and P2P are in both tables and gen.DatasetByName finds Table 1's
// single-label variant first — and a one-label graph is ONE bisimulation
// class as soon as every node has a successor, so the pattern figures must
// ask for the labeled variant explicitly.
func patternDataset(name string) gen.Dataset { return datasetIn(gen.PatternDatasets(), name) }

func datasetIn(registry []gen.Dataset, name string) gen.Dataset {
	for _, d := range registry {
		if d.Name == name {
			return d
		}
	}
	panic("harness: no dataset " + name + " in that table's registry")
}

// growthSeries runs the Exp-4 power-law growth protocol: add 5% of |E| per
// step with 80% preferential attachment, recording the ratio after each
// step, for the listed datasets.
func growthSeries(cfg Config, id, title string, datasets []gen.Dataset,
	ratio func(g *graph.Graph) float64) *Table {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"Δ|E|%"},
	}
	graphs := make([]*graph.Graph, len(datasets))
	for i, d := range datasets {
		t.Header = append(t.Header, d.Name)
		graphs[i] = d.Scale(cfg.Scale).Build(cfg.Seed)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	for stepPct := 0; stepPct <= 45; stepPct += 5 {
		row := []string{fmt.Sprintf("%d", stepPct)}
		for _, g := range graphs {
			row = append(row, pct(ratio(g)))
		}
		t.Rows = append(t.Rows, row)
		if stepPct < 45 {
			for _, g := range graphs {
				gen.GrowPowerLaw(rng, g, 0.05, 0.8)
			}
		}
	}
	return t
}

// Fig12j reproduces Fig. 12(j): RCr shrinks as real-life-like graphs gain
// edges.
func Fig12j(cfg Config) *Table {
	t := growthSeries(cfg, "fig12j", "RCr under power-law growth",
		[]gen.Dataset{reachDataset("P2P"), reachDataset("wikiVote"), reachDataset("citHepTh")},
		func(g *graph.Graph) float64 { return core.Ratio(g, reach.Compress(g).Gr) })
	t.Notes = []string{"paper: more edges → more reachability-equivalent nodes → lower RCr"}
	return t
}

// Fig12l reproduces Fig. 12(l): PCr grows with random edge growth, more
// sharply for web-like graphs than social-like ones.
func Fig12l(cfg Config) *Table {
	t := growthSeries(cfg, "fig12l", "PCr under power-law growth",
		[]gen.Dataset{patternDataset("California"), patternDataset("Internet"), patternDataset("Youtube")},
		func(g *graph.Graph) float64 { return core.Ratio(g, bisim.Compress(g).Gr) })
	t.Notes = []string{"paper: new edges diversify neighborhoods, breaking bisimilarity → higher PCr"}
	return t
}

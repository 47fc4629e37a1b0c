package incbisim

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/dynscc"
	"repro/internal/gen"
)

// social16 is the benchmark's write-heavy graph (benchmark/workloads.go);
// the scaling checks below run on it and on its 4× version.
var social16 = gen.Dataset{Name: "social16", V: 15500, E: 79600, Labels: 16, Kind: gen.KindSocial}

// resignedPerUpdate is the ceiling on the nodes a batch re-signs, as a
// multiple of its effective updates, on a social-shaped graph whatever its
// size: each update re-signs its source at every level, and what changes
// class there drags its predecessors one level up. Measured, the worst of
// 120 batches of 32 is between 6 and 7 at 1× and at 4×, the median 2.
const resignedPerUpdate = 10

// patternCost builds social16 scaled by factor, absorbs batches 32-update
// mixed batches after a warm-up and returns incPCM's own time per batch —
// the condensation is applied outside the clock — with the nodes it
// re-signed. Batches that changed the depth build a level and are counted
// apart: what they cost is |V|, seldom.
func patternCost(tb testing.TB, factor, batches int) (ns, resigned []float64, deepened, scans int) {
	d := social16
	d.V, d.E = d.V*factor, d.E*factor
	g := d.Build(1)
	mirror := g.Clone()
	cond := dynscc.New(g)
	m := Over(cond)
	rng := rand.New(rand.NewSource(1))
	const warm = 8
	for i := 0; i < warm+batches; i++ {
		b := gen.RandomBatch(rng, mirror, 32, 0.5)
		mirror.Apply(b)
		eff := g.Reduce(b)
		cond.Apply(eff)
		start := time.Now()
		st := m.Absorb(eff)
		took := time.Since(start)
		scans += st.RepScans
		switch {
		case st.Fallbacks != 0:
			tb.Fatalf("batch %d at %d× refined from the seed: %+v", i, factor, st)
		case st.LevelRebuilds != 0:
			deepened++
		case st.DirtyNodes > resignedPerUpdate*st.EffectiveUpdates:
			tb.Fatalf("batch %d at %d×: %d effective updates re-signed %d nodes of %d, want at most %d×",
				i, factor, st.EffectiveUpdates, st.DirtyNodes, d.V, resignedPerUpdate)
		case i >= warm:
			ns = append(ns, float64(took))
			resigned = append(resigned, float64(st.DirtyNodes))
		}
	}
	return ns, resigned, deepened, scans
}

func median(xs []float64) float64 {
	xs = slices.Clone(xs)
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// TestPatternApplyScalesWithChange holds incPCM to the paper's claim on
// social16 and on its 4× version: a batch re-signs a bounded multiple of
// its effective updates at either size — a count, so it repeats exactly —
// and absorbing it takes at most twice as long on the graph four times the
// size (it took four times as long while a batch re-refined the stratum of
// the giant component). The time is wall-clock, so the test sits behind
// QPGC_BENCH_SMOKE like the other regression smokes.
func TestPatternApplyScalesWithChange(t *testing.T) {
	if os.Getenv("QPGC_BENCH_SMOKE") == "" {
		t.Skip("set QPGC_BENCH_SMOKE=1 to run the benchmark regression smoke")
	}
	const batches = 120
	ns1, re1, deep1, scans1 := patternCost(t, 1, batches)
	ns4, re4, deep4, scans4 := patternCost(t, 4, batches)
	t.Logf("incPCM per 32-update batch at 1×: %.3f ms, %.0f nodes re-signed (max %.0f), %d batches changed the depth, %d scans for a representative",
		median(ns1)/1e6, median(re1), slices.Max(re1), deep1, scans1)
	t.Logf("incPCM per 32-update batch at 4×: %.3f ms, %.0f nodes re-signed (max %.0f), %d batches changed the depth, %d scans for a representative",
		median(ns4)/1e6, median(re4), slices.Max(re4), deep4, scans4)
	if median(ns4) > 2*median(ns1) {
		t.Errorf("absorbing a batch takes %.3f ms at 4× against %.3f ms at 1×, want at most twice", median(ns4)/1e6, median(ns1)/1e6)
	}
	// The one step that reads a whole level: a count too.
	if scans1 > batches/4 || scans4 > batches/4 {
		t.Errorf("%d and %d scans of a level for a lost representative in %d batches, want at most one batch in four", scans1, scans4, batches)
	}
}

// BenchmarkIncPCMApply reports incPCM alone per 32-update batch — time and
// nodes re-signed — at both sizes.
func BenchmarkIncPCMApply(b *testing.B) {
	for _, factor := range []int{1, 4} {
		b.Run(fmt.Sprintf("social16x%d", factor), func(b *testing.B) {
			ns, resigned, _, _ := patternCost(b, factor, b.N+3)
			var sumNs, sumRe float64
			for i := range ns {
				sumNs += ns[i]
				sumRe += resigned[i]
			}
			b.ReportMetric(sumNs/float64(len(ns)), "ns/batch")
			b.ReportMetric(sumRe/float64(len(ns)), "resigned/batch")
		})
	}
}

// viewReadsPerChange is the ceiling on the adjacency rows a patched view
// reads — the predecessors of each moved node and every quotient row it
// rebuilds — as a multiple of the nodes moved plus the sources of the
// updates since the previous view. Measured on the stream below, every one
// of the eight batches reads 1.2–1.3 per change: 319–542 nodes moved (4–7 %
// of 7 750), ≈ 760 sources, ≈ 1 100 rows rebuilt of 2 600–5 000.
const viewReadsPerChange = 2

// TestViewCostsWhatMoved holds View to the paper's claim on the Fig. 12(g)
// stream (Youtube-like at scale 1, seed 42, eight mixed batches of 2 % of
// |E|, 796 updates each): every view after the first is a patch, and the
// adjacency rows it reads stay within viewReadsPerChange times what moved
// plus the sources — counts, not |G|. Behind QPGC_BENCH_SMOKE with the
// other regression smokes.
func TestViewCostsWhatMoved(t *testing.T) {
	if os.Getenv("QPGC_BENCH_SMOKE") == "" {
		t.Skip("set QPGC_BENCH_SMOKE=1 to run the benchmark regression smoke")
	}
	var d gen.Dataset
	for _, x := range gen.PatternDatasets() {
		if x.Name == "Youtube" {
			d = x
		}
	}
	const seed = 42
	g := d.Build(seed)
	rng := rand.New(rand.NewSource(seed + 3))
	m := New(g)
	if _, diff := m.View(); diff.How != Built {
		t.Fatalf("the first view was made %d, want built", diff.How)
	}
	step := g.NumEdges() / 50
	for i := 1; i <= 8; i++ {
		m.Apply(gen.RandomBatch(rng, m.Graph(), step, 0.5))
		srcs := len(m.logSrcs)
		v, diff := m.View()
		if diff.How != Patched {
			t.Fatalf("batch %d: the view was made %d, want patched", i, diff.How)
		}
		change := len(diff.Moved) + srcs
		t.Logf("batch %d: %d moved (%.1f %% of %d nodes), %d sources, %d rows rebuilt of %d, %d adjacency rows read (%.1f per change)",
			i, len(diff.Moved), 100*float64(len(diff.Moved))/float64(g.NumNodes()), g.NumNodes(), srcs,
			len(diff.Rows.IDs), v.Gr.NumNodes(), m.vp.reads, float64(m.vp.reads)/float64(change))
		if m.vp.reads > viewReadsPerChange*change {
			t.Errorf("batch %d: the patch read %d adjacency rows for %d moved nodes and %d sources, want at most %d×",
				i, m.vp.reads, len(diff.Moved), srcs, viewReadsPerChange)
		}
	}
}

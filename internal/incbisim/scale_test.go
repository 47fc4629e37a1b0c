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
	"repro/internal/graph"
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

// patternRun is social16 scaled by factor under a stream of 32-update mixed
// batches, absorbed one at a time by step.
type patternRun struct {
	tb              testing.TB
	factor          int
	g               *graph.Graph
	mirror          *graph.Graph
	cond            *dynscc.Cond
	m               *Maintainer
	rng             *rand.Rand
	batch           int
	ns              []float64 // incPCM's own time per batch, the condensation applied outside the clock
	resigned        []float64 // nodes re-signed per batch
	deepened, scans int
}

// patternWarm is the batches a patternRun absorbs before it records any.
const patternWarm = 8

func newPatternRun(tb testing.TB, factor int) *patternRun {
	d := social16
	d.V, d.E = d.V*factor, d.E*factor
	g := d.Build(1)
	cond := dynscc.New(g)
	return &patternRun{tb: tb, factor: factor, g: g, mirror: g.Clone(), cond: cond, m: Over(cond), rng: rand.New(rand.NewSource(1))}
}

// step absorbs the next batch and records its time and the nodes it
// re-signed. Batches that changed the depth build a level and are counted
// apart: what they cost is |V|, seldom.
func (r *patternRun) step() {
	i := r.batch
	r.batch++
	b := gen.RandomBatch(r.rng, r.mirror, 32, 0.5)
	r.mirror.Apply(b)
	eff := r.g.Reduce(b)
	r.cond.Apply(eff)
	start := time.Now()
	st := r.m.Absorb(eff)
	took := time.Since(start)
	r.scans += st.RepScans
	switch {
	case st.Fallbacks != 0:
		r.tb.Fatalf("batch %d at %d× refined from the seed: %+v", i, r.factor, st)
	case st.LevelRebuilds != 0:
		r.deepened++
	case st.DirtyNodes > resignedPerUpdate*st.EffectiveUpdates:
		r.tb.Fatalf("batch %d at %d×: %d effective updates re-signed %d nodes of %d, want at most %d×",
			i, r.factor, st.EffectiveUpdates, st.DirtyNodes, r.g.NumNodes(), resignedPerUpdate)
	case i >= patternWarm:
		r.ns = append(r.ns, float64(took))
		r.resigned = append(r.resigned, float64(st.DirtyNodes))
	}
}

// patternCost returns a patternRun at factor that has absorbed its warm-up
// and then batches recorded batches.
func patternCost(tb testing.TB, factor, batches int) *patternRun {
	r := newPatternRun(tb, factor)
	for range patternWarm + batches {
		r.step()
	}
	return r
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
	// The two sizes take turns batch by batch, so that a slow stretch of the
	// host lands on both rather than on whichever ran during it.
	r1, r4 := newPatternRun(t, 1), newPatternRun(t, 4)
	for range patternWarm + batches {
		r1.step()
		r4.step()
	}
	for _, r := range []*patternRun{r1, r4} {
		t.Logf("incPCM per 32-update batch at %d×: %.3f ms, %.0f nodes re-signed (max %.0f), %d batches changed the depth, %d scans for a representative",
			r.factor, median(r.ns)/1e6, median(r.resigned), slices.Max(r.resigned), r.deepened, r.scans)
	}
	if median(r4.ns) > 2*median(r1.ns) {
		t.Errorf("absorbing a batch takes %.3f ms at 4× against %.3f ms at 1×, want at most twice", median(r4.ns)/1e6, median(r1.ns)/1e6)
	}
	// The one step that reads a whole level: a count too.
	if r1.scans > batches/4 || r4.scans > batches/4 {
		t.Errorf("%d and %d scans of a level for a lost representative in %d batches, want at most one batch in four", r1.scans, r4.scans, batches)
	}
}

// BenchmarkIncPCMApply reports incPCM alone per 32-update batch — time and
// nodes re-signed — at both sizes.
func BenchmarkIncPCMApply(b *testing.B) {
	for _, factor := range []int{1, 4} {
		b.Run(fmt.Sprintf("social16x%d", factor), func(b *testing.B) {
			r := patternCost(b, factor, b.N+3)
			var sumNs, sumRe float64
			for i := range r.ns {
				sumNs += r.ns[i]
				sumRe += r.resigned[i]
			}
			b.ReportMetric(sumNs/float64(len(r.ns)), "ns/batch")
			b.ReportMetric(sumRe/float64(len(r.ns)), "resigned/batch")
		})
	}
}

// BenchmarkBuild reports a full view build with the locality relabel — what
// every open, materialize and promotion runs once — over the benchmark's two
// graphs as generated, their maximum bisimulations as the partitions.
func BenchmarkBuild(b *testing.B) {
	webcore16 := gen.Dataset{Name: "webcore16", V: 16300, E: 75000, Labels: 16, Kind: gen.KindWebCore}
	for _, d := range []gen.Dataset{social16, webcore16} {
		b.Run(d.Name, func(b *testing.B) {
			g := d.Build(1)
			part := New(g).Partition()
			for b.Loop() {
				if _, err := Build(g, slices.Clone(part.BlockOf), part.NumBlocks(), true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// viewReadsPerChange is the ceiling on the adjacency rows a patched view
// reads — the predecessors and the successors of each moved node and every
// quotient row it rebuilds — as a multiple of the nodes moved plus the
// sources of the updates since the previous view. Measured on the stream
// below, every one of the eight batches reads 1.6–1.7 per change: 319–542
// nodes moved (4–7 % of 7 750), ≈ 760 sources, ≈ 1 100 rows rebuilt of
// 2 600–5 000.
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

package pattern_test

import (
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/incbisim"
	"repro/internal/pattern"
)

// TestRelabelAB measures what the pattern view's locality relabel
// (graph.Reorder inside incbisim.Build) buys Match: the benchmark's 32
// patterns, Match and Expand each, on the epoch-0 pattern view as incPCM
// builds it and on the same partition built without the relabel, 301 pairs
// of passes at GOMAXPROCS 1, the order alternating from pair to pair. It
// logs the median and quartiles of the per-pair ratio without ÷ with, and
// fails only if the two views answer differently. Timing, so it sits behind
// QPGC_BENCH_SMOKE; it asserts no ratio.
func TestRelabelAB(t *testing.T) {
	if os.Getenv("QPGC_BENCH_SMOKE") == "" {
		t.Skip("set QPGC_BENCH_SMOKE=1 to run the benchmark regression smoke")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, gate := range workGates {
		t.Run(gate.d.Name, func(t *testing.T) {
			g := gate.d.Build(1)
			pats := drawPatterns(g)
			part := incbisim.New(g).Partition()
			var views [2]incbisim.View // with the relabel, without it
			for i, relabel := range []bool{true, false} {
				v, err := incbisim.Build(g, slices.Clone(part.BlockOf), part.NumBlocks(), relabel)
				if err != nil {
					t.Fatal(err)
				}
				views[i] = v
			}
			for _, p := range pats {
				a := pattern.Expand(pattern.MatchCSR(views[0].Gr, p), views[0].Compressed)
				b := pattern.Expand(pattern.MatchCSR(views[1].Gr, p), views[1].Compressed)
				for _, r := range []*pattern.Result{a, b} {
					for _, set := range r.Sets {
						slices.Sort(set)
					}
				}
				if !same(a, b) {
					t.Fatal("the relabeled and the unrelabeled view answer differently")
				}
			}
			pass := func(v incbisim.View) float64 {
				start := time.Now()
				for _, p := range pats {
					pattern.Expand(pattern.MatchCSR(v.Gr, p), v.Compressed)
				}
				return float64(time.Since(start))
			}
			for range 5 {
				pass(views[0])
				pass(views[1])
			}
			const pairs = 301
			ratios := make([]float64, pairs)
			for i := range ratios {
				var with, without float64
				if i%2 == 0 {
					with, without = pass(views[0]), pass(views[1])
				} else {
					without, with = pass(views[1]), pass(views[0])
				}
				ratios[i] = without / with
			}
			slices.Sort(ratios)
			t.Logf("Gr %d nodes: Match + Expand without the relabel ÷ with it, over %d pairs: median %.3f (p25 %.3f, p75 %.3f)",
				views[0].Gr.NumNodes(), pairs, ratios[pairs/2], ratios[pairs/4], ratios[3*pairs/4])
		})
	}
}

package qpgc

import (
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/store"
)

// TestObsOverheadRegression is the PR 9 CI gate: batched reads on a fully
// instrumented store (registry bound, scheduler counters, sampled stage
// histograms live) must stay within 10% of the same store without a
// registry. The A/B recorded at PR 9 (EXPERIMENTS.md; BENCHMARK.json's
// `obs.overhead_pct` measures it now) shows the true overhead within 2% on
// a quiet machine; the CI gate is looser because shared runners time
// noisily, and a flaky gate teaches people to ignore it. Interleaved
// best-of passes keep a one-off stall from deciding the comparison. Gated
// behind QPGC_BENCH_SMOKE=1 like the other wall-clock assertions.
func TestObsOverheadRegression(t *testing.T) {
	if os.Getenv("QPGC_BENCH_SMOKE") == "" {
		t.Skip("set QPGC_BENCH_SMOKE=1 to run the benchmark regression smoke")
	}
	rng := rand.New(rand.NewSource(24))
	g := gen.Social(rng, 4000, 24000, 5)
	n := g.NumNodes()
	const np = 1024
	us := make([]graph.Node, np)
	vs := make([]graph.Node, np)
	for i := range us {
		us[i] = graph.Node(rng.Intn(n))
		vs[i] = graph.Node(rng.Intn(n))
	}
	base, err := store.Open(g.Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	reg := obs.NewRegistry()
	instr, err := store.Open(g.Clone(), &store.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer instr.Close()

	pass := func(s *store.Store) time.Duration {
		const rounds = 40
		start := time.Now()
		for r := 0; r < rounds; r++ {
			for off := 0; off < np; off += 64 {
				s.BatchReachable(us[off:off+64], vs[off:off+64])
			}
		}
		return time.Since(start) / rounds
	}
	pass(base) // warm pools and caches on both stores
	pass(instr)
	baseBest, instrBest := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < 5; i++ { // interleaved: noise hits both arms alike
		if d := pass(base); d < baseBest {
			baseBest = d
		}
		if d := pass(instr); d < instrBest {
			instrBest = d
		}
	}
	overhead := instrBest.Seconds()/baseBest.Seconds() - 1
	t.Logf("base:         %v per %d queries (%.0f q/s)", baseBest, np, float64(np)/baseBest.Seconds())
	t.Logf("instrumented: %v per %d queries (%.0f q/s), overhead %+.1f%%", instrBest, np, float64(np)/instrBest.Seconds(), 100*overhead)
	if overhead > 0.10 {
		t.Fatalf("instrumented batched reads %.1f%% over the no-registry baseline (budget 10%%)", 100*overhead)
	}

	// The comparison only counts if the instrumented arm actually recorded:
	// the scrape must carry live scheduler counters and store totals.
	text := reg.PrometheusText()
	for _, fam := range []string{"qpgc_sched_lanes_total", "qpgc_store_reads_total", "qpgc_store_epoch"} {
		if !strings.Contains(text, fam) {
			t.Fatalf("instrumented store's scrape lacks %s — the A/B measured a disconnected registry", fam)
		}
	}
}

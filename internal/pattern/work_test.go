package pattern_test

import (
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/pattern"
	"repro/internal/store"
)

// The benchmark's social16 graph and pattern list (benchmark/workloads.go):
// 32 patterns of 4 nodes and 5 edges over 8 labels, bounds 1–2, drawn from
// seed 1 on the graph built from seed 1.
var (
	social16    = gen.Dataset{Name: "social16", V: 15500, E: 79600, Labels: 16, Kind: gen.KindSocial}
	patternSpec = gen.PatternSpec{Nodes: 4, Edges: 5, Lp: 8, K: 2}
)

// maxRows is the most predecessor rows TestMatchWorkBounded lets the 32
// patterns scan. The counters scan about 168k; the round-based fixpoint
// scanned 572k, re-running reverse passes on unchanged targets.
const maxRows = 250_000

// TestMatchWorkBounded runs the benchmark's 32 patterns on social16's
// epoch-0 pattern quotient, holds each answer to the round-based fixpoint,
// logs the time per pattern and fails above maxRows predecessor rows in
// all. The row count does not depend on the host; the test sits behind
// QPGC_BENCH_SMOKE because building social16 takes a second.
func TestMatchWorkBounded(t *testing.T) {
	if os.Getenv("QPGC_BENCH_SMOKE") == "" {
		t.Skip("set QPGC_BENCH_SMOKE=1 to run the benchmark regression smoke")
	}
	g := social16.Build(1)
	prng := rand.New(rand.NewSource(1))
	pats := make([]*pattern.Pattern, 32)
	for i := range pats {
		pats[i] = gen.Pattern(prng, g, patternSpec)
	}
	s, err := store.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gr := s.Snapshot().Pattern.Gr
	rows, matched := 0, 0
	res := make([]*pattern.Result, len(pats))
	start := time.Now()
	for i, p := range pats {
		var n int
		res[i], n = pattern.MatchCounted(gr, p)
		rows += n
	}
	elapsed := time.Since(start)
	for i, p := range pats {
		if res[i].OK {
			matched++
		}
		if want := pattern.RoundsMatch(gr, p); !same(res[i], want) {
			t.Fatalf("pattern %d: counters and rounds disagree", i)
		}
	}
	t.Logf("Gr %d nodes, %d edges: %d of 32 patterns match, %d predecessor rows, %.3f ms per pattern",
		gr.NumNodes(), gr.NumEdges(), matched, rows, float64(elapsed.Microseconds())/1e3/32)
	if rows > maxRows {
		t.Errorf("32 patterns scanned %d predecessor rows, want at most %d", rows, maxRows)
	}
}

func same(a, b *pattern.Result) bool {
	if a.OK != b.OK || len(a.Sets) != len(b.Sets) {
		return false
	}
	for u := range a.Sets {
		if len(a.Sets[u]) != len(b.Sets[u]) {
			return false
		}
		for i := range a.Sets[u] {
			if a.Sets[u][i] != b.Sets[u][i] {
				return false
			}
		}
	}
	return true
}

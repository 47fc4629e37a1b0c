package pattern_test

import (
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/pattern"
	"repro/internal/store"
)

// The benchmark's two graphs and pattern list (benchmark/workloads.go): 32
// patterns of 4 nodes and 5 edges over 8 labels, bounds 1–2, drawn from
// seed 1 on the graph built from seed 1. read-inproc matches on webcore16,
// the other workloads on social16.
var (
	webcore16   = gen.Dataset{Name: "webcore16", V: 16300, E: 75000, Labels: 16, Kind: gen.KindWebCore}
	social16    = gen.Dataset{Name: "social16", V: 15500, E: 79600, Labels: 16, Kind: gen.KindSocial}
	patternSpec = gen.PatternSpec{Nodes: 4, Edges: 5, Lp: 8, K: 2}
)

// workGates holds each graph's most predecessor rows and adjacency
// entries (in-rows and out-rows alike) TestMatchWorkBounded lets the 32
// patterns scan: 10 % above what the counters scan when they examine edges
// cheapest target first and count each target's top level from the side
// that scans fewer rows — 29 067 rows and 170 517 entries on webcore16,
// 55 804 and 658 410 on social16. Pushing every top level scanned 37 013
// rows and 216 822 entries on webcore16, 150 621 and 1 436 566 on
// social16; in pattern-edge order the rows were 117 211 and 170 865, and
// the round-based fixpoint scanned 572 452 rows on social16.
var workGates = []struct {
	d                   gen.Dataset
	maxRows, maxEntries int
}{
	{webcore16, 32_000, 188_000},
	{social16, 61_400, 725_000},
}

// maxMatchBytes is the most TestMatchAllocatesWhatItTouches lets one
// Snapshot.Match allocate, on average over the 32 patterns, with the
// scratch pool warm. A match that scans the label array and allocates
// np·|Gr| flags per query took 107.6 KB on webcore16.
const maxMatchBytes = 32 << 10

// benchPatterns opens a store on d built from seed 1 and draws the
// benchmark's 32 patterns on it.
func benchPatterns(t testing.TB, d gen.Dataset) (*store.Store, []*pattern.Pattern) {
	t.Helper()
	g := d.Build(1)
	prng := rand.New(rand.NewSource(1))
	pats := make([]*pattern.Pattern, 32)
	for i := range pats {
		pats[i] = gen.Pattern(prng, g, patternSpec)
	}
	s, err := store.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, pats
}

// TestMatchWorkBounded runs the benchmark's 32 patterns on each graph's
// epoch-0 pattern quotient, holds each answer to the round-based fixpoint,
// logs the time per pattern and fails above the graph's row or entry
// gate. The counts do not depend on the host; the test sits behind QPGC_BENCH_SMOKE
// because building the graphs takes seconds.
func TestMatchWorkBounded(t *testing.T) {
	if os.Getenv("QPGC_BENCH_SMOKE") == "" {
		t.Skip("set QPGC_BENCH_SMOKE=1 to run the benchmark regression smoke")
	}
	for _, gate := range workGates {
		t.Run(gate.d.Name, func(t *testing.T) {
			s, pats := benchPatterns(t, gate.d)
			gr := s.Snapshot().Pattern.Gr
			var w pattern.Work
			matched := 0
			res := make([]*pattern.Result, len(pats))
			start := time.Now()
			for i, p := range pats {
				var pw pattern.Work
				res[i], pw = pattern.MatchCounted(gr, p)
				w.Rows += pw.Rows
				w.Entries += pw.Entries
				w.Built += pw.Built
				w.Pulled += pw.Pulled
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
			t.Logf("Gr %d nodes, %d edges: %d of 32 patterns match, %d predecessor rows, %d adjacency entries, %d of %d top levels pulled, %.3f ms per pattern",
				gr.NumNodes(), gr.NumEdges(), matched, w.Rows, w.Entries, w.Pulled, w.Built, float64(elapsed.Microseconds())/1e3/32)
			if w.Rows > gate.maxRows {
				t.Errorf("32 patterns scanned %d predecessor rows, want at most %d", w.Rows, gate.maxRows)
			}
			if w.Entries > gate.maxEntries {
				t.Errorf("32 patterns scanned %d adjacency entries, want at most %d", w.Entries, gate.maxEntries)
			}
		})
	}
}

// BenchmarkMatchPass runs the benchmark's 32 patterns over each graph's
// epoch-0 pattern quotient, the refinement alone (no Expand), and reports
// the time per pattern.
func BenchmarkMatchPass(b *testing.B) {
	for _, gate := range workGates {
		b.Run(gate.d.Name, func(b *testing.B) {
			s, pats := benchPatterns(b, gate.d)
			gr := s.Snapshot().Pattern.Gr
			passes := 0
			for b.Loop() {
				for _, p := range pats {
					pattern.MatchCSR(gr, p)
				}
				passes++
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(passes*len(pats)), "ns/pattern")
		})
	}
}

// TestMatchAllocatesWhatItTouches holds Snapshot.Match — the match on the
// pattern quotient and its expansion to G — to maxMatchBytes per pattern
// over the benchmark's 32 patterns, once the label index is built and the
// scratch pool is warm. It counts bytes, not time, but sits behind
// QPGC_BENCH_SMOKE because building the graphs takes seconds.
func TestMatchAllocatesWhatItTouches(t *testing.T) {
	if os.Getenv("QPGC_BENCH_SMOKE") == "" {
		t.Skip("set QPGC_BENCH_SMOKE=1 to run the benchmark regression smoke")
	}
	for _, gate := range workGates {
		t.Run(gate.d.Name, func(t *testing.T) {
			s, pats := benchPatterns(t, gate.d)
			sn := s.Snapshot()
			for _, p := range pats {
				sn.Match(p)
			}
			const rounds = 8
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range rounds {
				for _, p := range pats {
					sn.Match(p)
				}
			}
			runtime.ReadMemStats(&after)
			per := float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*len(pats))
			t.Logf("Gr %d nodes, G %d nodes: %.1f KB allocated per Snapshot.Match",
				sn.Pattern.Gr.NumNodes(), sn.G.NumNodes(), per/1024)
			if per > maxMatchBytes {
				t.Errorf("Snapshot.Match allocates %.0f B per pattern, want at most %d", per, maxMatchBytes)
			}
		})
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

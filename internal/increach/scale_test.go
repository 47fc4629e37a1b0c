package increach

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/dynscc"
	"repro/internal/gen"
)

// social16 is the benchmark's write-heavy graph (benchmark/workloads.go).
var social16 = gen.Dataset{Name: "social16", V: 15500, E: 79600, Labels: 16, Kind: gen.KindSocial}

// lateBatchBytes is the ceiling on the median bytes a late batch allocates
// in Absorb. Running the batch compressor over H allocated ≈ 11 MB there;
// the quotient kernel allocates Gr and little else.
const lateBatchBytes = 2 << 20

// TestReachApplyScalesWithHistory runs 500 batches of 32 mixed updates on
// social16, as the write-mono benchmark does, while the reach quotient
// decays from a few dozen classes to thousands. It logs Absorb's median time
// and |H| over the first and the last 50 batches — the condensation is
// applied outside the clock — and fails if a late batch allocates more than
// lateBatchBytes, the one number here that does not depend on the host. The
// time is wall-clock, so the test sits behind QPGC_BENCH_SMOKE like the
// other regression smokes.
func TestReachApplyScalesWithHistory(t *testing.T) {
	if os.Getenv("QPGC_BENCH_SMOKE") == "" {
		t.Skip("set QPGC_BENCH_SMOKE=1 to run the benchmark regression smoke")
	}
	const batches, window = 500, 50
	g := social16.Build(1)
	mirror := g.Clone()
	cond := dynscc.New(g)
	m := Over(cond)
	rng := rand.New(rand.NewSource(1))
	ns, bytes, hs := make([]float64, batches), make([]float64, batches), make([]float64, batches)
	var ms runtime.MemStats
	for i := range batches {
		b := gen.RandomBatch(rng, mirror, 32, 0.5)
		mirror.Apply(b)
		eff := g.Reduce(b)
		d := cond.Apply(eff)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		start := time.Now()
		st := m.Absorb(len(eff), d)
		ns[i] = float64(time.Since(start))
		runtime.ReadMemStats(&ms)
		bytes[i] = float64(ms.TotalAlloc - before)
		hs[i] = float64(st.H)
	}
	late := batches - window
	for _, from := range []int{0, late} {
		to := from + window
		t.Logf("incRCM Absorb, batches %d–%d (medians): %.3f ms, %.2f MB allocated, |H| %.0f",
			from+1, to, median(ns[from:to])/1e6, median(bytes[from:to])/(1<<20), median(hs[from:to]))
	}
	t.Logf("|Gr| after %d batches: %d classes", batches, m.Compressed().NumClasses())
	if got := median(bytes[late:]); got > lateBatchBytes {
		t.Errorf("a late batch allocates %.2f MB in Absorb (median of batches 451–500), want at most %.0f MB",
			got/(1<<20), float64(lateBatchBytes)/(1<<20))
	}
}

func median(xs []float64) float64 {
	xs = slices.Clone(xs)
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// TestViewAllocatesClassMapOnly gates what publishing a rebuilt reach view
// costs on social16 after the write-mono stream has run a while: View
// allocates the flat node → class map, 4 bytes a node of G, and at most
// viewBytesPerGr a node or edge of Gr besides, plus one page for the
// rounding of a large allocation — no member lists and no renumbered copy
// of Gr. Each measured call follows a batch that moved the compression, so
// the view is made anew. Allocation counts, not time, so it needs no
// QPGC_BENCH_SMOKE.
func TestViewAllocatesClassMapOnly(t *testing.T) {
	const viewBytesPerGr, page = 8, 8192
	g := social16.Build(1)
	mirror := g.Clone()
	m := New(g)
	rng := rand.New(rand.NewSource(1))
	apply := func() {
		b := gen.RandomBatch(rng, mirror, 32, 0.5)
		mirror.Apply(b)
		m.Apply(b)
	}
	for range 100 {
		apply()
	}
	v, _ := m.View(false)
	gr := v.Gr
	var ms runtime.MemStats
	least, rebuilt := uint64(math.MaxUint64), 0
	for rebuilt < 5 {
		apply()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		_, d := m.View(false)
		runtime.ReadMemStats(&ms)
		if d.How == Rebuilt {
			least = min(least, ms.TotalAlloc-before)
			rebuilt++
		}
	}
	n := g.NumNodes()
	limit := 4*n + viewBytesPerGr*gr.Size() + page
	t.Logf("View on social16 after 100 batches: %d B allocated, %.2f B per node of G; |Gr| %d nodes + %d edges; limit %d B",
		least, float64(least)/float64(n), gr.NumNodes(), gr.NumEdges(), limit)
	if least > uint64(limit) {
		t.Errorf("View allocates %d B, want at most %d (4 B per node of G, %d per node or edge of Gr, one page)", least, limit, viewBytesPerGr)
	}
}

package qpgc

import (
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/bisim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/maintain"
	"repro/internal/reach"
	"repro/internal/store"
)

// TestBatchThroughputRegression is the CI benchmark-regression smoke: on a
// collapsed-quotient social graph, the batched read path must sustain
// strictly higher aggregate reachability throughput than the scalar one at
// batch=64 — the PR 5 invariant this repository must never regress. It is
// gated behind QPGC_BENCH_SMOKE=1 because wall-clock assertions do not
// belong in the default unit-test run; CI sets the variable on a dedicated
// step. The margin on quiet machines is several-fold (EXPERIMENTS.md,
// "Batched reads"; BENCHMARK.json's `batch_qps` tracks it now), so a
// strict > comparison over sustained averages stays robust against runner
// noise.
func TestBatchThroughputRegression(t *testing.T) {
	if os.Getenv("QPGC_BENCH_SMOKE") == "" {
		t.Skip("set QPGC_BENCH_SMOKE=1 to run the benchmark regression smoke")
	}
	rng := rand.New(rand.NewSource(21))
	g := gen.Social(rng, 4000, 24000, 5)
	n := g.NumNodes()
	const np = 256
	us := make([]graph.Node, np)
	vs := make([]graph.Node, np)
	for i := range us {
		us[i] = graph.Node(rng.Intn(n))
		vs[i] = graph.Node(rng.Intn(n))
	}
	s, err := store.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	sustained := func(fn func()) time.Duration {
		const rounds = 50
		fn() // warm pools and caches
		start := time.Now()
		for r := 0; r < rounds; r++ {
			fn()
		}
		return time.Since(start) / rounds
	}
	scalar := sustained(func() {
		for i := range us {
			s.Reachable(us[i], vs[i])
		}
	})
	batched := sustained(func() {
		for off := 0; off < np; off += 64 {
			s.BatchReachable(us[off:off+64], vs[off:off+64])
		}
	})
	t.Logf("scalar: %v per %d queries (%.0f q/s)", scalar, np, float64(np)/scalar.Seconds())
	t.Logf("batched: %v per %d queries (%.0f q/s)", batched, np, float64(np)/batched.Seconds())
	if batched >= scalar {
		t.Fatalf("batched aggregate throughput regressed: %v per pass vs scalar %v", batched, scalar)
	}

	// The answers feeding the timing must agree, or the numbers are moot.
	out := s.BatchReachable(us, vs)
	for i := range us {
		if want := s.Reachable(us[i], vs[i]); out[i] != want {
			t.Fatalf("batched answer %d diverged from scalar", i)
		}
	}
}

// TestBatchSchedThroughputRegression is the PR 8 CI gate: on a machine with
// cores to spare, pushing a whole batch through the multi-wave scheduler
// (which clusters lanes and runs waves on a worker pool) must sustain at
// least the throughput of feeding the same pairs as sequential single
// 64-lane waves. It needs >= 4 CPUs because on one P the scheduler
// deliberately degenerates to the inline single-wave loop — there is no
// parallelism to win, so parity, not speedup, is all one core can promise.
func TestBatchSchedThroughputRegression(t *testing.T) {
	if os.Getenv("QPGC_BENCH_SMOKE") == "" {
		t.Skip("set QPGC_BENCH_SMOKE=1 to run the benchmark regression smoke")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("scheduler gate needs >= 4 CPUs, have %d", runtime.NumCPU())
	}
	rng := rand.New(rand.NewSource(22))
	g := gen.Citation(rng, 12000, 96000, 5)
	n := g.NumNodes()
	const np = 2048
	us := make([]graph.Node, np)
	vs := make([]graph.Node, np)
	for i := range us {
		us[i] = graph.Node(rng.Intn(n))
		vs[i] = graph.Node(rng.Intn(n))
	}
	s, err := store.Open(g, &store.Options{Indexes: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetSchedWorkers(4)

	sustained := func(fn func()) time.Duration {
		const rounds = 30
		fn() // warm pools, hop2 index, hub cache
		start := time.Now()
		for r := 0; r < rounds; r++ {
			fn()
		}
		return time.Since(start) / rounds
	}
	single := sustained(func() {
		for off := 0; off < np; off += 64 {
			s.BatchReachable(us[off:off+64], vs[off:off+64])
		}
	})
	sched := sustained(func() {
		s.BatchReachable(us, vs)
	})
	t.Logf("single-wave: %v per %d queries (%.0f q/s)", single, np, float64(np)/single.Seconds())
	t.Logf("scheduled:   %v per %d queries (%.0f q/s)", sched, np, float64(np)/sched.Seconds())
	if sched > single {
		t.Fatalf("scheduled batch slower than sequential single waves: %v vs %v per pass", sched, single)
	}
	st := s.SchedStats()
	if st.Waves == 0 || st.Lanes == 0 {
		t.Fatalf("scheduler never ran a wave: %+v", st)
	}
}

// TestBatchSchedScalingSmoke drives the identical scheduled batch at
// GOMAXPROCS 1 and 4 against one pinned epoch and requires real scaling
// from the extra cores — the multi-wave point of the scheduler. The 1.7x
// floor is deliberately below linear: CI runners share their cores, and a
// flaky gate teaches people to ignore it.
func TestBatchSchedScalingSmoke(t *testing.T) {
	if os.Getenv("QPGC_BENCH_SMOKE") == "" {
		t.Skip("set QPGC_BENCH_SMOKE=1 to run the benchmark regression smoke")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("scaling smoke needs >= 4 CPUs, have %d", runtime.NumCPU())
	}
	rng := rand.New(rand.NewSource(23))
	g := gen.Citation(rng, 12000, 96000, 5)
	n := g.NumNodes()
	const np = 4096
	us := make([]graph.Node, np)
	vs := make([]graph.Node, np)
	for i := range us {
		us[i] = graph.Node(rng.Intn(n))
		vs[i] = graph.Node(rng.Intn(n))
	}
	s, err := store.Open(g, &store.Options{Indexes: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetSchedWorkers(4)

	measure := func(procs int) time.Duration {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		const rounds = 20
		s.BatchReachable(us, vs) // warm at this width
		start := time.Now()
		for r := 0; r < rounds; r++ {
			s.BatchReachable(us, vs)
		}
		return time.Since(start) / rounds
	}
	d1 := measure(1)
	d4 := measure(4)
	speedup := d1.Seconds() / d4.Seconds()
	t.Logf("GOMAXPROCS=1: %v per %d queries (%.0f q/s)", d1, np, float64(np)/d1.Seconds())
	t.Logf("GOMAXPROCS=4: %v per %d queries (%.0f q/s), speedup %.2fx", d4, np, float64(np)/d4.Seconds(), speedup)
	if speedup < 1.7 {
		t.Fatalf("scheduled batch does not scale with cores: %.2fx speedup 1->4", speedup)
	}
}

// TestIncrementalBeatsBatchRegression is the write path's CI gate, the
// paper's Fig. 12(e–g) as an inequality: on a 4k-node social graph, twenty
// 32-update batches through the paired incremental maintainers — shared
// graph and condensation, incRCM regrouping on Gr, incPCM re-refining dirty
// strata — must cost less in total than recompressing the graph under both
// schemes after each batch. Before the maintainers were rebuilt the
// incremental side lost this comparison on the repository's own benchmark
// graphs; the margin is now several-fold, so a strict < over twenty-batch
// totals is robust against runner noise. Both sides must also agree on the
// answer, or the timing is moot.
func TestIncrementalBeatsBatchRegression(t *testing.T) {
	if os.Getenv("QPGC_BENCH_SMOKE") == "" {
		t.Skip("set QPGC_BENCH_SMOKE=1 to run the benchmark regression smoke")
	}
	rng := rand.New(rand.NewSource(24))
	g := gen.Social(rng, 4000, 24000, 8)
	mirror := g.Clone()
	pair := maintain.New(g, nil)
	var incremental, batch time.Duration
	for i := 0; i < 20; i++ {
		b := gen.RandomBatch(rng, mirror, 32, 0.5)
		mirror.Apply(b)

		start := time.Now()
		pair.Apply(b)
		incremental += time.Since(start)

		start = time.Now()
		rc := reach.Compress(mirror)
		pc := bisim.Compress(mirror)
		batch += time.Since(start)

		if got := pair.Reach.Compressed(); got.NumClasses() != rc.NumClasses() || got.Gr.NumEdges() != rc.Gr.NumEdges() {
			t.Fatalf("batch %d: maintained reach quotient %v, recompressed %v", i, got.Gr, rc.Gr)
		}
		if got := pair.Pattern.Compressed(); got.NumClasses() != pc.NumClasses() || got.Gr.NumEdges() != pc.Gr.NumEdges() {
			t.Fatalf("batch %d: maintained pattern quotient %v, recompressed %v", i, got.Gr, pc.Gr)
		}
	}
	t.Logf("incremental: %v for 20 batches (%v per batch)", incremental, incremental/20)
	t.Logf("recompress:  %v for 20 batches (%v per batch)", batch, batch/20)
	if incremental >= batch {
		t.Fatalf("incremental maintenance lost to recompression: %v vs %v over 20 batches", incremental, batch)
	}
}

package store

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/queries"
)

// TestSchedDifferential pins the tentpole equality for the multi-wave
// scheduler: on every topology and worker count k∈{1,4}, a scheduled batch
// (many concurrent clustered waves), a single-wave sequential batch on the
// same snapshot and the scalar path must all agree — on both store kinds.
func TestSchedDifferential(t *testing.T) {
	for name, g := range shardedTopologies(61) {
		for _, workers := range []int{1, 4} {
			rng := rand.New(rand.NewSource(int64(workers)))
			nodes := g.NumNodes()
			us, vs := randomPairs(rng, nodes, 500)

			s := mustOpen(t, g.Clone(), &Options{Indexes: true})
			s.SetSchedWorkers(workers)
			sn := s.Snapshot()
			want := make([]bool, len(us))
			for i := range us {
				want[i] = s.Reachable(us[i], vs[i])
			}
			single := make([]bool, len(us))
			sn.BatchReachable(queries.NewBatchScratch(0), us, vs, single)
			sched := s.BatchReachable(us, vs) // >64 pairs: scheduler waves
			for i := range us {
				if single[i] != want[i] || sched[i] != want[i] {
					t.Fatalf("%s w=%d: QR(%d,%d) scalar=%v single-wave=%v scheduled=%v",
						name, workers, us[i], vs[i], want[i], single[i], sched[i])
				}
			}
			if st := s.SchedStats(); st.Waves == 0 {
				t.Fatalf("%s w=%d: a 500-pair batch made no scheduler wave", name, workers)
			}
			s.Close()

			ss := mustOpenSharded(t, g.Clone(), &ShardedOptions{Shards: 3, Indexes: true})
			ss.SetSchedWorkers(workers)
			ssn := ss.Snapshot()
			ssingle := make([]bool, len(us))
			ssn.BatchReachable(NewBatchRouteScratch(), us, vs, ssingle)
			ssched := ss.BatchReachable(us, vs)
			for i := range us {
				if swant := ss.Reachable(us[i], vs[i]); ssingle[i] != swant || ssched[i] != swant || swant != want[i] {
					t.Fatalf("%s w=%d sharded: QR(%d,%d) disagreement", name, workers, us[i], vs[i])
				}
			}
			ss.Close()
		}
	}
}

// TestSchedRaceStress mixes many simultaneous scheduler waves (pinned
// batches) and point reads with live writes on both store kinds, each once
// with too few locality buckets for the cluster sort and once with enough,
// so the batch's cluster key — bound to the snapshot the batch pinned —
// runs while epochs swap under it. Two bounds hold every answer observed
// mid-stress. A pinned batch answers == Reachable at its pinned epoch: the
// whole batch equals the scalar answers of one epoch between the store's
// Epoch() before and after the call. And writes are insert-only, so
// reachability grows monotonically: every point read lies between the
// pre-stress and post-stress scalar answers. A batch torn across epochs, a
// stale hub row, or a scratch race break one or the other. Run under -race
// in CI.
func TestSchedRaceStress(t *testing.T) {
	social := gen.Social(rand.New(rand.NewSource(7)), 300, 1200, 4)
	citation := gen.Citation(rand.New(rand.NewSource(9)), 2000, 8000, 4)

	type kind struct {
		name      string
		nodes     int
		clustered bool // enough locality buckets for the cluster sort
		buckets   func() int
		batch     func(us, vs []graph.Node) []bool
		scal      func(u, v graph.Node) bool
		epoch     func() uint64
		apply     func([]graph.Update) error
		close     func() error
	}
	monoKind := func(name string, g *graph.Graph, clustered bool) kind {
		s := mustOpen(t, g.Clone(), &Options{Indexes: true})
		s.SetSchedWorkers(4)
		return kind{name, g.NumNodes(), clustered,
			func() int { return (s.Snapshot().Reach.Gr.NumNodes() + 63) / 64 },
			s.BatchReachable, s.Reachable, s.Epoch,
			func(b []graph.Update) error { _, err := s.ApplyBatch(b); return err }, s.Close}
	}
	shardedKind := func(name string, shards int, clustered bool) kind {
		s := mustOpenSharded(t, social.Clone(), &ShardedOptions{Shards: shards, Indexes: true})
		s.SetSchedWorkers(4)
		return kind{name, social.NumNodes(), clustered,
			func() int { return len(s.Snapshot().Shards) },
			s.BatchReachable, s.Reachable, s.Epoch,
			func(b []graph.Update) error { _, err := s.ApplyBatch(b); return err }, s.Close}
	}
	kinds := []kind{
		monoKind("mono", social, false),
		shardedKind("sharded", 3, false),
		monoKind("mono/clustered", citation, true),
		shardedKind("sharded/clustered", schedClusterMinBuckets+2, true),
	}
	for _, k := range kinds {
		rng := rand.New(rand.NewSource(8))
		us, vs := randomPairs(rng, k.nodes, 220)
		batches := make([][]graph.Update, 24)
		for b := range batches {
			for e := 0; e < 8; e++ {
				batches[b] = append(batches[b], graph.Insertion(graph.Node(rng.Intn(k.nodes)), graph.Node(rng.Intn(k.nodes))))
			}
		}
		if got := k.buckets() > schedClusterMinBuckets; got != k.clustered {
			t.Fatalf("%s: %d locality buckets, cluster sort = %v, want %v; resize the test graph", k.name, k.buckets(), got, k.clustered)
		}
		scalars := func() []bool {
			out := make([]bool, len(us))
			for i := range us {
				out[i] = k.scal(us[i], vs[i])
			}
			return out
		}
		// atEpoch[e] is the scalar truth at epoch e, taken by the one writer
		// between its applies.
		atEpoch := [][]bool{scalars()}
		before := atEpoch[0]

		type pinned struct {
			e0, e1 uint64
			out    []bool
		}
		stop := make(chan struct{})
		// The writer starts once a pinned batch is under way: that batch
		// overlaps the writes and finishes before its reader sees stop,
		// however fast the writes are.
		started := make(chan struct{})
		var startOnce sync.Once
		var wg sync.WaitGroup
		var mu sync.Mutex
		var seen [][]bool
		var seenPinned []pinned
		for r := 0; r < 3; r++ { // pinned-batch readers: concurrent wave storms
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					e0 := k.epoch()
					startOnce.Do(func() { close(started) })
					out := k.batch(us, vs)
					e1 := k.epoch()
					mu.Lock()
					seenPinned = append(seenPinned, pinned{e0, e1, out})
					mu.Unlock()
				}
			}()
		}
		for r := 0; r < 3; r++ { // point readers, each on its own goroutine
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for round := 0; ; round++ {
					select {
					case <-stop:
						return
					default:
					}
					out := make([]bool, len(us))
					copy(out, before) // untested lanes satisfy the bound
					for i := r; i < len(us); i += 3 {
						out[i] = k.scal(us[i], vs[i])
					}
					mu.Lock()
					seen = append(seen, out)
					mu.Unlock()
				}
			}(r)
		}
		<-started
		for _, b := range batches {
			if err := k.apply(b); err != nil {
				t.Fatalf("%s: ApplyBatch: %v", k.name, err)
			}
			atEpoch = append(atEpoch, scalars())
		}
		close(stop)
		wg.Wait()
		after := atEpoch[len(atEpoch)-1]
		for _, out := range seen {
			for i := range us {
				if before[i] && !out[i] {
					t.Fatalf("%s: QR(%d,%d) was true before the stress and came back false mid-stress", k.name, us[i], vs[i])
				}
				if out[i] && !after[i] {
					t.Fatalf("%s: QR(%d,%d) came back true mid-stress but is false after (insert-only writes)", k.name, us[i], vs[i])
				}
			}
		}
		if len(seenPinned) == 0 {
			t.Fatalf("%s: no pinned batch finished during the stress", k.name)
		}
		for _, p := range seenPinned {
			// The snapshot swap precedes the Epoch() bump, so the batch may
			// have pinned one epoch past the e1 it read.
			ok := false
			for e := p.e0; e <= min(p.e1+1, uint64(len(atEpoch)-1)) && !ok; e++ {
				ok = slices.Equal(p.out, atEpoch[e])
			}
			if !ok {
				t.Fatalf("%s: a batch issued between epochs %d and %d equals the scalar answers of no single epoch in that range", k.name, p.e0, p.e1)
			}
		}
		if err := k.close(); err != nil {
			t.Fatalf("%s: Close: %v", k.name, err)
		}
	}
}

// TestHubCacheEpochInvariant pins the cache invariant: a snapshot builds
// its hub cache only after the amortization gate opens, the cached answers
// match the scalar path, and an epoch swap retires the cache with its
// snapshot — the fresh snapshot starts with no hub rows and fresh
// counters, so a cached reach-set never outlives its epoch.
func TestHubCacheEpochInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := gen.Citation(rng, 3000, 24000, 5)
	s := mustOpen(t, g, &Options{Indexes: false}) // no hop2 peel: lanes must hit the sweep
	defer s.Close()
	sn := s.Snapshot()
	if n := sn.Reach.Gr.NumNodes(); n < hubCacheMinNodes {
		t.Fatalf("quotient has %d classes, below hubCacheMinNodes=%d; grow the test graph", n, hubCacheMinNodes)
	}
	us, vs := randomPairs(rng, 3000, 600)
	got := s.BatchReachable(us, vs) // 600 lanes > hubCacheBuildLanes: gate opens
	h := sn.hub.hub.Load()
	if h == nil || len(h.rows) == 0 {
		t.Fatal("hub cache not built despite an amortizing lane volume on a large quotient")
	}
	for i := range us {
		if want := s.Reachable(us[i], vs[i]); got[i] != want {
			t.Fatalf("hub-cached QR(%d,%d)=%v, scalar says %v", us[i], vs[i], got[i], want)
		}
	}
	if _, err := s.ApplyBatch([]graph.Update{graph.Insertion(1, 2)}); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	sn2 := s.Snapshot()
	if sn2 == sn {
		t.Fatal("epoch swap did not publish a fresh snapshot")
	}
	if sn2.hub.hub.Load() != nil {
		t.Fatal("fresh snapshot inherited a hub cache from the previous epoch")
	}
	if sn2.swept.Load() != 0 {
		t.Fatal("fresh snapshot inherited lane counters from the previous epoch")
	}
	got2 := s.BatchReachable(us, vs)
	for i := range us {
		if want := s.Reachable(us[i], vs[i]); got2[i] != want {
			t.Fatalf("post-swap QR(%d,%d)=%v, scalar says %v", us[i], vs[i], got2[i], want)
		}
	}
	if st := s.SchedStats(); st.HubCacheLanes+st.HubCachePrunes == 0 {
		t.Fatal("hub cache built but never answered or pruned a lane")
	}
}

// stubKey clusters a stub batch by its source id.
func stubKey(u, v graph.Node) uint64 { return (uint64(u)&0xFFFFF)<<20 | uint64(v)&0xFFFFF }

// TestSchedulerRunPinned unit-tests the scheduler against a stub runner:
// pinned waves cluster by key and scatter through the permutation correctly,
// and a changed worker setting takes.
func TestSchedulerRunPinned(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // one P starts no helper
	var mu sync.Mutex
	var waves [][]graph.Node
	var sc scheduler
	sc.setWorkers(2)

	// Pinned: interleaved keys must come back correctly scattered, and the
	// clustering sort must group equal-key lanes into the same waves.
	n := 300
	us := make([]graph.Node, n)
	vs := make([]graph.Node, n)
	for i := range us {
		us[i] = graph.Node(i % 5) // 5 locality buckets, interleaved
		vs[i] = graph.Node(i)
	}
	run := func(wus, wvs []graph.Node, wout []bool) {
		mu.Lock()
		waves = append(waves, append([]graph.Node(nil), wus...))
		mu.Unlock()
		for i := range wus {
			wout[i] = wus[i] < wvs[i]
		}
	}
	check := func(when string) {
		t.Helper()
		out := make([]bool, n)
		sc.runPinned(us, vs, out, schedClusterMinBuckets+1, stubKey, run) // enough buckets: cluster-sort
		for i := range us {
			if out[i] != (us[i] < vs[i]) {
				t.Fatalf("%s: pinned lane %d: out=%v want %v (scatter through perm broken)", when, i, out[i], us[i] < vs[i])
			}
		}
	}
	check("open")
	mu.Lock()
	for _, w := range waves {
		for j := 1; j < len(w); j++ {
			if w[j] < w[j-1] {
				t.Fatalf("wave not clustered: keys %v", w)
			}
		}
	}
	mu.Unlock()
	if st := sc.stats(); st.ClusteredLanes == 0 || st.Waves == 0 || st.Lanes != uint64(n) {
		t.Fatalf("clustering never counted: %+v", st)
	}

	sc.setWorkers(4)
	if st := sc.stats(); st.Workers != 4 {
		t.Fatalf("setWorkers(4): stats says %d", st.Workers)
	}
	check("resized")
	if st := sc.stats(); st.WavesInFlight != 0 || sc.helpers.Load() != 0 {
		t.Fatalf("idle scheduler reports %d drainers, %d helpers", st.WavesInFlight, sc.helpers.Load())
	}
}

// runnerCensus is a stub wave runner that counts how many goroutines are
// inside it at once.
type runnerCensus struct {
	cur, max atomic.Int32
}

func (c *runnerCensus) enter() int32 {
	cur := c.cur.Add(1)
	for {
		m := c.max.Load()
		if cur <= m || c.max.CompareAndSwap(m, cur) {
			return cur
		}
	}
}

// TestSchedulerHelpersCapped runs 8 concurrent 4 096-pair batches through one
// scheduler: the helper goroutines of all of them together never exceed the
// workers setting, so at most workers + 8 goroutines are ever inside the
// runner.
func TestSchedulerHelpersCapped(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const workers, callers, n = 3, 8, 4096
	var sc scheduler
	sc.setWorkers(workers)
	var census runnerCensus
	var maxHelpers atomic.Int32
	run := func(wus, wvs []graph.Node, wout []bool) {
		census.enter()
		if h := sc.helpers.Load(); h > maxHelpers.Load() {
			maxHelpers.Store(h) // racy max is fine: any value stored was observed
		}
		runtime.Gosched() // let the other drainers in
		for i := range wus {
			wout[i] = wus[i] < wvs[i]
		}
		census.cur.Add(-1)
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			us := make([]graph.Node, n)
			vs := make([]graph.Node, n)
			for i := range us {
				us[i], vs[i] = graph.Node((i+c)%7), graph.Node(i%11)
			}
			out := make([]bool, n)
			sc.runPinned(us, vs, out, schedClusterMinBuckets+1, stubKey, run)
			for i := range out {
				if out[i] != (us[i] < vs[i]) {
					t.Errorf("caller %d lane %d: out=%v want %v", c, i, out[i], us[i] < vs[i])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if h := maxHelpers.Load(); h > workers {
		t.Fatalf("%d helper goroutines at once, workers is %d", h, workers)
	}
	if m := census.max.Load(); m > workers+callers {
		t.Fatalf("%d goroutines inside the runner at once, want at most %d helpers + %d callers", m, workers, callers)
	}
	if sc.helpers.Load() != 0 || sc.inFlight.Load() != 0 {
		t.Fatalf("after every batch returned: %d helpers, %d drainers", sc.helpers.Load(), sc.inFlight.Load())
	}
	if st := sc.stats(); st.Lanes != callers*n {
		t.Fatalf("%d lanes counted, want %d", st.Lanes, callers*n)
	}
}

// TestSchedulerFollowsGOMAXPROCS opens a store on one P and then runs a wide
// batch on four without SetSchedWorkers: the runner count follows GOMAXPROCS
// at the time of the batch, not at Open, so more than two goroutines (the
// caller plus more than one helper) run waves at once.
func TestSchedulerFollowsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := mustOpen(t, gen.Social(rand.New(rand.NewSource(3)), 300, 1200, 4), nil)
	defer s.Close()
	runtime.GOMAXPROCS(4)
	if w := s.SchedStats().Workers; w != 4 {
		t.Fatalf("SchedStats().Workers = %d at GOMAXPROCS 4 with no override", w)
	}
	var census runnerCensus
	deadline := time.Now().Add(5 * time.Second)
	run := func(wus, wvs []graph.Node, wout []bool) {
		census.enter()
		// Hold the wave until a third runner shows up (or give up).
		for census.max.Load() <= 2 && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		census.cur.Add(-1)
	}
	n := 4096
	s.sched.runPinned(make([]graph.Node, n), make([]graph.Node, n), make([]bool, n), 1, nil, run)
	if m := census.max.Load(); m <= 2 {
		t.Fatalf("at most %d goroutines ran waves at once on 4 Ps", m)
	}
}

// TestSchedulerGoroutineCensus pins that the scheduler owns no goroutine: an
// idle open in-memory store holds exactly one goroutine more than before Open
// (the writer), and after 50 wide batches on four Ps and Close the process is
// back at its pre-Open count.
func TestSchedulerGoroutineCensus(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(29))
	g := gen.Citation(rng, 2000, 8000, 4)
	us, vs := randomPairs(rng, 2000, 1024)
	// settled waits for exiting goroutines (helpers past their last wave, a
	// previous test's stragglers) to leave the count.
	settled := func(want int) int {
		var n int
		for i := 0; i < 200; i++ {
			if n = runtime.NumGoroutine(); n == want {
				break
			}
			time.Sleep(time.Millisecond)
		}
		return n
	}
	base := settled(-1)
	s := mustOpen(t, g, &Options{Indexes: true})
	if n := settled(base + 1); n != base+1 {
		t.Fatalf("idle open store: %d goroutines, want %d (the writer alone)", n, base+1)
	}
	for b := 0; b < 50; b++ {
		s.BatchReachable(us, vs)
	}
	if st := s.SchedStats(); st.Waves == 0 {
		t.Fatal("50 wide batches made no scheduler wave")
	}
	if n := settled(base + 1); n != base+1 {
		t.Fatalf("after 50 wide batches: %d goroutines, want %d", n, base+1)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := settled(base); n != base {
		t.Fatalf("after Close: %d goroutines, want the pre-Open %d", n, base)
	}
}

// TestSchedStatsCountPinnedSnapshots pins that a reader sweeping a snapshot
// it pinned before a publish is still counted: the counters are the store's,
// not the snapshot's.
func TestSchedStatsCountPinnedSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := gen.Social(rng, 300, 1200, 4)
	us, vs := randomPairs(rng, 300, 40)
	forKinds(t, func(t *testing.T, kind string) {
		h := openKind(t, kind, g.Clone(), Options{Indexes: true})
		defer h.Close()
		var sweep func()
		switch s := h.(type) {
		case *Store:
			sn := s.Snapshot()
			sweep = func() { sn.BatchReachable(queries.NewBatchScratch(0), us, vs, make([]bool, len(us))) }
		case *ShardedStore:
			sn := s.Snapshot()
			sweep = func() { sn.BatchReachable(NewBatchRouteScratch(), us, vs, make([]bool, len(us))) }
		}
		if _, err := h.Apply([]graph.Update{graph.Insertion(1, 2)}); err != nil {
			t.Fatalf("Apply: %v", err)
		}
		before := h.SchedStats().BatchLanes
		sweep()
		if got := h.SchedStats().BatchLanes; got != before+uint64(len(us)) {
			t.Fatalf("BatchLanes %d -> %d after %d lanes on a snapshot pinned before the publish", before, got, len(us))
		}
	})
}

// TestCloseRacesUnsortedPinnedBatch closes a store while wide batches are in
// flight on a quotient with too few locality buckets for the cluster sort,
// so their jobs carry no permutation: every batch — cut off by Close or
// started after it — must still return every answer. Run under -race in CI.
func TestCloseRacesUnsortedPinnedBatch(t *testing.T) {
	// On one P a batch starts no helper.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rng := rand.New(rand.NewSource(23))
	g := gen.Social(rng, 300, 1200, 4)
	us, vs := randomPairs(rng, 300, 1024)
	var want []bool
	for round := 0; round < 10; round++ {
		s := mustOpen(t, g.Clone(), &Options{Indexes: true})
		s.SetSchedWorkers(4)
		if b := (s.Snapshot().Reach.Gr.NumNodes() + 63) / 64; b > schedClusterMinBuckets {
			t.Fatalf("%d locality buckets: the batch would be cluster-sorted; shrink the test graph", b)
		}
		if want == nil {
			want = make([]bool, len(us))
			for i := range us {
				want[i] = s.Reachable(us[i], vs[i])
			}
		}
		started := make(chan struct{}, 4)
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := 0; b < 40; b++ {
					got := s.BatchReachable(us, vs)
					if b == 0 {
						started <- struct{}{}
					}
					for i := range got {
						if got[i] != want[i] {
							t.Errorf("round %d batch %d: QR(%d,%d)=%v, want %v", round, b, us[i], vs[i], got[i], want[i])
							return
						}
					}
				}
			}()
		}
		<-started
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		wg.Wait()
	}
}

// Multi-wave batch scheduler: a worker pool that runs many 64-lane waves
// concurrently across cores. One kind of work flows through it, the pinned
// batch (a BatchReachable call wider than one wave): the batch pins ONE
// snapshot, its pairs are clustered by quotient-id locality so co-batched
// lanes share frontiers, and the resulting waves are claimed by the pool
// workers AND the calling goroutine together — the caller is never idle
// while its own batch runs, and the batch sees exactly one epoch end to
// end. Point reads never come here: they run on the goroutine that asked.
package store

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/queries"
)

const (
	// schedMinPinnedWave is the floor for pinned-batch wave splitting:
	// below it per-wave constants dominate the sweep.
	schedMinPinnedWave = 8
	// schedClusterMinBuckets is the locality-bucket count below which a
	// pinned batch skips the cluster sort: the sweep's scan range is that
	// many bitmap words wide at most, so there is nothing to narrow. Kept
	// low on purpose — even a ~13-bucket citation quotient gains ~1.7x
	// from sorting lanes into tight-span waves.
	schedClusterMinBuckets = 8
)

// SchedStats is a point-in-time report of the multi-wave scheduler plus
// the batch read path's hybrid-leaf counters, as printed by qpgc serve.
type SchedStats struct {
	// Workers is the pool size; WavesInFlight counts waves executing at
	// the instant of the call (pool workers and helping callers alike).
	Workers       int
	WavesInFlight int
	// Waves and Lanes count completed scheduler waves and the lanes they
	// carried; MeanWaveSize is their ratio.
	Waves        uint64
	Lanes        uint64
	MeanWaveSize float64
	// ClusteredLanes counts lanes placed next to a lane with the same
	// source-locality bucket by the clustering sort; ClusterHitRate is
	// their fraction of all scheduler lanes.
	ClusteredLanes uint64
	ClusterHitRate float64
	// BatchLanes counts lanes through the batch read path (scheduled or
	// not); the hybrid-leaf counters below are measured against it.
	BatchLanes uint64
	// Hop2Peeled counts lanes answered by the 2-hop hybrid leaf before
	// the sweep ran (on the sharded store: same-shard index answers).
	Hop2Peeled uint64
	// HubCacheLanes counts lanes answered O(1) from hub reach-set rows,
	// HubCachePrunes counts forward-sweep subtree prunes at cached hubs,
	// and HubCacheHitRate is HubCacheLanes/BatchLanes.
	HubCacheLanes   uint64
	HubCachePrunes  uint64
	HubCacheHitRate float64
}

// pinnedJob is one in-flight pinned batch: perm orders the pairs by
// cluster key (nil = identity, waves slice the batch in place), next is
// the claim cursor, and wg counts unfinished waves.
type pinnedJob struct {
	us, vs []graph.Node
	out    []bool
	perm   []int
	run    func(us, vs []graph.Node, out []bool)
	n      int
	next   int
	wave   int
	wg     sync.WaitGroup
}

// scheduler is the pool. Two closures bind it to a store kind: key
// maps a pair to its 40-bit locality bucket — source bucket in bits
// [39:20], target bucket in bits [19:0] — leaving the low 24 bits free so
// runPinned can pack (key, lane index) into one uint64 and cluster-sort a
// batch with slices.Sort on machine words instead of a closure sort (the
// closure sort costs more than the sweep itself on collapsed quotients).
// Every pinned batch carries its own snapshot-bound wave runner.
type scheduler struct {
	key     func(u, v graph.Node) uint64
	buckets func() int // locality-bucket count hint; nil = always sort

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    []*pinnedJob
	closed  bool
	gen     int // bumped by setWorkers; a worker exits when it changes
	workers int

	waveBufs   sync.Pool // *waveBuf, MaxBatch capacity
	pinScratch sync.Pool // *pinScratch, grown to the largest batch

	inFlight  atomic.Int64
	waves     atomic.Uint64
	lanes     atomic.Uint64
	clustered atomic.Uint64

	// waveHist, when non-nil, receives sampled per-wave latencies
	// (qpgc_sched_wave_seconds): 1 in obsSampleWaves, on histTick's clock —
	// a collapsed-quotient wave runs in well under a microsecond, so even
	// the histogram's bucket arithmetic is too dear to pay per wave. Set
	// once by bindSchedObs before traffic; nil keeps the hot path at a nil
	// check.
	waveHist *obs.Histogram
	histTick atomic.Uint32
}

// newScheduler starts a pool of workers (0 means GOMAXPROCS). buckets, when
// non-nil, reports how many source-locality buckets the current snapshot
// spreads lanes over; runPinned skips the cluster sort below
// schedClusterMinBuckets of them, because a sweep whose whole scan range is
// a handful of bitmap words cannot be narrowed enough to repay a sort.
func newScheduler(workers int, key func(u, v graph.Node) uint64, buckets func() int) *scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sc := &scheduler{key: key, buckets: buckets, workers: workers}
	sc.cond = sync.NewCond(&sc.mu)
	for i := 0; i < workers; i++ {
		go sc.worker(0)
	}
	return sc
}

// worker is one pool goroutine: claim a wave of the oldest pinned job, run
// it, repeat.
func (sc *scheduler) worker(gen int) {
	for {
		sc.mu.Lock()
		for !sc.closed && sc.gen == gen && len(sc.jobs) == 0 {
			sc.cond.Wait()
		}
		if sc.closed || sc.gen != gen {
			sc.mu.Unlock()
			return
		}
		job := sc.jobs[0]
		lo, hi := sc.claimLocked(job)
		sc.mu.Unlock()
		sc.runPinnedWave(job, lo, hi)
	}
}

// claimLocked claims the next wave of job and unlinks the job once fully
// claimed. Caller holds mu and guarantees the job is not exhausted.
func (sc *scheduler) claimLocked(job *pinnedJob) (lo, hi int) {
	lo = job.next
	hi = min(lo+job.wave, job.n)
	job.next = hi
	if hi >= job.n {
		for i, j := range sc.jobs {
			if j == job {
				sc.jobs = append(sc.jobs[:i], sc.jobs[i+1:]...)
				break
			}
		}
	}
	return lo, hi
}

// waveBuf is a pooled gather/scatter buffer for one wave (<= MaxBatch
// lanes); pooling it keeps the per-wave constant at two atomic bumps and a
// clock read.
type waveBuf struct {
	us, vs []graph.Node
	out    []bool
}

func (sc *scheduler) getWaveBuf() *waveBuf {
	if wb, ok := sc.waveBufs.Get().(*waveBuf); ok {
		return wb
	}
	return &waveBuf{
		us:  make([]graph.Node, queries.MaxBatch),
		vs:  make([]graph.Node, queries.MaxBatch),
		out: make([]bool, queries.MaxBatch),
	}
}

// pinScratch is the pooled cluster-sort scratch of one pinned batch; perm
// stays referenced by the job's waves until wg drains, so it is returned
// to the pool only after wg.Wait.
type pinScratch struct {
	packed []uint64
	perm   []int
}

func (sc *scheduler) getPinScratch(n int) *pinScratch {
	ps, _ := sc.pinScratch.Get().(*pinScratch)
	if ps == nil {
		ps = &pinScratch{}
	}
	if cap(ps.packed) < n {
		ps.packed = make([]uint64, n)
		ps.perm = make([]int, n)
	}
	return ps
}

// runPinnedWave gathers one claimed wave through the job's permutation
// (identity when perm is nil: the wave is a plain slice of the batch, no
// copies), runs it on the job's pinned-snapshot runner, and scatters the
// answers.
func (sc *scheduler) runPinnedWave(job *pinnedJob, lo, hi int) {
	k := hi - lo
	if job.perm == nil {
		start := time.Now()
		sc.inFlight.Add(1)
		job.run(job.us[lo:hi], job.vs[lo:hi], job.out[lo:hi])
		sc.inFlight.Add(-1)
		sc.noteWave(k, time.Since(start))
		job.wg.Done()
		return
	}
	wb := sc.getWaveBuf()
	us, vs, out := wb.us[:k], wb.vs[:k], wb.out[:k]
	for j := 0; j < k; j++ {
		p := job.perm[lo+j]
		us[j], vs[j] = job.us[p], job.vs[p]
	}
	start := time.Now()
	sc.inFlight.Add(1)
	job.run(us, vs, out)
	sc.inFlight.Add(-1)
	sc.noteWave(k, time.Since(start))
	for j := 0; j < k; j++ {
		job.out[job.perm[lo+j]] = out[j]
	}
	sc.waveBufs.Put(wb)
	job.wg.Done()
}

// runPinned schedules one large batch: cluster by locality key, split into
// waves sized for the pool, let workers and the caller claim them, return
// when every lane is answered. run must answer a wave against the batch's
// pinned snapshot.
func (sc *scheduler) runPinned(us, vs []graph.Node, out []bool, run func(us, vs []graph.Node, out []bool)) {
	n := len(us)
	// Beyond 2^24 lanes the index no longer fits under the packed key;
	// no real batch is near that, but split defensively rather than
	// scatter answers through colliding indexes.
	const maxPinned = 1 << 24
	for n >= maxPinned {
		sc.runPinned(us[:maxPinned-1], vs[:maxPinned-1], out[:maxPinned-1], run)
		us, vs, out = us[maxPinned-1:], vs[maxPinned-1:], out[maxPinned-1:]
		n = len(us)
	}
	// Pack (40-bit locality key, lane index) into one word per lane and
	// sort the words: adjacent lanes then share locality buckets and the
	// low bits recover the permutation. slices.Sort on machine words is
	// the whole point — a closure sort here costs more than the sweep on
	// collapsed quotients. When the snapshot has too few locality buckets
	// for the sort to narrow the sweep's scan range, skip it entirely and
	// run waves as plain slices of the batch.
	var ps *pinScratch
	var perm []int
	if sc.buckets == nil || sc.buckets() > schedClusterMinBuckets {
		ps = sc.getPinScratch(n)
		packed := ps.packed[:n]
		for i := range packed {
			packed[i] = sc.key(us[i], vs[i])<<24 | uint64(i)
		}
		slices.Sort(packed)
		perm = ps.perm[:n]
		cl := 0
		for i, p := range packed {
			perm[i] = int(p & (maxPinned - 1))
			if i > 0 && p>>44 == packed[i-1]>>44 {
				cl++
			}
		}
		sc.clustered.Add(uint64(cl))
	}

	sc.mu.Lock()
	workers := sc.workers
	closed := sc.closed
	sc.mu.Unlock()
	wave := (n + workers) / (workers + 1) // the caller claims waves too
	if wave < schedMinPinnedWave {
		wave = schedMinPinnedWave
	}
	if wave > queries.MaxBatch {
		wave = queries.MaxBatch
	}
	job := &pinnedJob{us: us, vs: vs, out: out, perm: perm, run: run, n: n, wave: wave}
	// On a single P the pool cannot add parallelism — handing waves to
	// workers only buys context switches — so the caller runs every wave
	// itself, lock-free, with the bookkeeping batched over the whole job
	// (one clock pair instead of one per wave: the constants matter when a
	// collapsed quotient answers a wave in under a microsecond).
	if runtime.GOMAXPROCS(0) == 1 {
		nw := (n + wave - 1) / wave
		start := time.Now()
		sc.inFlight.Add(1)
		if perm == nil {
			for lo := 0; lo < n; lo += wave {
				hi := min(lo+wave, n)
				run(us[lo:hi], vs[lo:hi], out[lo:hi])
			}
		} else {
			wb := sc.getWaveBuf()
			for lo := 0; lo < n; lo += wave {
				hi := min(lo+wave, n)
				k := hi - lo
				wus, wvs, wout := wb.us[:k], wb.vs[:k], wb.out[:k]
				for j := 0; j < k; j++ {
					p := perm[lo+j]
					wus[j], wvs[j] = us[p], vs[p]
				}
				run(wus, wvs, wout)
				for j := 0; j < k; j++ {
					out[perm[lo+j]] = wout[j]
				}
			}
			sc.waveBufs.Put(wb)
		}
		sc.inFlight.Add(-1)
		sc.waves.Add(uint64(nw))
		sc.lanes.Add(uint64(n))
		sc.noteLat(time.Since(start) / time.Duration(nw))
		if ps != nil {
			sc.pinScratch.Put(ps)
		}
		return
	}
	job.wg.Add((n + wave - 1) / wave)
	if !closed {
		sc.mu.Lock()
		if !sc.closed {
			sc.jobs = append(sc.jobs, job)
		}
		sc.mu.Unlock()
		sc.cond.Broadcast()
	}
	// Help drain our own job; on a closed (or closing) scheduler the help
	// loop simply runs every wave inline.
	for {
		sc.mu.Lock()
		if job.next >= job.n {
			sc.mu.Unlock()
			break
		}
		lo, hi := sc.claimLocked(job)
		sc.mu.Unlock()
		sc.runPinnedWave(job, lo, hi)
	}
	job.wg.Wait()
	if ps != nil {
		sc.pinScratch.Put(ps)
	}
}

// noteWave records one completed wave in the counters.
func (sc *scheduler) noteWave(k int, d time.Duration) {
	sc.waves.Add(1)
	sc.lanes.Add(uint64(k))
	sc.noteLat(d)
}

// noteLat observes one per-wave latency, on the sampling clock, in the
// wave-latency histogram when one is bound.
func (sc *scheduler) noteLat(d time.Duration) {
	if sc.waveHist != nil && sc.histTick.Add(1)%obsSampleWaves == 0 {
		sc.waveHist.Observe(d)
	}
}

// setWorkers resizes the pool: the old generation exits at its next queue
// check and a fresh generation starts. n <= 0 means GOMAXPROCS.
func (sc *scheduler) setWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return
	}
	sc.gen++
	gen := sc.gen
	sc.workers = n
	sc.mu.Unlock()
	sc.cond.Broadcast()
	for i := 0; i < n; i++ {
		go sc.worker(gen)
	}
}

// close stops the pool. Idempotent; safe against concurrent runPinned
// callers: each drains its own job, so every wave the exiting workers left
// unclaimed runs inline on the goroutine that is waiting for it.
func (sc *scheduler) close() {
	sc.mu.Lock()
	sc.closed = true
	sc.jobs = nil
	sc.mu.Unlock()
	sc.cond.Broadcast()
}

// stats snapshots the scheduler-side counters (the store layers fill in
// the batch read-path fields).
func (sc *scheduler) stats() SchedStats {
	st := SchedStats{
		WavesInFlight:  int(sc.inFlight.Load()),
		Waves:          sc.waves.Load(),
		Lanes:          sc.lanes.Load(),
		ClusteredLanes: sc.clustered.Load(),
	}
	if st.Waves > 0 {
		st.MeanWaveSize = float64(st.Lanes) / float64(st.Waves)
	}
	if st.Lanes > 0 {
		st.ClusterHitRate = float64(st.ClusteredLanes) / float64(st.Lanes)
	}
	sc.mu.Lock()
	st.Workers = sc.workers
	sc.mu.Unlock()
	return st
}

// Multi-wave batch scheduler: runPinned runs one wide batch (a BatchReachable
// call wider than one 64-lane wave) as many waves. The batch pins ONE
// snapshot and brings a cluster key and a wave runner bound to it; the pairs
// are clustered by quotient-id locality so co-batched lanes share frontiers,
// and the waves are drained through one atomic cursor by the calling
// goroutine plus helper goroutines started for that batch. The scheduler
// owns no goroutine, lock or queue: it is a workers setting, the counters
// SchedStats reports and two scratch pools. Point reads never come here:
// they run on the goroutine that asked.
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
	// Workers is the helper-goroutine cap in force: the SetSchedWorkers
	// override, else GOMAXPROCS at the instant of the call. WavesInFlight
	// counts the goroutines draining waves at that instant (callers and
	// helpers alike).
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

// pinnedJob is one in-flight pinned batch: perm orders the pairs by cluster
// key (nil = identity, waves slice the batch in place), next is the claim
// cursor every drainer advances by one wave, helpers waits for the helpers.
type pinnedJob struct {
	us, vs  []graph.Node
	out     []bool
	perm    []int
	run     func(us, vs []graph.Node, out []bool)
	wave    int
	next    atomic.Int64
	helpers sync.WaitGroup
}

// scheduler is the engine's batch-scheduling state; the zero value is ready.
// Nothing binds it to a store kind or an epoch: every pinned batch carries
// its own snapshot-bound cluster key and wave runner.
type scheduler struct {
	workers atomic.Int32 // SetSchedWorkers override; 0 follows GOMAXPROCS
	helpers atomic.Int32 // helper goroutines running, over all batches

	waveBufs   sync.Pool // *waveBuf, MaxBatch capacity
	pinScratch sync.Pool // *pinScratch, grown to the largest batch

	inFlight  atomic.Int64
	waves     atomic.Uint64
	lanes     atomic.Uint64
	clustered atomic.Uint64

	// waveHist, when non-nil, receives sampled per-wave latencies
	// (qpgc_sched_wave_seconds): 1 drainer in obsSampleWaves reads the
	// clock, once around all its waves — a collapsed-quotient wave runs in
	// well under a microsecond, so a clock pair per wave would cost more
	// than the wave. Set once by bindSchedObs before traffic.
	waveHist *obs.Histogram
	histTick atomic.Uint32
}

// workerCount is the helper cap on procs Ps: the override, else procs.
func (sc *scheduler) workerCount(procs int) int {
	if w := int(sc.workers.Load()); w > 0 {
		return w
	}
	return procs
}

// setWorkers overrides the helper cap; n <= 0 returns to GOMAXPROCS.
func (sc *scheduler) setWorkers(n int) { sc.workers.Store(int32(max(n, 0))) }

// waveBuf is a pooled gather/scatter buffer for one wave (<= MaxBatch
// lanes); a drainer holds one for all the waves it claims.
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
// stays referenced by the job's drainers, so it is returned to the pool
// only after the last of them has finished.
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

// drain claims waves of job until none is left — the one wave loop, run by
// the caller and by every helper. A wave is gathered through the job's
// permutation (identity when perm is nil: a plain slice of the batch, no
// copies), answered by the job's pinned-snapshot runner, and scattered
// back. The counters are bumped once per drainer, not per wave.
func (sc *scheduler) drain(job *pinnedJob) {
	n := len(job.us)
	timed := sc.waveHist != nil && sc.histTick.Add(1)%obsSampleWaves == 0
	var start time.Time
	if timed {
		start = time.Now()
	}
	var wb *waveBuf
	waves, lanes := 0, 0
	sc.inFlight.Add(1)
	for {
		hi := int(job.next.Add(int64(job.wave)))
		lo := hi - job.wave
		if lo >= n {
			break
		}
		hi = min(hi, n)
		if job.perm == nil {
			job.run(job.us[lo:hi], job.vs[lo:hi], job.out[lo:hi])
		} else {
			if wb == nil {
				wb = sc.getWaveBuf()
			}
			perm := job.perm[lo:hi]
			us, vs, out := wb.us[:len(perm)], wb.vs[:len(perm)], wb.out[:len(perm)]
			for j, p := range perm {
				us[j], vs[j] = job.us[p], job.vs[p]
			}
			job.run(us, vs, out)
			for j, p := range perm {
				job.out[p] = out[j]
			}
		}
		waves++
		lanes += hi - lo
	}
	sc.inFlight.Add(-1)
	if wb != nil {
		sc.waveBufs.Put(wb)
	}
	sc.waves.Add(uint64(waves))
	sc.lanes.Add(uint64(lanes))
	if timed && waves > 0 { // a helper that started late may have found none
		sc.waveHist.Observe(time.Since(start) / time.Duration(waves))
	}
}

// runPinned answers one large batch: cluster by locality key, split into
// waves, drain them on the caller and on helpers, return when every lane is
// answered. key and run belong to the batch: both must read the snapshot the
// batch pinned, so lanes are keyed on the epoch that is swept. key maps a
// pair to its 40-bit locality bucket — source bucket in bits [39:20], target
// bucket in bits [19:0] — leaving the low 24 bits free to pack (key, lane
// index) into one uint64; buckets is how many source-locality buckets that
// snapshot spreads lanes over.
func (sc *scheduler) runPinned(us, vs []graph.Node, out []bool, buckets int, key func(u, v graph.Node) uint64, run func(us, vs []graph.Node, out []bool)) {
	n := len(us)
	// Beyond 2^24 lanes the index no longer fits under the packed key; no
	// real batch is near that, but split rather than scatter answers
	// through colliding indexes.
	const maxPinned = 1 << 24
	for n >= maxPinned {
		sc.runPinned(us[:maxPinned-1], vs[:maxPinned-1], out[:maxPinned-1], buckets, key, run)
		us, vs, out = us[maxPinned-1:], vs[maxPinned-1:], out[maxPinned-1:]
		n = len(us)
	}
	procs := runtime.GOMAXPROCS(0)
	workers := sc.workerCount(procs)
	wave := (n + workers) / (workers + 1) // the caller drains too
	wave = min(max(wave, schedMinPinnedWave), queries.MaxBatch)
	job := &pinnedJob{us: us, vs: vs, out: out, run: run, wave: wave}

	// Pack (40-bit locality key, lane index) into one word per lane and
	// sort the words: adjacent lanes then share locality buckets and the
	// low bits recover the permutation. slices.Sort on machine words is
	// the whole point — a closure sort here costs more than the sweep on
	// collapsed quotients. With too few locality buckets for the sort to
	// narrow the sweep's scan range, skip it and run waves as plain slices
	// of the batch.
	var ps *pinScratch
	if buckets > schedClusterMinBuckets {
		ps = sc.getPinScratch(n)
		packed := ps.packed[:n]
		for i := range packed {
			packed[i] = key(us[i], vs[i])<<24 | uint64(i)
		}
		slices.Sort(packed)
		job.perm = ps.perm[:n]
		cl := 0
		for i, p := range packed {
			job.perm[i] = int(p & (maxPinned - 1))
			if i > 0 && p>>44 == packed[i-1]>>44 {
				cl++
			}
		}
		sc.clustered.Add(uint64(cl))
	}

	// Helpers live for this batch only: up to workers of them, over all
	// batches in flight together, and never more than there are waves
	// beyond the caller's first. On one P a helper cannot run beside the
	// caller, so none starts and the caller drains every wave itself.
	if procs > 1 {
		for want := min(workers, (n-1)/wave); want > 0; want-- {
			if !sc.claimHelper(int32(workers)) {
				break
			}
			job.helpers.Add(1)
			go func() {
				sc.drain(job)
				sc.helpers.Add(-1)
				job.helpers.Done()
			}()
		}
	}
	sc.drain(job)
	job.helpers.Wait()
	if ps != nil {
		sc.pinScratch.Put(ps)
	}
}

// claimHelper takes one of limit helper slots, if one is free. The count is
// compared before it is raised, so no drainer ever sees more than limit.
func (sc *scheduler) claimHelper(limit int32) bool {
	for {
		h := sc.helpers.Load()
		if h >= limit {
			return false
		}
		if sc.helpers.CompareAndSwap(h, h+1) {
			return true
		}
	}
}

// stats snapshots the scheduler-side counters (the engine fills in the
// batch read-path fields).
func (sc *scheduler) stats() SchedStats {
	st := SchedStats{
		Workers:        sc.workerCount(runtime.GOMAXPROCS(0)),
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
	return st
}

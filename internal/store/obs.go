// Metrics bindings of the epoch engine. The design follows internal/obs's
// rules: instruments are looked up once here and held as fields, lifetime
// counters the stores already keep are exposed through scrape-time
// callbacks, and everything degrades to nil (a store opened without a
// registry carries a nil *storeObs whose every use is a no-op nil check).
package store

import (
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/maintain"
	"repro/internal/obs"
)

// storeObs holds the instruments the write and batch read paths feed
// directly; everything else (counters the engine already maintains) is
// registered as scrape-time callbacks by engine.bindObs.
type storeObs struct {
	apply   *obs.Histogram // writer latency per coalesced group (WAL + maintain + publish)
	publish *obs.Histogram // snapshot assembly + swap latency
	// The apply latency by stage, qpgc_store_apply_seconds{stage=...}: WAL
	// append + commit and publish per coalesced group; the condensation,
	// incRCM and incPCM per batch (per shard sub-batch when sharded)
	// through meter, which also carries the affected area next to the
	// clocks — qpgc_store_aff{scheme=...} — incPCM's depth and its scans
	// for a lost representative, and the condensation's whole-component
	// re-splits and loss-area sweeps.
	stageWAL, stagePublish *obs.Histogram
	meter                  maintain.Meter
	leaf                   *obs.Histogram // qpgc_query stage: leaf engine time per wave (sampled)
	summary                *obs.Histogram // qpgc_query stage: cross-shard summary hop per wave (sampled)
	// Publish by stage, qpgc_store_publish_seconds{stage=...}: the snapshot
	// of G, the reach view, the pattern view and the swap on the writer; the
	// 2-hop index where it is built, which is the first reader that wants
	// it. pubFull counts publishes that had a snapshot to patch and rebuilt
	// a view in full anyway, pubDrift the pattern views among them built in
	// full because the patched layout drifted; pubRows is the quotient rows
	// patched per epoch.
	pubStage [numPubStages]*obs.Histogram
	pubIndex *obs.Histogram
	pubFull  *obs.Counter
	pubDrift *obs.Counter
	pubRows  *obs.Histogram

	lastPublish atomic.Int64  // unix nanos of the latest publish, for epoch age
	tick        atomic.Uint32 // wave sample clock for sampleWave
}

// obsSampleWaves is the wave-latency sampling rate on the batch read path:
// 1 in this many waves pays the clock reads and histogram arithmetic for
// qpgc_sched_wave_seconds and the stage histograms. A collapsed-quotient
// wave finishes in well under a microsecond, so per-wave timing costs
// double-digit percent; sampling keeps the read path within the <= 2%
// overhead budget while the quantiles stay representative (the sampled
// histograms' _count counts sampled waves, not all waves). The network
// tracer spans and the apply/publish/fsync histograms are NOT sampled —
// per-event timing is cheap at request and write-batch granularity.
const obsSampleWaves = 64

// sampleWave decides whether the current wave's stage latencies are timed:
// deterministically 1 in obsSampleWaves, skewed by nothing. Nil-safe; the
// single atomic add is the whole per-wave cost of an unsampled wave.
func (so *storeObs) sampleWave() bool {
	return so != nil && so.tick.Add(1)%obsSampleWaves == 0
}

// pubStage names a stage of publish on the writer.
type pubStage int

const (
	pubFreeze pubStage = iota
	pubReach
	pubPattern
	pubSwap
	numPubStages
)

var pubStageNames = [numPubStages]string{"freeze", "reach", "pattern", "swap"}

// publishClock splits one publish into its stages; the zero value (metrics
// off) reads no clock.
type publishClock struct {
	so          *storeObs
	start, last time.Time
}

func (so *storeObs) startPublish() publishClock {
	if so == nil {
		return publishClock{}
	}
	now := time.Now()
	return publishClock{so: so, start: now, last: now}
}

// lap charges the time since the previous lap to stage st.
func (c *publishClock) lap(st pubStage) {
	if c.so == nil {
		return
	}
	now := time.Now()
	c.so.pubStage[st].Observe(now.Sub(c.last))
	c.last = now
}

// newStoreObs builds the direct-fed instruments; nil registry → nil.
func newStoreObs(r *obs.Registry) *storeObs {
	if r == nil {
		return nil
	}
	so := &storeObs{
		apply:   r.Histogram("qpgc_store_apply_seconds"),
		publish: r.Histogram("qpgc_store_publish_seconds"),

		stageWAL:     r.Histogram(obs.Label("qpgc_store_apply_seconds", "stage", "wal")),
		stagePublish: r.Histogram(obs.Label("qpgc_store_apply_seconds", "stage", "publish")),
		meter: maintain.Meter{
			SCCTime:       r.Histogram(obs.Label("qpgc_store_apply_seconds", "stage", "scc")),
			ReachTime:     r.Histogram(obs.Label("qpgc_store_apply_seconds", "stage", "reach")),
			PatternTime:   r.Histogram(obs.Label("qpgc_store_apply_seconds", "stage", "pattern")),
			ReachAff:      r.Histogram(obs.Label("qpgc_store_aff", "scheme", "reach")),
			PatternAff:    r.Histogram(obs.Label("qpgc_store_aff", "scheme", "pattern")),
			PatternLevels: r.Gauge("qpgc_store_pattern_levels"),
			LevelRebuilds: r.Counter("qpgc_store_pattern_level_rebuilds_total"),
			Fallbacks:     r.Counter("qpgc_store_pattern_fallbacks_total"),
			Resplits:      r.Counter("qpgc_store_scc_resplits_total"),
			LossSwept:     r.Histogram("qpgc_store_scc_loss_components"),
			RepScans:      r.Counter("qpgc_store_pattern_rep_scans_total"),
		},
		leaf:    r.Histogram(obs.Label("qpgc_query_stage_seconds", "stage", obs.StageLeaf.String())),
		summary: r.Histogram(obs.Label("qpgc_query_stage_seconds", "stage", obs.StageSummary.String())),

		pubIndex: r.Histogram(obs.Label("qpgc_store_publish_seconds", "stage", "index")),
		pubFull:  r.Counter("qpgc_store_publish_full_total"),
		pubDrift: r.Counter("qpgc_store_publish_drift_total"),
		pubRows:  r.Histogram("qpgc_store_publish_patched_rows"),
	}
	for st, name := range pubStageNames {
		so.pubStage[st] = r.Histogram(obs.Label("qpgc_store_publish_seconds", "stage", name))
	}
	so.lastPublish.Store(time.Now().UnixNano())
	return so
}

// notePublish records one publish begun at start: its latency, whether it
// fell back to a full build, and the epoch-age anchor.
func (so *storeObs) notePublish(start time.Time, fellBack bool) {
	if so == nil {
		return
	}
	now := time.Now()
	d := now.Sub(start)
	so.publish.Observe(d)
	so.stagePublish.Observe(d)
	if fellBack {
		so.pubFull.Inc()
	}
	so.lastPublish.Store(now.UnixNano())
}

// notePatched records the quotient rows one publish patched. The histogram
// counts rows, not time: the exposition's seconds scale reads as rows·1e-9.
func (so *storeObs) notePatched(rows int) {
	if so != nil {
		so.pubRows.ObserveNs(int64(rows))
	}
}

// noteDrift records a full build of the pattern view made because its
// patched layout drifted.
func (so *storeObs) noteDrift() {
	if so != nil {
		so.pubDrift.Inc()
	}
}

// ageSeconds is the epoch-age gauge: seconds since the latest publish.
func (so *storeObs) ageSeconds() float64 {
	return time.Since(time.Unix(0, so.lastPublish.Load())).Seconds()
}

// bindSchedObs registers the scheduler's counters and settings with the
// registry and hands the scheduler its wave-latency histogram.
func bindSchedObs(r *obs.Registry, sc *scheduler) {
	sc.waveHist = r.Histogram("qpgc_sched_wave_seconds")
	r.CounterFunc("qpgc_sched_waves_total", sc.waves.Load)
	r.CounterFunc("qpgc_sched_lanes_total", sc.lanes.Load)
	r.CounterFunc("qpgc_sched_clustered_lanes_total", sc.clustered.Load)
	r.GaugeFunc("qpgc_sched_waves_inflight", func() float64 { return float64(sc.inFlight.Load()) })
	r.GaugeFunc("qpgc_sched_workers", func() float64 { return float64(sc.stats().Workers) })
}

// bindObs registers the engine's scrape-time callbacks. Called once, as the
// last step of a successful open and before any reader has the store (e.ob
// itself is created before the first publish so every snapshot carries the
// stage histograms).
func (e *engine[R]) bindObs() {
	r := e.cfg.Obs
	if r == nil {
		return
	}
	bindSchedObs(r, &e.sched)
	r.CounterFunc("qpgc_store_batches_total", e.batches.Load)
	r.CounterFunc("qpgc_store_updates_total", e.updates.Load)
	r.CounterFunc("qpgc_store_reads_total", e.reads.Load)
	r.GaugeFunc("qpgc_store_epoch", func() float64 { return float64(e.Epoch()) })
	r.GaugeFunc("qpgc_store_epoch_age_seconds", e.ob.ageSeconds)
	// Batch read-path counters, exactly the SchedStats fields — Prometheus
	// rate() (or qpgc top's poll deltas) turns these lifetime totals into
	// the interval rates.
	r.CounterFunc("qpgc_sched_batch_lanes_total", e.bstats.lanes.Load)
	r.CounterFunc("qpgc_sched_hop2_peeled_total", e.bstats.hop2Peeled.Load)
	r.CounterFunc("qpgc_sched_hub_lanes_total", e.bstats.hubLanes.Load)
	r.CounterFunc("qpgc_sched_hub_prunes_total", e.bstats.hubPrunes.Load)
}

// shardBatchHist is the per-shard writer-latency histogram, the input the
// self-tuning rebalancer roadmap item needs: one series per shard, labeled
// by shard index.
func shardBatchHist(r *obs.Registry, shard int) *obs.Histogram {
	return r.Histogram(obs.Label("qpgc_shard_batch_seconds", "shard", strconv.Itoa(shard)))
}

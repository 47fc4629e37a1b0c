package qpgc

import (
	"repro/internal/obs"
)

// Observability. A Registry is a zero-dependency metrics core shared by
// every layer of the serving stack: atomic counters and gauges, fixed
// log-scale latency histograms rendered as p50/p95/p99/max summaries, and
// scrape-time callback instruments that read lifetime counters a subsystem
// already keeps. Stores, servers, and replicas accept a *Registry through
// their options; a nil registry (and every instrument handed out by one)
// is a no-op, so uninstrumented runs pay nothing on the hot path. One
// registry scrapes as a single Prometheus text exposition — over the
// MsgMetrics RPC of a served endpoint, or over the HTTP side-listener of
// ServeMetrics (see internal/obs for the full model).
type (
	// Registry is a named set of instruments; instruments registered under
	// the same name are shared, which is how separate subsystems feed one
	// metric family. The zero of every lookup on a nil Registry is a nil
	// instrument whose methods no-op.
	Registry = obs.Registry
	// Counter is a monotone uint64 instrument (Inc/Add/Value).
	Counter = obs.Counter
	// Gauge is a settable int64 instrument (Set/Add/Value).
	Gauge = obs.Gauge
	// Histogram is a fixed-bucket log-scale latency histogram; Observe is
	// lock-free and Snapshot yields quantiles without stopping recorders.
	Histogram = obs.Histogram
	// HistSnapshot is a point-in-time copy of a Histogram
	// (Count/Sum/Max/Quantile).
	HistSnapshot = obs.HistSnapshot
	// Tracer stitches per-query spans into a histogram family: total
	// latency plus one stage-labeled histogram per pipeline stage.
	Tracer = obs.Tracer
	// Span is one query's trace: Step attributes elapsed time to a stage,
	// Finish records the total (and the slow-query log past its
	// threshold). A Span is a value; the zero Span no-ops.
	Span = obs.Span
	// Stage names a query pipeline stage (admission wait, epoch wait, wave
	// assignment, leaf engine, summary hop).
	Stage = obs.Stage
	// SlowLog is a bounded ring of the slowest recorded queries; entries
	// past its threshold overwrite the oldest.
	SlowLog = obs.SlowLog
	// SlowEntry is one slow-query record: endpoints, total duration, and
	// the per-stage breakdown.
	SlowEntry = obs.SlowEntry
	// MetricsServer is the HTTP side-listener started by ServeMetrics,
	// serving /metrics, /debug/vars and /debug/slowlog.
	MetricsServer = obs.MetricsServer
)

// Query pipeline stages, in order.
const (
	// StageAdmission is the wait for an admission-controller slot.
	StageAdmission = obs.StageAdmission
	// StageEpochWait is the wait for a consistent snapshot epoch.
	StageEpochWait = obs.StageEpochWait
	// StageWave is the read itself; for batches, the scheduler's waves.
	StageWave = obs.StageWave
	// StageLeaf is the leaf engine traversal over the compressed quotient.
	StageLeaf = obs.StageLeaf
	// StageSummary is the cross-shard summary hop joining leaf answers.
	StageSummary = obs.StageSummary
)

// NewMetricsRegistry creates an empty registry. Pass it through
// StoreOptions/ShardedOptions, ServerOptions, and ReplicaOptions to
// instrument those layers; scrape it with PrometheusText or ServeMetrics.
func NewMetricsRegistry() *Registry { return obs.NewRegistry() }

// NewTracer builds a query tracer feeding fam_seconds plus
// fam_stage_seconds{stage=...} in r, recording into slow (optional, may be
// nil) past its threshold.
func NewTracer(r *Registry, fam string, slow *SlowLog) *Tracer {
	return obs.NewTracer(r, fam, slow)
}

// MetricLabel renders an inline Prometheus label into a metric name:
// MetricLabel("f", "k", "v") = `f{k="v"}`. Calling it again on the result
// merges into the existing brace set.
func MetricLabel(name, key, value string) string { return obs.Label(name, key, value) }

// ServeMetrics starts the HTTP metrics side-listener on addr, serving r's
// Prometheus text on /metrics, its JSON form on /debug/vars, and the slow
// logs on /debug/slowlog, until Close.
func ServeMetrics(addr string, r *Registry) (*MetricsServer, error) {
	return obs.ListenAndServe(addr, r)
}

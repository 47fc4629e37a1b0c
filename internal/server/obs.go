package server

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// serverObs is the network tier's instrumentation: per-message-type
// request latency, an in-flight gauge, epoch-wait reject counts, and the
// qpgc_query tracer whose epoch-wait/wave stages join the store's
// leaf/summary stages in one family (same-family tracers share
// instruments). A nil *serverObs — a server built without a registry — is
// a no-op at zero per-request cost beyond one nil check.
type serverObs struct {
	reg      *obs.Registry
	inflight atomic.Int64
	tailHeld atomic.Int64 // MsgTail rounds parked for an epoch right now
	rejects  *obs.Counter
	effects  *obs.Counter       // bytes of effects and images shipped to followers
	hists    [16]*obs.Histogram // indexed by request MsgType
	other    *obs.Histogram
	tracer   *obs.Tracer
}

// typeName names a request type for the metric label.
func typeName(t MsgType) string {
	switch t {
	case MsgPing:
		return "ping"
	case MsgReach:
		return "reach"
	case MsgBatchReach:
		return "batch_reach"
	case MsgMatch:
		return "match"
	case MsgApply:
		return "apply"
	case MsgStats:
		return "stats"
	case MsgTail:
		return "tail"
	case MsgMetrics:
		return "metrics"
	}
	return "other"
}

// newServerObs registers the server's instruments in o.Obs; nil registry →
// nil observer. s's own atomic counters are surfaced as scrape-time
// callbacks rather than duplicated.
func newServerObs(s *Server, o Options) *serverObs {
	r := o.Obs
	if r == nil {
		return nil
	}
	ob := &serverObs{reg: r}
	for t := MsgPing; t <= MsgMetrics; t++ {
		if name := typeName(t); name != "other" {
			ob.hists[t] = r.Histogram(obs.Label("qpgc_server_request_seconds", "type", name))
		}
	}
	ob.other = r.Histogram(obs.Label("qpgc_server_request_seconds", "type", "other"))
	var slow *obs.SlowLog
	if o.SlowQuery > 0 {
		slow = r.SlowLog("qpgc_query", 128, o.SlowQuery)
	}
	ob.tracer = obs.NewTracer(r, "qpgc_query", slow)
	ob.rejects = r.Counter("qpgc_server_rejects_total")
	ob.effects = r.Counter("qpgc_server_effect_bytes_total")
	r.CounterFunc("qpgc_server_requests_total", s.requests.Load)
	r.CounterFunc("qpgc_server_epoch_waits_total", s.waits.Load)
	r.GaugeFunc("qpgc_server_inflight", func() float64 { return float64(ob.inflight.Load()) })
	r.GaugeFunc("qpgc_server_tail_held", func() float64 { return float64(ob.tailHeld.Load()) })
	return ob
}

// observe records one handled request's latency under its type label.
func (ob *serverObs) observe(t MsgType, d time.Duration) {
	if ob == nil {
		return
	}
	h := ob.other
	if int(t) < len(ob.hists) && ob.hists[t] != nil {
		h = ob.hists[t]
	}
	h.Observe(d)
}

// parkTail moves one MsgTail round into (d = 1) or out of (d = -1) the
// parked state: a parked round counts in qpgc_server_tail_held — the
// followers idle on this source — and not in qpgc_server_inflight.
func (ob *serverObs) parkTail(d int64) {
	if ob != nil {
		ob.tailHeld.Add(d)
		ob.inflight.Add(-d)
	}
}

// effectBytes counts the bytes of one effect or image shipped.
func (ob *serverObs) effectBytes(n int) {
	if ob != nil {
		ob.effects.Add(uint64(n))
	}
}

// qtracer returns the query tracer (nil without a registry; a nil tracer
// hands out inert spans).
func (ob *serverObs) qtracer() *obs.Tracer {
	if ob == nil {
		return nil
	}
	return ob.tracer
}

// reject counts one read refused while it waited for its epoch.
func (ob *serverObs) reject() {
	if ob != nil {
		ob.rejects.Add(1)
	}
}

// scrape renders the registry as Prometheus text ("" without one).
func (ob *serverObs) scrape() string {
	if ob == nil {
		return ""
	}
	return ob.reg.PrometheusText()
}

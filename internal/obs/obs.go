// Package obs is the observability core: a zero-dependency metrics
// registry of atomic counters, gauges, and fixed-bucket log-scale latency
// histograms, plus per-query trace spans and a ring-buffer slow-query log.
//
// The design rules, in order:
//
//  1. The hot path never allocates and never takes a lock. Counters and
//     gauges are single atomics; a histogram observation is two atomic
//     adds and a CAS race for the max. Instruments are looked up by name
//     once, at construction time, and held as struct fields.
//  2. Everything is nil-safe. A nil *Registry hands out nil instruments,
//     and every instrument method on a nil receiver is a no-op — so
//     "metrics off" is the same binary with a nil registry, which is
//     exactly the baseline the overhead benchmark compares against.
//  3. Existing atomics are not duplicated. Subsystems that already keep
//     lifetime counters (scheduler lanes, replica quarantines, health
//     retries) expose them through CounterFunc/GaugeFunc callbacks read
//     only at scrape time, so instrumenting them costs nothing per event.
//
// Metric names follow Prometheus conventions; labels are carried inline
// in the name ("qpgc_server_request_seconds{type=\"reach\"}"), which keeps
// the registry a flat name → instrument map. Registration is idempotent
// per name: two subsystems asking for the same name share the instrument,
// which is how the server's trace stages and the store's leaf stages land
// in one family.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready;
// a nil *Counter ignores all updates.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The zero value is ready; a
// nil *Gauge ignores all updates.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the current gauge value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry names and owns a set of instruments. The zero value is not
// usable; call NewRegistry. All methods are safe for concurrent use, and
// all methods on a nil *Registry return nil (no-op) instruments.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	cfuncs   map[string]func() uint64
	gfuncs   map[string]func() float64
	slows    map[string]*SlowLog
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		cfuncs:   make(map[string]func() uint64),
		gfuncs:   make(map[string]func() float64),
		slows:    make(map[string]*SlowLog),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. A nil registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the latency histogram registered under name, creating
// it on first use. A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{name: name}
		r.hists[name] = h
	}
	return h
}

// CounterFunc registers a callback rendered as a counter at scrape time:
// the way to expose an atomic a subsystem already maintains without
// double-counting on the hot path. Later registrations under the same
// name replace earlier ones. No-op on a nil registry.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cfuncs[name] = fn
}

// GaugeFunc registers a callback rendered as a gauge at scrape time.
// Later registrations under the same name replace earlier ones. No-op on
// a nil registry.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gfuncs[name] = fn
}

// SlowLog returns the slow-query log registered under name, creating it
// with the given capacity and threshold on first use. A nil registry
// returns a nil (disabled) log.
func (r *Registry) SlowLog(name string, capacity int, threshold time.Duration) *SlowLog {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.slows[name]
	if !ok {
		l = NewSlowLog(capacity, threshold)
		r.slows[name] = l
	}
	return l
}

// SlowLogs returns the registered slow-query logs by name.
func (r *Registry) SlowLogs() map[string]*SlowLog {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*SlowLog, len(r.slows))
	for k, v := range r.slows {
		out[k] = v
	}
	return out
}

// Label appends one key="value" label pair to a metric name, producing
// the inline-label form the registry uses ("fam{k="v"}"); calling it
// again merges into the existing brace set.
func Label(name, key, value string) string {
	if len(name) > 0 && name[len(name)-1] == '}' {
		return fmt.Sprintf("%s,%s=%q}", name[:len(name)-1], key, value)
	}
	return fmt.Sprintf("%s{%s=%q}", name, key, value)
}

// family splits an inline-label name into its family (the part before
// '{') and the label set including braces ("" when unlabelled).
func family(name string) (fam, labels string) {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i], name[i:]
		}
	}
	return name, ""
}

// sortedKeys returns map keys in sorted order for stable rendering.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

package obs

import (
	"fmt"
	"io"
	"strings"
)

// quantiles rendered for every histogram, in order.
var renderQuantiles = []struct {
	q     float64
	label string
}{
	{0.50, "0.5"},
	{0.95, "0.95"},
	{0.99, "0.99"},
}

// WritePrometheus renders every instrument in Prometheus text exposition
// format, sorted by name: counters and counter funcs as counters, gauges
// and gauge funcs as gauges, histograms as summaries (p50/p95/p99 plus
// _sum/_count/_max), and each slow log as a counter of recorded entries.
// Durations are rendered in seconds, per convention. No-op on nil.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	counters := make(map[string]float64, len(r.counters)+len(r.cfuncs)+len(r.slows))
	for name, c := range r.counters {
		counters[name] = float64(c.Value())
	}
	cfuncs := make(map[string]func() uint64, len(r.cfuncs))
	for name, fn := range r.cfuncs {
		cfuncs[name] = fn
	}
	gauges := make(map[string]float64, len(r.gauges)+len(r.gfuncs))
	for name, g := range r.gauges {
		gauges[name] = float64(g.Value())
	}
	gfuncs := make(map[string]func() float64, len(r.gfuncs))
	for name, fn := range r.gfuncs {
		gfuncs[name] = fn
	}
	hists := make(map[string]HistSnapshot, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h.Snapshot()
	}
	for name, l := range r.slows {
		counters[name+"_total"] = float64(l.Count())
	}
	r.mu.Unlock()

	// Callbacks run outside the registry lock: they may take subsystem
	// locks of their own (WAL size, scheduler pool size).
	for name, fn := range cfuncs {
		counters[name] = float64(fn())
	}
	for name, fn := range gfuncs {
		gauges[name] = fn()
	}

	typed := make(map[string]bool)
	emitType := func(name, kind string) {
		fam, _ := family(name)
		if !typed[fam] {
			typed[fam] = true
			fmt.Fprintf(w, "# TYPE %s %s\n", fam, kind)
		}
	}
	for _, name := range sortedKeys(counters) {
		emitType(name, "counter")
		fmt.Fprintf(w, "%s %v\n", name, counters[name])
	}
	for _, name := range sortedKeys(gauges) {
		emitType(name, "gauge")
		fmt.Fprintf(w, "%s %v\n", name, gauges[name])
	}
	for _, name := range sortedKeys(hists) {
		s := hists[name]
		fam, _ := family(name)
		emitType(fam, "summary")
		for _, rq := range renderQuantiles {
			fmt.Fprintf(w, "%s %v\n", Label(name, "quantile", rq.label), s.Quantile(rq.q).Seconds())
		}
		fmt.Fprintf(w, "%s %v\n", suffixed(name, "_sum"), s.Sum.Seconds())
		fmt.Fprintf(w, "%s %v\n", suffixed(name, "_count"), s.Count)
		fmt.Fprintf(w, "%s %v\n", suffixed(name, "_max"), s.Max.Seconds())
	}
}

// PrometheusText renders WritePrometheus to a string.
func (r *Registry) PrometheusText() string {
	var sb strings.Builder
	r.WritePrometheus(&sb)
	return sb.String()
}

// suffixed inserts a suffix into an inline-label name before the braces:
// suffixed(`f{a="b"}`, "_sum") = `f_sum{a="b"}`.
func suffixed(name, suffix string) string {
	fam, labels := family(name)
	return fam + suffix + labels
}

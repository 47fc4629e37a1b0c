package obs

import (
	"fmt"
	"io"
	"sort"
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

// WriteJSON renders every instrument as one JSON object keyed by metric
// name (expvar style): counters and gauges as numbers, histograms as
// objects with count/sum/max and the standard quantiles, slow logs as
// entry counts. No-op on nil.
func (r *Registry) WriteJSON(w io.Writer) {
	if r == nil {
		io.WriteString(w, "{}\n")
		return
	}
	r.mu.Lock()
	type snap struct {
		name string
		kind byte // c, g, h
		val  float64
		cfn  func() uint64
		gfn  func() float64
		hist HistSnapshot
	}
	var items []snap
	for name, c := range r.counters {
		items = append(items, snap{name: name, kind: 'c', val: float64(c.Value())})
	}
	for name, fn := range r.cfuncs {
		items = append(items, snap{name: name, kind: 'c', cfn: fn})
	}
	for name, g := range r.gauges {
		items = append(items, snap{name: name, kind: 'g', val: float64(g.Value())})
	}
	for name, fn := range r.gfuncs {
		items = append(items, snap{name: name, kind: 'g', gfn: fn})
	}
	for name, h := range r.hists {
		items = append(items, snap{name: name, kind: 'h', hist: h.Snapshot()})
	}
	for name, l := range r.slows {
		items = append(items, snap{name: name + "_total", kind: 'c', val: float64(l.Count())})
	}
	r.mu.Unlock()

	byName := make(map[string]int, len(items))
	names := make([]string, 0, len(items))
	for i := range items {
		it := &items[i]
		if it.cfn != nil {
			it.val = float64(it.cfn())
		}
		if it.gfn != nil {
			it.val = it.gfn()
		}
		byName[it.name] = i
		names = append(names, it.name)
	}
	// Deterministic output order.
	sort.Strings(names)
	io.WriteString(w, "{")
	for i, name := range names {
		if i > 0 {
			io.WriteString(w, ",")
		}
		it := items[byName[name]]
		switch it.kind {
		case 'h':
			fmt.Fprintf(w, "\n%q: {\"count\": %d, \"sum_seconds\": %v, \"max_seconds\": %v",
				name, it.hist.Count, it.hist.Sum.Seconds(), it.hist.Max.Seconds())
			for _, rq := range renderQuantiles {
				fmt.Fprintf(w, ", \"p%s\": %v", strings.TrimPrefix(rq.label, "0."), it.hist.Quantile(rq.q).Seconds())
			}
			io.WriteString(w, "}")
		default:
			fmt.Fprintf(w, "\n%q: %v", name, it.val)
		}
	}
	io.WriteString(w, "\n}\n")
}

// suffixed inserts a suffix into an inline-label name before the braces:
// suffixed(`f{a="b"}`, "_sum") = `f_sum{a="b"}`.
func suffixed(name, suffix string) string {
	fam, labels := family(name)
	return fam + suffix + labels
}

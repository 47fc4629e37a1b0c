package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond a reported percentile:
// a p99 read off fewer is one scheduler hiccup, not a latency.
const tailBeyond = 10

// supportedPercentile returns the highest percentile, at most want, that
// keeps at least tailBeyond of n samples beyond it. With too few samples
// for any tail it falls back to the median.
func supportedPercentile(n int, want float64) float64 {
	if n < 2*tailBeyond {
		return 0.5
	}
	return math.Min(want, 1-float64(tailBeyond)/float64(n))
}

// percentile reads the q-quantile off an ascending slice (nearest rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median sorts xs in place and returns its middle value (the mean of the
// two middle values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// latencies summarises one phase's per-operation timings.
type latencies struct {
	sorted []float64 // ns, ascending
}

func newLatencies(ns []float64) latencies {
	sort.Float64s(ns)
	return latencies{sorted: ns}
}

func (l latencies) n() int { return len(l.sorted) }

// p50 is the median in ns.
func (l latencies) p50() float64 { return percentile(l.sorted, 0.5) }

// tail returns the highest supported percentile up to want and the
// percentile actually used.
func (l latencies) tail(want float64) (value, used float64) {
	used = supportedPercentile(len(l.sorted), want)
	return percentile(l.sorted, used), used
}

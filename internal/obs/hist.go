package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// HistBuckets is the fixed bucket count of a Histogram: one bucket per
// power of two of nanoseconds. Bucket i counts observations whose
// nanosecond value has bit length i — [2^(i-1), 2^i) for i >= 1, and the
// single value 0 for i = 0 — so the full int64 range fits with no
// configuration and no resize, the property that keeps Observe lock-free.
const HistBuckets = 64

// Histogram is a fixed-bucket log2-scale latency histogram. Observations
// cost two atomic adds plus a CAS race for the max: no locks, no
// allocation, no configuration. Quantiles are extracted from a Snapshot
// by linear interpolation inside the chosen power-of-two bucket, which
// bounds their relative error by the bucket width (a factor of 2 worst
// case, far less in practice near the mass of the distribution); the max
// is tracked exactly. A nil *Histogram ignores all observations.
type Histogram struct {
	name    string
	buckets [HistBuckets]atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNs(int64(d)) }

// ObserveNs records one duration given in nanoseconds. Negative values
// (clock steps) are clamped to zero.
func (h *Histogram) ObserveNs(ns int64) {
	if h == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	h.buckets[bits.Len64(uint64(ns))].Add(1)
	h.sum.Add(ns)
	for {
		m := h.max.Load()
		if ns <= m || h.max.CompareAndSwap(m, ns) {
			return
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram, from which
// quantiles are computed. Count is derived from the copied buckets, so a
// snapshot is internally consistent even when taken mid-recording.
type HistSnapshot struct {
	// Count is the number of observations in the copied buckets.
	Count uint64
	// Sum is the total observed time; Max the largest single observation.
	Sum, Max time.Duration
	buckets  [HistBuckets]uint64
}

// Snapshot copies the histogram's state. Safe to call while observations
// continue; the returned quantiles reflect exactly the copied buckets. A
// nil histogram snapshots to the zero value.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range s.buckets {
		n := h.buckets[i].Load()
		s.buckets[i] = n
		s.Count += n
	}
	s.Sum = time.Duration(h.sum.Load())
	s.Max = time.Duration(h.max.Load())
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of the snapshot,
// interpolated linearly within the selected bucket and clamped to the
// exact observed max. Zero samples yield zero.
func (s *HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count-1)
	var cum float64
	for i, n := range s.buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank < next || i == HistBuckets-1 {
			lo, hi := bucketBounds(i)
			frac := (rank - cum) / float64(n)
			if frac < 0 {
				frac = 0
			}
			v := time.Duration(lo + frac*(hi-lo))
			if v > s.Max {
				v = s.Max
			}
			return v
		}
		cum = next
	}
	return s.Max
}

// bucketBounds returns bucket i's value range as floats: [0,1) for
// bucket 0, [2^(i-1), 2^i) otherwise.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	lo = float64(uint64(1) << uint(i-1))
	return lo, lo * 2
}

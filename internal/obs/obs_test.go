package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	g := r.Gauge("x")
	h := r.Histogram("x_seconds")
	c.Inc()
	c.Add(5)
	g.Set(3)
	h.Observe(time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil instruments must ignore updates")
	}
	r.CounterFunc("f_total", func() uint64 { return 1 })
	r.GaugeFunc("f", func() float64 { return 1 })
	if sl := r.SlowLog("slow", 8, time.Millisecond); sl != nil {
		t.Fatal("nil registry must hand out a nil slow log")
	}
	tr := NewTracer(r, "qpgc_query", nil)
	sp := tr.Start(1, 2)
	sp.Step(StageWave)
	sp.Finish() // must not panic
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if sb.Len() != 0 {
		t.Fatal("nil registry must render nothing")
	}
}

func TestRegistryIdempotentByName(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a_total") != r.Counter("a_total") {
		t.Fatal("same name must return the same counter")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("same name must return the same gauge")
	}
	if r.Histogram("h_seconds") != r.Histogram("h_seconds") {
		t.Fatal("same name must return the same histogram")
	}
	if r.SlowLog("s", 4, time.Second) != r.SlowLog("s", 9, time.Minute) {
		t.Fatal("same name must return the same slow log")
	}
}

func TestLabel(t *testing.T) {
	n := Label("fam_seconds", "stage", "leaf")
	if n != `fam_seconds{stage="leaf"}` {
		t.Fatalf("got %q", n)
	}
	n = Label(n, "quantile", "0.5")
	if n != `fam_seconds{stage="leaf",quantile="0.5"}` {
		t.Fatalf("got %q", n)
	}
	if s := suffixed(n, "_sum"); s != `fam_seconds_sum{stage="leaf",quantile="0.5"}` {
		t.Fatalf("got %q", s)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("g")
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

// Zero-sample histograms must extract zero quantiles, not panic or divide
// by zero.
func TestHistogramZeroSamples(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := s.Quantile(q); v != 0 {
			t.Fatalf("quantile(%v) = %v on empty histogram, want 0", q, v)
		}
	}
	if s.Sum != 0 || s.Count != 0 || s.Max != 0 {
		t.Fatal("empty snapshot must be all zero")
	}
	var nilH *Histogram
	if nilH.Snapshot().Count != 0 {
		t.Fatal("nil histogram snapshot must be zero")
	}
}

// Power-of-two boundary values must land in the right log2 buckets and
// come back out of quantile extraction within their bucket's range.
func TestHistogramBucketBoundaries(t *testing.T) {
	var h Histogram
	// Value 0 is bucket 0; 1 is bucket 1; 2^k and 2^k - 1 straddle the
	// k/k+1 bucket boundary.
	values := []int64{0, 1, 2, 3, 4, 7, 8, 1023, 1024, 1 << 20, (1 << 30) - 1, 1 << 30}
	for _, v := range values {
		h.ObserveNs(v)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(values)) {
		t.Fatalf("count = %d, want %d", s.Count, len(values))
	}
	if s.Max != time.Duration(1<<30) {
		t.Fatalf("max = %v, want %v", s.Max, time.Duration(1<<30))
	}
	if s.buckets[0] != 1 { // the single 0
		t.Fatalf("bucket 0 = %d, want 1", s.buckets[0])
	}
	if s.buckets[1] != 1 { // the single 1
		t.Fatalf("bucket 1 = %d, want 1", s.buckets[1])
	}
	if s.buckets[2] != 2 { // 2 and 3
		t.Fatalf("bucket 2 = %d, want 2", s.buckets[2])
	}
	if s.buckets[10] != 1 || s.buckets[11] != 1 { // 1023 vs 1024
		t.Fatalf("buckets 10/11 = %d/%d, want 1/1", s.buckets[10], s.buckets[11])
	}
	// Quantiles must be monotone in q and never exceed the exact max.
	prev := time.Duration(-1)
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("quantile(%v) = %v < previous %v: not monotone", q, v, prev)
		}
		if v > s.Max {
			t.Fatalf("quantile(%v) = %v exceeds max %v", q, v, s.Max)
		}
		prev = v
	}
	if s.Quantile(1) != s.Max {
		t.Fatalf("p100 = %v, want exact max %v", s.Quantile(1), s.Max)
	}
	// Negative observations clamp to zero rather than corrupting buckets.
	h.ObserveNs(-5)
	if got := h.Snapshot().buckets[0]; got != 2 {
		t.Fatalf("negative observation: bucket 0 = %d, want 2", got)
	}
}

// Concurrent recording must be race-free (run under -race) and lose no
// observations.
func TestHistogramConcurrentRecording(t *testing.T) {
	var h Histogram
	const goroutines, perG = 8, 10000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.ObserveNs(int64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*perG)
	}
	if s.Max != time.Duration(7*1000+perG-1) {
		t.Fatalf("max = %v, want %v", s.Max, time.Duration(7*1000+perG-1))
	}
}

// A snapshot taken while writers are recording must be internally
// consistent: its count equals the sum of its copied buckets (that is the
// definition), and its quantiles stay within [0, overall max].
func TestHistogramSnapshotWhileRecording(t *testing.T) {
	var h Histogram
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.ObserveNs(i % (1 << 22))
				i++
			}
		}()
	}
	limit := time.Duration(1 << 22)
	for i := 0; i < 200; i++ {
		s := h.Snapshot()
		var sum uint64
		for _, b := range s.buckets {
			sum += b
		}
		if sum != s.Count {
			t.Fatalf("snapshot count %d != bucket sum %d", s.Count, sum)
		}
		for _, q := range []float64{0.5, 0.95, 0.99} {
			if v := s.Quantile(q); v < 0 || v > limit {
				t.Fatalf("mid-recording quantile(%v) = %v outside [0,%v]", q, v, limit)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestTracerSpanAndSlowLog(t *testing.T) {
	r := NewRegistry()
	slow := r.SlowLog("qpgc_slow_queries", 2, time.Nanosecond) // everything is slow
	tr := NewTracer(r, "qpgc_query", slow)
	for i := uint32(0); i < 3; i++ {
		sp := tr.Start(i, i+1)
		sp.Step(StageEpochWait)
		sp.Step(StageWave)
		sp.Finish()
	}
	if n := r.Histogram("qpgc_query_seconds").Snapshot().Count; n != 3 {
		t.Fatalf("total histogram count = %d, want 3", n)
	}
	wave := r.Histogram(Label("qpgc_query_stage_seconds", "stage", "wave"))
	if n := wave.Snapshot().Count; n != 3 {
		t.Fatalf("wave stage count = %d, want 3", n)
	}
	if slow.Count() != 3 {
		t.Fatalf("slow log recorded %d, want 3", slow.Count())
	}
	entries := slow.Entries()
	if len(entries) != 2 { // ring capacity 2: newest retained
		t.Fatalf("retained %d entries, want 2", len(entries))
	}
	if entries[0].U != 2 || entries[1].U != 1 {
		t.Fatalf("entries not newest-first: %v %v", entries[0].U, entries[1].U)
	}
	// Tracers for the same family share instruments.
	tr2 := NewTracer(r, "qpgc_query", nil)
	sp := tr2.Start(9, 9)
	sp.Finish()
	if n := r.Histogram("qpgc_query_seconds").Snapshot().Count; n != 4 {
		t.Fatalf("shared family count = %d, want 4", n)
	}
}

func TestSlowLogThresholdGate(t *testing.T) {
	r := NewRegistry()
	slow := r.SlowLog("s", 8, time.Hour) // nothing is that slow
	tr := NewTracer(r, "q", slow)
	sp := tr.Start(0, 0)
	sp.Finish()
	if slow.Count() != 0 {
		t.Fatal("fast query must not enter the slow log")
	}
}

func TestRenderPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("qpgc_requests_total").Add(7)
	r.Gauge("qpgc_inflight").Set(2)
	r.CounterFunc("qpgc_epochs_total", func() uint64 { return 42 })
	r.GaugeFunc("qpgc_age_seconds", func() float64 { return 1.5 })
	h := r.Histogram(Label("qpgc_req_seconds", "type", "reach"))
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)
	text := r.PrometheusText()
	for _, want := range []string{
		"# TYPE qpgc_requests_total counter",
		"qpgc_requests_total 7",
		"# TYPE qpgc_inflight gauge",
		"qpgc_inflight 2",
		"qpgc_epochs_total 42",
		"qpgc_age_seconds 1.5",
		"# TYPE qpgc_req_seconds summary",
		`qpgc_req_seconds{type="reach",quantile="0.5"}`,
		`qpgc_req_seconds_count{type="reach"} 2`,
		`qpgc_req_seconds_max{type="reach"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus text missing %q:\n%s", want, text)
		}
	}
}

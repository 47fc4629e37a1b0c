package obs

import (
	"sync"
	"time"
)

// Stage names one leg of a query's life, in pipeline order. A span steps
// through whichever stages apply to its query — a monolithic point read
// has no summary hop — and unvisited stages simply record nothing.
type Stage uint8

// Query pipeline stages.
const (
	// StageEpochWait is time spent holding for the read-your-writes epoch.
	StageEpochWait Stage = iota
	// StageWave is the read itself; for batches, the scheduler's waves.
	StageWave
	// StageLeaf is time inside the leaf engine (topo sweep, hub-cache
	// pruned sweep, or hop2 peel — the engine choice is counted
	// separately by the scheduler's counters).
	StageLeaf
	// StageSummary is time in the cross-shard summary hop.
	StageSummary
	// NumStages is the stage count; new stages go before it.
	NumStages
)

// String names the stage for metric labels.
func (st Stage) String() string {
	switch st {
	case StageEpochWait:
		return "epoch_wait"
	case StageWave:
		return "wave"
	case StageLeaf:
		return "leaf"
	case StageSummary:
		return "summary"
	}
	return "unknown"
}

// Tracer owns the per-stage histograms one query family feeds, plus an
// optional slow-query log. Tracers registered under the same family share
// instruments (Registry lookups are idempotent), so the server's
// epoch-wait/wave stages and the store's leaf/summary stages land in one
// family. A nil *Tracer hands out no-op spans.
type Tracer struct {
	total *Histogram
	stage [NumStages]*Histogram
	slow  *SlowLog
}

// NewTracer builds (or re-binds) the family's trace instruments in r:
// "<family>_seconds" for the total and "<family>_stage_seconds{stage=...}"
// per stage. slow may be nil. A nil registry yields a nil tracer.
func NewTracer(r *Registry, fam string, slow *SlowLog) *Tracer {
	if r == nil {
		return nil
	}
	t := &Tracer{total: r.Histogram(fam + "_seconds"), slow: slow}
	for st := Stage(0); st < NumStages; st++ {
		t.stage[st] = r.Histogram(Label(fam+"_stage_seconds", "stage", st.String()))
	}
	return t
}

// Start opens a span for one query, identified by its endpoints. On a
// nil tracer the returned span is inert and records nothing — not even a
// clock read.
func (t *Tracer) Start(u, v uint32) Span {
	if t == nil {
		return Span{}
	}
	now := time.Now()
	return Span{t: t, u: u, v: v, start: now, mark: now}
}

// Span measures one query's passage through the pipeline. It is a plain
// value — keep it on the stack; no allocation ever happens on its path.
type Span struct {
	t           *Tracer
	u, v        uint32
	start, mark time.Time
	stages      [NumStages]time.Duration
}

// Step closes the current leg as stage st: the time since the previous
// Step (or Start) is attributed to st, and the clock re-marks. Stages may
// be visited in any order; revisits accumulate.
func (s *Span) Step(st Stage) {
	if s.t == nil || st >= NumStages {
		return
	}
	now := time.Now()
	s.stages[st] += now.Sub(s.mark)
	s.mark = now
}

// Finish closes the span: the total and every visited stage feed their
// histograms, and a total at or above the slow log's threshold records a
// slow-query entry with the full stage breakdown.
func (s *Span) Finish() {
	if s.t == nil {
		return
	}
	total := time.Since(s.start)
	s.t.total.Observe(total)
	for st, d := range s.stages {
		if d > 0 {
			s.t.stage[st].Observe(d)
		}
	}
	if l := s.t.slow; l != nil && l.threshold > 0 && total >= l.threshold {
		l.record(SlowEntry{When: s.start, Total: total, Stages: s.stages, U: s.u, V: s.v})
	}
}

// SlowEntry is one slow query: when it started, how long it took overall
// and per stage, and which endpoints it asked about.
type SlowEntry struct {
	// When is the query's start time.
	When time.Time
	// Total is the end-to-end latency; Stages its per-stage breakdown
	// (zero for stages the query never visited).
	Total  time.Duration
	Stages [NumStages]time.Duration
	// U and V are the query's node endpoints.
	U, V uint32
}

// SlowLog is a fixed-capacity ring of the most recent slow queries. Only
// queries crossing the threshold pay its mutex, so it is free for the
// fast majority. A nil *SlowLog records nothing.
type SlowLog struct {
	mu        sync.Mutex
	threshold time.Duration
	ring      []SlowEntry
	next      int
	total     uint64
}

// NewSlowLog returns a log keeping the last capacity entries at or above
// threshold. capacity <= 0 defaults to 128; threshold <= 0 disables
// recording.
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity <= 0 {
		capacity = 128
	}
	return &SlowLog{threshold: threshold, ring: make([]SlowEntry, 0, capacity)}
}

// Threshold returns the recording threshold (0 = disabled).
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// record appends one entry, evicting the oldest at capacity.
func (l *SlowLog) record(e SlowEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, e)
		return
	}
	l.ring[l.next] = e
	l.next = (l.next + 1) % len(l.ring)
}

// Count returns how many slow queries have been recorded in total,
// including entries the ring has since evicted.
func (l *SlowLog) Count() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Entries returns a copy of the retained entries, newest first.
func (l *SlowLog) Entries() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowEntry, 0, len(l.ring))
	for i := 0; i < len(l.ring); i++ {
		// Walk backward from the slot most recently written.
		idx := (l.next - 1 - i + 2*len(l.ring)) % len(l.ring)
		if len(l.ring) < cap(l.ring) {
			// Ring not yet full: entries 0..len-1 in append order.
			idx = len(l.ring) - 1 - i
		}
		out = append(out, l.ring[idx])
	}
	return out
}

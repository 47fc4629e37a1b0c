package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds since
// the recorder was made; Parent is the ID of the span that caused this one
// (0 for a request's root) and Req the request the span belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpansPerTrack bounds one goroutine's recording, so a fast phase
// cannot grow the trace file without limit; later spans are counted as
// dropped.
const maxSpansPerTrack = 1 << 16

// recorder keeps spans in memory, one track per goroutine so recording
// takes no lock. A nil *recorder or *track records nothing.
type recorder struct {
	t0     time.Time
	tracks []*track
}

// track is the part of a recorder one goroutine writes.
type track struct {
	rec     *recorder
	idBase  int64
	spans   []span
	dropped int64
}

// newRecorder returns a recorder with n tracks.
func newRecorder(n int) *recorder {
	r := &recorder{t0: time.Now()}
	for i := 0; i < n; i++ {
		r.tracks = append(r.tracks, &track{rec: r, idBase: int64(i+1) << 32})
	}
	return r
}

// track returns goroutine i's track, nil on a nil recorder.
func (r *recorder) track(i int) *track {
	if r == nil {
		return nil
	}
	return r.tracks[i]
}

// begin opens a span now and returns its ID (0 when not recording).
func (t *track) begin(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	return t.beginAt(name, parent, req, time.Now())
}

// beginAt opens a span that started at the given time: an open-loop
// request begins when it was due, not when the generator got to it.
func (t *track) beginAt(name string, parent, req int64, at time.Time) int64 {
	if t == nil {
		return 0
	}
	if len(t.spans) >= maxSpansPerTrack {
		t.dropped++
		return 0
	}
	id := t.idBase + int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(at.Sub(t.rec.t0))})
	return id
}

// end closes the span begin returned.
func (t *track) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-t.idBase-1].End = int64(time.Since(t.rec.t0))
}

// timed runs fn inside a span and returns how long it took. It times fn
// also when not recording.
func (t *track) timed(name string, parent, req int64, fn func()) time.Duration {
	id := t.begin(name, parent, req)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d
}

// all returns every recorded span and the number dropped.
func (r *recorder) all() (spans []span, dropped int64) {
	for _, t := range r.tracks {
		spans = append(spans, t.spans...)
		dropped += t.dropped
	}
	return spans, dropped
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children are merged,
// so concurrent children are not counted twice).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, hi := int64(0), s.Start
		for _, k := range kids {
			lo, end := max(k.Start, hi), min(k.End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// unattributedShare is the share of the root spans' time that no child
// span covers: time the benchmark cannot assign to a layer it called.
func unattributedShare(spans []span) float64 {
	self := selfTimes(spans)
	var total, own int64
	for _, s := range spans {
		if s.Parent == 0 {
			total += s.End - s.Start
			own += self[s.ID]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(own) / float64(total)
}

// traceFile is the flushed form of one traced run.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Dropped  int64            `json:"dropped_spans"`
	SelfNs   map[string]int64 `json:"self_ns_by_name"`
	Spans    []span           `json:"spans"`
}

// flush writes the spans to dir/trace-<workload>.json.
func (r *recorder) flush(dir, workload string, seed int64) error {
	spans, dropped := r.all()
	self := selfTimes(spans)
	byName := make(map[string]int64)
	for _, s := range spans {
		byName[s.Name] += self[s.ID]
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Dropped: dropped, SelfNs: byName, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

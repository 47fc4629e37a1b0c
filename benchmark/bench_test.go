package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// tiny shrinks a workload so a whole run takes a fraction of a second.
func tiny(w workload) workload {
	w.graph = w.graph.Scale(0.03)
	w.replay = 3
	return w
}

const tinySeconds = 0.2

func TestSameSeedSameInputs(t *testing.T) {
	d := social16.Scale(0.03)
	a, b := makeInputs(d, 1, 4).hash(), makeInputs(d, 1, 4).hash()
	if a != b {
		t.Fatalf("seed 1 gave two different operation lists: %x, %x", a, b)
	}
	// Pinned: a change here means every recorded baseline was taken on
	// other inputs.
	if const1 := uint64(0xc2c7970964487693); a != const1 {
		t.Errorf("operation lists of seed 1 hash to %#x, pinned %#x", a, const1)
	}
	if c := makeInputs(d, 2, 4).hash(); c == a {
		t.Errorf("seeds 1 and 2 gave the same operation lists")
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		used float64
	}{
		{100000, 0.99, 0.99},
		{1000, 0.99, 0.99},
		{500, 0.99, 0.98},
		{100, 0.9, 0.9},
		{50, 0.9, 0.8},
		{20, 0.9, 0.5},
		{8, 0.9, 0.5},
	} {
		if got := supportedPercentile(c.n, c.want); got < c.used-1e-9 || got > c.used+1e-9 {
			t.Errorf("supportedPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.used)
		}
	}
	// The chosen percentile leaves at least tailBeyond samples beyond it.
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i)
	}
	l := newLatencies(xs)
	v, used := l.tail(0.99)
	if beyond := len(xs) - 1 - int(v); beyond < tailBeyond || used != 0.98 {
		t.Errorf("tail(0.99) of 500 samples = %v at %v, %d samples beyond", v, used, beyond)
	}
}

func TestAtRefSpeed(t *testing.T) {
	// A sample taken while the reference kernel took twice its nominal
	// time counts half its time.
	got := atRefSpeed([]sample{{300, 2 * refNominal}, {100, refNominal}, {45, refNominal / 2}}).sorted
	for i, want := range []float64{90, 100, 150} {
		if got[i] != want {
			t.Fatalf("atRefSpeed = %v, want [90 100 150]", got)
		}
	}
	s := newSpeedometer()
	if r := s.read(); r <= 0 || len(s.readings) != 1 {
		t.Errorf("reading %v, %d readings kept", r, len(s.readings))
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50}, // overlaps span 2
		{ID: 4, Parent: 1, Start: 60, End: 70},
		{ID: 5, Parent: 4, Start: 62, End: 66},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 50, 2: 20, 3: 30, 4: 6, 5: 4} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := unattributedShare(spans); got != 0.5 {
		t.Errorf("unattributed share = %v, want 0.5", got)
	}
}

func TestCountFSRepeats(t *testing.T) {
	in := makeInputs(social16.Scale(0.03), 1, 8)
	counts := func() diskCounts {
		fs := newCountFS()
		st, err := openStore(in.g0.Clone(), storeConfig{dir: filepath.Join(t.TempDir(), "s"), ckptEvery: 5, fs: fs})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range in.batches {
			if _, err := st.Apply(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		c := fs.counts()
		c.WriteTime, c.SyncTime = 0, 0
		return c
	}
	a, b := counts(), counts()
	if a != b {
		t.Errorf("two runs of one batch list: %+v vs %+v", a, b)
	}
	if a.Writes == 0 || a.Bytes == 0 || a.Syncs < int64(len(in.batches)) {
		t.Errorf("counts %+v: want writes, bytes and a sync per batch", a)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNames(t *testing.T) {
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not letters, digits, _ . - (at most 64)", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.name)
	}
}

// TestManifestMatchesCode holds ../BENCHMARK.json and the tables in this
// package together.
func TestManifestMatchesCode(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, nominalSeconds %d", m.RunSeconds, nominalSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in code", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %q, code %q (or their whys differ)", i, m.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in code", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: manifest %+v, code %+v", kind, i, g, d)
			}
			if bounded && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", g.Name, g.Bound)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd, true)
	same("per_layer", m.PerLayer, perLayer, false)
}

// TestSmokeRuns runs every workload at a tiny size, untraced and traced,
// and checks that each prints exactly the metrics the manifest names,
// that nothing failed, and that the traced pass wrote its span file.
func TestSmokeRuns(t *testing.T) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, notes, err := runOnce(tiny(w), 1, tinySeconds, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.name, traced, err, strings.Join(notes, "\n"))
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w.name, traced, res.Correct, res.Attempted, res.Failed, strings.Join(notes, "\n"))
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var got, want []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			for _, d := range defs {
				want = append(want, d.name)
				if v := res.Metrics[d.name]; !traced && v.Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.name, d.name, v.Value)
				}
			}
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s traced=%v printed %v, want %v", w.name, traced, got, want)
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s: result does not encode: %v", w.name, err)
			}
		}
		data, err := os.ReadFile(filepath.Join(outDir, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil || len(tf.Spans) == 0 {
			t.Errorf("%s: span file has %d spans, err %v", w.name, len(tf.Spans), err)
		}
	}
}

func TestAgree(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var m manifest
	m.Workloads = []manifestWorkload{{Name: "w"}}
	m.EndToEnd = []manifestMetric{
		{Name: "write_p50_ms", Unit: "ms", Better: lower, Bound: 0.1},
		{Name: "disk_bytes_per_update", Unit: "B", Better: lower, Bound: 0.1},
	}
	mp := write("manifest.json", m)
	set := func(ms, bytes float64) resultSet {
		return resultSet{Runs: map[string][]suiteRun{"w": {
			{Seed: 1, Metrics: map[string]float64{"write_p50_ms": ms, "disk_bytes_per_update": bytes}},
			{Seed: 2, Metrics: map[string]float64{"write_p50_ms": ms * 1.02, "disk_bytes_per_update": bytes}},
		}}}
	}
	a := write("a.json", set(10, 500))
	for _, c := range []struct {
		name  string
		b     resultSet
		lines int
	}{
		{"same", set(10.5, 500), 0},
		{"slow", set(12, 500), 1},
		{"count", set(10, 501), 2}, // an exact count differs on both seeds
	} {
		lines, err := agree(mp, a, write(c.name+".json", c.b))
		if err != nil {
			t.Fatal(err)
		}
		if len(lines) != c.lines {
			t.Errorf("%s: %d lines, want %d: %v", c.name, len(lines), c.lines, lines)
		}
	}
}

package store

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
)

// TestApplyStageHistograms pins the write-path budget a registry exposes:
// qpgc_store_apply_seconds splits into wal, scc, reach, pattern and publish
// stages that are each observed and together stay within the total, on
// both store kinds; the loss-area sweeps and incPCM's representative scans
// are counted once per maintainer call; a store opened without a registry
// wires no stage clocks at all.
func TestApplyStageHistograms(t *testing.T) {
	const batches = 6
	stage := func(r *obs.Registry, name string) obs.HistSnapshot {
		return r.Histogram(obs.Label("qpgc_store_apply_seconds", "stage", name)).Snapshot()
	}
	check := func(t *testing.T, r *obs.Registry, perBatch uint64) {
		t.Helper()
		total := r.Histogram("qpgc_store_apply_seconds").Snapshot()
		if total.Count != batches {
			t.Fatalf("apply observed %d groups, want %d", total.Count, batches)
		}
		wal, pub := stage(r, "wal"), stage(r, "publish")
		scc, reach, pat := stage(r, "scc"), stage(r, "reach"), stage(r, "pattern")
		if wal.Count != batches || pub.Count < batches {
			t.Fatalf("wal observed %d, publish %d; want %d each (plus the epoch-0 publish)", wal.Count, pub.Count, batches)
		}
		if scc.Count != perBatch || reach.Count != perBatch || pat.Count != perBatch {
			t.Fatalf("scc observed %d, reach %d, pattern %d; want %d each", scc.Count, reach.Count, pat.Count, perBatch)
		}
		if scc.Sum <= 0 || reach.Sum <= 0 || pat.Sum <= 0 {
			t.Fatalf("maintainer stages recorded no time: scc %v, reach %v, pattern %v", scc.Sum, reach.Sum, pat.Sum)
		}
		if wal.Sum+scc.Sum+reach.Sum+pat.Sum > total.Sum {
			t.Fatalf("stages wal %v + scc %v + reach %v + pattern %v exceed the total %v", wal.Sum, scc.Sum, reach.Sum, pat.Sum, total.Sum)
		}
		// The affected area sits next to the clocks, one observation per
		// maintainer call: counts, so the sums are nodes and components.
		for _, scheme := range []string{"reach", "pattern"} {
			if aff := r.Histogram(obs.Label("qpgc_store_aff", "scheme", scheme)).Snapshot(); aff.Count != perBatch || aff.Sum <= 0 {
				t.Fatalf("%s affected area observed %d times (sum %d) for %d maintainer calls", scheme, aff.Count, aff.Sum, perBatch)
			}
		}
		if levels := r.Gauge("qpgc_store_pattern_levels").Value(); levels < 2 {
			t.Fatalf("pattern levels gauge reads %d", levels)
		}
		if n := r.Counter("qpgc_store_pattern_fallbacks_total").Value(); n != 0 {
			t.Fatalf("%d batches refined from the seed on a shallow graph", n)
		}
		if loss := r.Histogram("qpgc_store_scc_loss_components").Snapshot(); loss.Count != perBatch {
			t.Fatalf("loss-area sweeps observed %d times for %d maintainer calls", loss.Count, perBatch)
		}
	}

	t.Run("store", func(t *testing.T) {
		g := gen.Social(rand.New(rand.NewSource(3)), 400, 1600, 3)
		reg := obs.NewRegistry()
		s := mustOpen(t, g.Clone(), &Options{Indexes: true, Dir: t.TempDir(), Obs: reg})
		defer s.Close()
		rng := rand.New(rand.NewSource(4))
		scans := 0
		for i := 0; i < batches; i++ {
			res, err := s.ApplyBatch(gen.RandomBatch(rng, g, 16, 0.5))
			if err != nil {
				t.Fatal(err)
			}
			scans += res.Pattern.RepScans
		}
		check(t, reg, batches)
		if n := reg.Counter("qpgc_store_pattern_rep_scans_total").Value(); n != uint64(scans) {
			t.Fatalf("rep-scan counter reads %d, the batches report %d scans", n, scans)
		}
		if text := reg.PrometheusText(); !strings.Contains(text, "qpgc_store_pattern_rep_scans_total") {
			t.Fatal("/metrics does not list qpgc_store_pattern_rep_scans_total")
		}

		// Publish splits into the writer's four stages, observed once per
		// publish and summing to the publish total (the laps leave out only
		// the bookkeeping after the last one); the 2-hop index is timed where
		// it is built — by the reader that first asks for it — never on the
		// writer or a checkpoint.
		pub := reg.Histogram("qpgc_store_publish_seconds").Snapshot()
		var laps time.Duration
		for _, name := range pubStageNames {
			h := reg.Histogram(obs.Label("qpgc_store_publish_seconds", "stage", name)).Snapshot()
			if h.Count != pub.Count {
				t.Fatalf("publish stage %s observed %d times for %d publishes", name, h.Count, pub.Count)
			}
			laps += h.Sum
		}
		if laps > pub.Sum || laps < pub.Sum*9/10 {
			t.Fatalf("publish stages sum to %v of a publish total of %v, want within 10%%", laps, pub.Sum)
		}
		index := func() uint64 {
			return reg.Histogram(obs.Label("qpgc_store_publish_seconds", "stage", "index")).Snapshot().Count
		}
		if n := index(); n != 0 {
			t.Fatalf("%d 2-hop indexes built before any read, want none", n)
		}
		s.BatchReachable([]graph.Node{0, 1}, []graph.Node{2, 3})
		s.BatchReachable([]graph.Node{0, 1}, []graph.Node{2, 3})
		if n := index(); n != 1 {
			t.Fatalf("two batch reads on one epoch left %d index builds, want one", n)
		}
		if rows := reg.Histogram("qpgc_store_publish_patched_rows").Snapshot(); rows.Count == 0 || rows.Count > batches {
			t.Fatalf("patched-rows histogram observed %d epochs of %d", rows.Count, batches)
		}
		// The write side's tables, by owner, as the last publish counted them.
		scc, reach := s.m.Footprints()
		for owner, want := range map[string]int{"scc": scc, "reach": reach} {
			name := obs.Label("qpgc_store_heap_bytes", "owner", owner)
			if got := reg.Gauge(name).Value(); got != int64(want) || want <= 0 {
				t.Fatalf("%s reads %d, the maintainers hold %d", name, got, want)
			}
			if text := reg.PrometheusText(); !strings.Contains(text, name) {
				t.Fatalf("/metrics does not list %s", name)
			}
		}

		bare := mustOpen(t, g.Clone(), nil)
		defer bare.Close()
		if bare.ob != nil || bare.m.Meter != nil {
			t.Fatal("a store without a registry must carry no stage clocks")
		}
	})
	t.Run("sharded", func(t *testing.T) {
		g := gen.Social(rand.New(rand.NewSource(5)), 400, 1600, 3)
		reg := obs.NewRegistry()
		s := mustOpenSharded(t, g.Clone(), &ShardedOptions{Shards: 2, Dir: t.TempDir(), Obs: reg})
		defer s.Close()
		rng := rand.New(rand.NewSource(6))
		for i := 0; i < batches; i++ {
			if _, err := s.ApplyBatch(gen.RandomBatch(rng, g, 16, 0.5)); err != nil {
				t.Fatal(err)
			}
		}
		// Every shard observes its own sub-batch; with 16 updates over two
		// shards each batch reaches both with near certainty, but only a
		// lower bound is exact.
		scc, reach, pat := stage(reg, "scc"), stage(reg, "reach"), stage(reg, "pattern")
		if reach.Count < batches || scc.Count != reach.Count || pat.Count != reach.Count {
			t.Fatalf("shards observed scc %d, reach %d, pattern %d sub-batches for %d batches", scc.Count, reach.Count, pat.Count, batches)
		}
		if loss := reg.Histogram("qpgc_store_scc_loss_components").Snapshot(); loss.Count != reach.Count {
			t.Fatalf("shards observed loss-area sweeps %d times for %d sub-batches", loss.Count, reach.Count)
		}
		if stage(reg, "wal").Count != batches {
			t.Fatalf("wal observed %d groups, want %d", stage(reg, "wal").Count, batches)
		}
	})
}

// TestBuildStageHistograms: every build of the maintainers — open, tail
// recovery, materialize on the first write after a clean recovery, and
// promotion — observes qpgc_store_build_seconds once per stage, and a
// recovery that builds none observes nothing; a sharded store observes one
// build per shard.
func TestBuildStageHistograms(t *testing.T) {
	builds := func(t *testing.T, r *obs.Registry, want uint64) {
		t.Helper()
		for _, stage := range []string{"scc", "reach", "pattern"} {
			h := r.Histogram(obs.Label("qpgc_store_build_seconds", "stage", stage)).Snapshot()
			if h.Count != want || (want > 0 && h.Sum <= 0) {
				t.Fatalf("build stage %s observed %d builds (%v), want %d", stage, h.Count, h.Sum, want)
			}
		}
		if want > 0 && !strings.Contains(r.PrometheusText(), "qpgc_store_build_seconds") {
			t.Fatal("/metrics does not list qpgc_store_build_seconds")
		}
	}
	g := gen.Social(rand.New(rand.NewSource(7)), 400, 1600, 3)
	rng := rand.New(rand.NewSource(8))
	dir := t.TempDir()
	write := func(s *Store) {
		t.Helper()
		if _, err := s.ApplyBatch(gen.RandomBatch(rng, g, 16, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	reopen := func(r *obs.Registry) *Store {
		t.Helper()
		s, err := Open(nil, &Options{Dir: dir, Obs: r})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	reg := obs.NewRegistry()
	s := mustOpen(t, g.Clone(), &Options{Dir: dir, Obs: reg})
	builds(t, reg, 1)
	write(s)
	write(s)
	builds(t, reg, 1)
	s.Close()

	reg = obs.NewRegistry()
	s = reopen(reg) // the two batches are a WAL tail
	builds(t, reg, 1)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	reg = obs.NewRegistry()
	s = reopen(reg) // from the checkpoint alone: no maintainers yet
	builds(t, reg, 0)
	write(s)
	builds(t, reg, 1)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	reg = obs.NewRegistry()
	s = reopen(reg)
	if _, err := s.BumpTerm(0); err != nil {
		t.Fatal(err)
	}
	builds(t, reg, 1)
	s.Close()

	reg = obs.NewRegistry()
	sh := mustOpenSharded(t, g.Clone(), &ShardedOptions{Shards: 2, Obs: reg})
	defer sh.Close()
	if _, err := sh.ApplyBatch(gen.RandomBatch(rng, g, 16, 0.5)); err != nil {
		t.Fatal(err)
	}
	builds(t, reg, 2)
}

// TestSizeGauges: the size gauges read the installed snapshot's node and
// edge counts — G's and both quotients' — after open, after every publish
// and on a store opened from an image.
func TestSizeGauges(t *testing.T) {
	check := func(t *testing.T, reg *obs.Registry, sn *Snapshot) {
		t.Helper()
		for name, want := range map[string]int{
			"qpgc_store_graph_nodes":                                    sn.G.NumNodes(),
			"qpgc_store_graph_edges":                                    sn.G.NumEdges(),
			obs.Label("qpgc_store_quotient_nodes", "scheme", "reach"):   sn.Reach.Gr.NumNodes(),
			obs.Label("qpgc_store_quotient_edges", "scheme", "reach"):   sn.Reach.Gr.NumEdges(),
			obs.Label("qpgc_store_quotient_nodes", "scheme", "pattern"): sn.Pattern.Gr.NumNodes(),
			obs.Label("qpgc_store_quotient_edges", "scheme", "pattern"): sn.Pattern.Gr.NumEdges(),
		} {
			if got := reg.Gauge(name).Value(); got != int64(want) || want == 0 {
				t.Fatalf("epoch %d: %s reads %d, the snapshot holds %d", sn.Epoch, name, got, want)
			}
		}
	}
	g := gen.Social(rand.New(rand.NewSource(3)), 400, 1600, 3)
	reg := obs.NewRegistry()
	s := mustOpen(t, g.Clone(), &Options{Obs: reg})
	defer s.Close()
	check(t, reg, s.Snapshot())
	rng := rand.New(rand.NewSource(4))
	for range 4 {
		if _, err := s.Apply(gen.RandomBatch(rng, g, 64, 0.3)); err != nil {
			t.Fatal(err)
		}
		check(t, reg, s.Snapshot())
	}
	freg := obs.NewRegistry()
	f, err := OpenImage(encodeImage(s.Snapshot()), &Options{Obs: freg})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	check(t, freg, f.Snapshot())
}

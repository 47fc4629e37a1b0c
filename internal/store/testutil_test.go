package store

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
)

// mustOpen opens an in-memory or durable store, failing the test on error.
func mustOpen(t testing.TB, g *graph.Graph, opts *Options) *Store {
	t.Helper()
	s, err := Open(g, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// mustOpenSharded opens a sharded store, failing the test on error.
func mustOpenSharded(t testing.TB, g *graph.Graph, opts *ShardedOptions) *ShardedStore {
	t.Helper()
	s, err := OpenSharded(g, opts)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	return s
}

// kindShards is the shard count the lifecycle tests open their sharded
// store with.
const kindShards = 3

// forKinds runs fn once per store kind: the lifecycle is the engine's, so
// every test of it takes the kind as one more input.
func forKinds(t *testing.T, fn func(t *testing.T, kind string)) {
	for _, kind := range []string{"mono", "sharded"} {
		t.Run(kind, func(t *testing.T) { fn(t, kind) })
	}
}

// openKind opens a store of the given kind behind the common surface: from
// g when it is non-nil, else by recovering o.Dir — through OpenDir, so the
// manifest (not the test) picks the entry point and the shard count.
func openKind(t testing.TB, kind string, g *graph.Graph, o Options) Handle {
	t.Helper()
	var h Handle
	var err error
	switch {
	case g == nil:
		h, err = OpenDir(o)
	case kind == "mono":
		h, err = Open(g, &o)
	default:
		h, err = openSharded(g, kindShards, o)
	}
	if err != nil {
		t.Fatalf("open %s store: %v", kind, err)
	}
	want := Info{Kind: "store", Shards: 1}
	if kind == "sharded" {
		want = Info{Kind: "sharded", Shards: kindShards}
	}
	if in := h.Info(); in.Kind != want.Kind || in.Shards != want.Shards {
		t.Fatalf("opened a %s store with %d shard(s), want %s with %d", in.Kind, in.Shards, want.Kind, want.Shards)
	}
	return h
}

// materialized reports whether h's write-side state — the maintainers or
// the shard writers a warm restart defers — has been built.
func materialized(h Handle) bool {
	switch s := h.(type) {
	case *Store:
		return s.m != nil
	case *ShardedStore:
		return s.workers != nil
	}
	panic("unknown store kind")
}

// viewShape is everything Stats reports about h's current view, with the
// lifetime counters (which a restart legitimately resets) zeroed, so two
// stores holding the same state compare equal.
func viewShape(h Handle) any {
	switch s := h.(type) {
	case *Store:
		st := s.Stats()
		st.Batches, st.Updates, st.Reads = 0, 0, 0
		return st
	case *ShardedStore:
		st := s.Stats()
		st.Batches, st.Updates, st.Reads = 0, 0, 0
		return st
	}
	panic("unknown store kind")
}

// diffVsReference pins a store of either kind to an uninterrupted
// monolithic reference over mirror: sampled reachability on both paths plus
// one pattern match.
func diffVsReference(t *testing.T, name string, got Handle, mirror *graph.Graph) {
	t.Helper()
	ref := mustOpen(t, mirror.Clone(), nil)
	defer ref.Close()
	n := mirror.NumNodes()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 400; i++ {
		u := graph.Node(rng.Intn(n))
		v := graph.Node(rng.Intn(n))
		if g, w := got.Reachable(u, v), ref.Reachable(u, v); g != w {
			t.Fatalf("%s: QR(%d,%d) = %v on the store under test, %v on reference", name, u, v, g, w)
		}
		if g, w := got.ReachableOnG(u, v), ref.ReachableOnG(u, v); g != w {
			t.Fatalf("%s: QR(%d,%d) on G = %v on the store under test, %v on reference", name, u, v, g, w)
		}
	}
	if !sameResultSets(got.Match(testPattern()), ref.Match(testPattern())) {
		t.Fatalf("%s: pattern match diverged between the store under test and reference", name)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/snapfile"
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

// kindStore is the surface both store kinds share, almost entirely through
// the engine they embed: what the lifecycle tests drive, whichever kind
// they opened.
type kindStore interface {
	Epoch() uint64
	NumNodes() int
	AwaitEpoch(min uint64, timeout time.Duration, cancel <-chan struct{}) uint64
	Reachable(u, v graph.Node) bool
	BatchReachable(us, vs []graph.Node) []bool
	Match(p *pattern.Pattern) *pattern.Result
	SchedStats() SchedStats
	Apply(batch []graph.Update) (uint64, error)
	Checkpoint() error
	Health() Health
	ScrubNow() (ScrubReport, error)
	Term() uint64
	Fenced() bool
	ObserveTerm(t uint64) error
	AdoptTerm(t uint64) error
	BumpTerm(min uint64) (uint64, error)
	Close() error
}

// openKind opens a store of the given kind: from g when it is non-nil, else
// by recovering o.Dir with the entry point its manifest names, so the
// manifest (not the test) picks the kind and the shard count.
func openKind(t testing.TB, kind string, g *graph.Graph, o Options) kindStore {
	t.Helper()
	sharded := kind == "sharded"
	if g == nil {
		m, err := readManifest(faultfs.Disk, o.Dir)
		if err != nil {
			t.Fatal(err)
		}
		sharded = m.kind == snapfile.KindSharded
	}
	var h kindStore
	var err error
	if sharded {
		h, err = openSharded(g, kindShards, o)
	} else {
		h, err = Open(g, &o)
	}
	if err != nil {
		t.Fatalf("open %s store: %v", kind, err)
	}
	if sh, ok := h.(*ShardedStore); ok != (kind == "sharded") || ok && sh.shards != kindShards {
		t.Fatalf("opened a %T, want a %s store", h, kind)
	}
	return h
}

// installKind seeds a fresh directory with a checkpoint image of either
// kind, as a shipped image is installed: the file, then a manifest naming it.
func installKind(t testing.TB, kind snapfile.Kind, epoch uint64, data []byte) string {
	t.Helper()
	dir := t.TempDir()
	if kind == snapfile.KindStore {
		if err := InstallSnapshot(nil, dir, epoch, data); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	name := fmt.Sprintf("snap-%016x.qps", epoch)
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o666); err != nil {
		t.Fatal(err)
	}
	if err := writeManifest(faultfs.Disk, dir, manifest{kind: kind, epoch: epoch, snapshot: name}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// reachableOnG answers QR(u,v) on the uncompressed G of h's current
// snapshot — the baseline path of either kind.
func reachableOnG(h kindStore, u, v graph.Node) bool {
	if s, ok := h.(*ShardedStore); ok {
		return s.Snapshot().ReachableOnG(NewRouteScratch(), u, v)
	}
	return h.(*Store).ReachableOnG(u, v)
}

// materialized reports whether h's write-side state — the maintainers or
// the shard writers a warm restart defers — has been built.
func materialized(h kindStore) bool {
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
func viewShape(h kindStore) any {
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
func diffVsReference(t *testing.T, name string, got kindStore, mirror *graph.Graph) {
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
		if g, w := reachableOnG(got, u, v), ref.ReachableOnG(u, v); g != w {
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
